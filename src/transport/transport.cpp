#include "transport/transport.hpp"

#include "util/require.hpp"

namespace vdm::transport {

// One schedule_in at construction, then each tick re-arms the same slot in
// place (id never changes); stop() from inside the tick suppresses the
// re-arm via the backend's firing-cancelled check.
PeriodicTimer::PeriodicTimer(sim::Reactor& reactor, sim::Time interval,
                             sim::InlineFn fn)
    : reactor_(reactor), interval_(interval), fn_(std::move(fn)) {
  // A zero interval would re-arm at the same instant forever.
  VDM_REQUIRE(interval_ > 0.0);
  VDM_REQUIRE(fn_ != nullptr);
  pending_ = reactor_.schedule_in(interval_, [this] {
    fn_();
    if (running_) {
      reactor_.reschedule_current_in(interval_);
    } else {
      pending_ = sim::kInvalidEvent;
    }
  });
}

PeriodicTimer::~PeriodicTimer() { stop(); }

void PeriodicTimer::stop() {
  if (!running_) return;
  running_ = false;
  if (pending_ != sim::kInvalidEvent) {
    reactor_.cancel(pending_);
    pending_ = sim::kInvalidEvent;
  }
}

}  // namespace vdm::transport
