#include "transport/transport.hpp"

#include "util/require.hpp"

namespace vdm::transport {

PeriodicTimer::PeriodicTimer(sim::Reactor& reactor, sim::Time interval,
                             sim::InlineFn fn)
    : reactor_(reactor), interval_(interval), fn_(std::move(fn)) {
  // A zero interval would re-arm at the same instant forever.
  VDM_REQUIRE(interval_ > 0.0);
  VDM_REQUIRE(fn_ != nullptr);
  // Not schedule_every from here: UdpReactor counts a periodic timer's
  // first period from its timer clock, which lags now() after I/O-only
  // waits, and would fire the lagging ticks in a burst. Inside the first
  // tick the timer clock is that tick's deadline.
  pending_ = reactor_.schedule_in(interval_, [this] {
    fn_();
    // A stop() inside the tick has cleared pending_ and arms nothing.
    if (running_) {
      pending_ = reactor_.schedule_every(interval_, [this] { fn_(); });
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
