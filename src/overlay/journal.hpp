#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

#include "net/types.hpp"
#include "overlay/membership.hpp"
#include "sim/reactor.hpp"

namespace vdm::overlay {

/// One tree mutation as a MembershipJournal records it.
struct JournalRow {
  enum class Kind : std::uint8_t { kAttach, kDetach };
  sim::Time t = 0.0;
  Kind kind = Kind::kAttach;
  net::HostId child = net::kInvalidHost;
  net::HostId parent = net::kInvalidHost;
};

/// Records every attach and detach of one run, in the order the tree made
/// them, with the simulated time of each: what moved, and when, once a
/// golden moves. Session forwards each mutation to it beside the placement
/// index (Session::set_observer); recording reads the clock and nothing
/// else, so a run with a journal is bit-identical to one without.
///
/// A journal keeps the first run it is started for and ignores later ones,
/// so a sweep that installs one journal in every seed (RunConfig::journal)
/// records its first seed.
class MembershipJournal final : public MembershipObserver {
 public:
  /// Begins recording a run whose times `clock` reports, unless an earlier
  /// run has been started.
  void start(const sim::Reactor& clock);

  void on_attach(net::HostId child, net::HostId parent) override;
  void on_detach(net::HostId child, net::HostId parent) override;

  const std::vector<JournalRow>& rows() const { return rows_; }

  /// Writes a `t,event,child,parent` header and one line per row, the time
  /// in hexfloat and the event `attach` or `detach`.
  void write_csv(std::ostream& out) const;

 private:
  void record(JournalRow::Kind kind, net::HostId child, net::HostId parent);

  const sim::Reactor* clock_ = nullptr;
  bool started_ = false;
  std::vector<JournalRow> rows_;
};

}  // namespace vdm::overlay
