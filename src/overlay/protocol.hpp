#pragma once

#include <string_view>

#include "net/types.hpp"
#include "sim/time.hpp"

namespace vdm::overlay {

class Session;
class WalkObserver;
class PipelineSupport;

/// Cost/latency ledger of one protocol operation (join, reconnect, refine).
/// Protocols accumulate into it through Session's measurement/messaging
/// primitives; the session turns `elapsed` into startup / reconnection time
/// and outage intervals, and `messages` into the overhead metric.
struct OpStats {
  int messages = 0;
  sim::Time elapsed = 0.0;
  int iterations = 0;
  bool parent_changed = false;

  OpStats& operator+=(const OpStats& o) {
    messages += o.messages;
    elapsed += o.elapsed;
    iterations += o.iterations;
    parent_changed = parent_changed || o.parent_changed;
    return *this;
  }
};

/// An overlay multicast tree-construction protocol (VDM, HMTP, ...).
///
/// The session owns membership, timing, churn and the data plane; the
/// protocol only decides *where a node attaches*. All three operations run
/// against the current tree and mutate it through Session/Membership
/// primitives, charging their message and latency costs into the returned
/// OpStats.
class Protocol {
 public:
  virtual ~Protocol() = default;

  virtual std::string_view name() const = 0;

  /// Finds a parent for `joiner` (alive, detached) starting the search at
  /// `start`, and attaches it (including any restructuring such as VDM's
  /// Case II splice). Must leave the tree valid. The default is the one
  /// sequential walk-and-attach: pipeline_support()'s step policy runs once
  /// (TreeWalk::run), then commits through that same support. Override only
  /// to attach some other way (HMTP's foster-child quick start).
  virtual OpStats execute_join(Session& session, net::HostId joiner,
                               net::HostId start);

  /// One refinement round for `node`: re-evaluate its attachment point and
  /// switch parents if the protocol finds a better one (make-before-break,
  /// so no data outage). Default: protocols without refinement do nothing.
  virtual OpStats execute_refine(Session& session, net::HostId node);

  /// Whether the session should arm periodic refinement timers, and how
  /// often they fire.
  virtual bool wants_refinement() const { return false; }
  virtual sim::Time refinement_period() const { return sim::minutes(3); }

  /// Installs (or clears, with nullptr) a tracing observer that every
  /// TreeWalk this protocol runs reports its per-iteration steps to. The
  /// observer must outlive the protocol's use of it.
  void set_walk_observer(WalkObserver* observer) { walk_observer_ = observer; }

  /// Passed to TreeWalk by the protocol's walk call sites (and by the
  /// session's concurrent-join drain); null when unset.
  WalkObserver* walk_observer() const { return walk_observer_; }

  /// The protocol's step policy and attach (see overlay/walk.hpp), which
  /// the default execute_join and the concurrent drain both run. Null means
  /// the protocol overrides execute_join with a walk of its own, and
  /// Session rejects join_mode == kConcurrent for it.
  virtual PipelineSupport* pipeline_support() { return nullptr; }

 private:
  WalkObserver* walk_observer_ = nullptr;
};

}  // namespace vdm::overlay
