#pragma once

#include <memory>

#include "overlay/protocol.hpp"
#include "overlay/walk.hpp"
#include "sim/time.hpp"

namespace vdm::core {

/// Configuration of the VDM protocol.
struct VdmConfig {
  /// Directionality margin passed to classify_direction().
  double epsilon_rel = 0.0;
  /// Case II sanity rule: the longest-side test alone also fires Case II
  /// for triples where the newcomer sits almost on top of the child
  /// (d_np ~ d_pc >> d_nc) — real RTT triples are not 1-D, §3.1.2. Splicing
  /// there parks the newcomer high in the tree on a long edge. When
  /// d_np > case2_descend_ratio * d_nc, the child is treated as a Case III
  /// direction instead (descend towards it). Disabled (0) by default — the
  /// paper's rule is the pure longest-side test; the ablation bench sweeps
  /// this knob.
  double case2_descend_ratio = 0.0;
  /// Periodic refinement (the optional VDM-R component of §3.4/§5.4.5):
  /// each member re-runs the join search from the source and switches
  /// parents if a different one is found.
  bool refinement = false;
  sim::Time refinement_period = sim::minutes(3);
};

/// Virtual Direction Multicast — the paper's contribution.
///
/// Join walks the tree from the source: at each node it probes the node and
/// its children, classifies every (node, child, newcomer) triple with the
/// directionality rule, then
///   * descends through the closest Case III child (Case III beats Case II,
///     §3.2 "If we find CaseII and CaseIII together, we continue with
///     CaseIII"),
///   * or splices in on Case II — the newcomer takes the child's slot under
///     the node and adopts every Case II child its own degree allows,
///     updating the grandchildren's grandparent pointers,
///   * or, with no directional child (Case I everywhere), attaches to the
///     node itself if it has a free slot, else to its closest child with a
///     free slot, else keeps descending through the closest child.
///
/// Reconnection is the same search started at the orphan's grandparent
/// (Session handles that), and refinement re-runs the search from the
/// source on a timer.
class VdmProtocol final : public overlay::Protocol {
 public:
  explicit VdmProtocol(const VdmConfig& config = {});

  std::string_view name() const override { return "VDM"; }

  /// Refinement re-runs the join walk from the source: the same parent
  /// refreshes its stored distance, a different one is switched to.
  overlay::OpStats execute_refine(overlay::Session& session,
                                  net::HostId node) override;

  bool wants_refinement() const override { return config_.refinement; }
  sim::Time refinement_period() const override { return config_.refinement_period; }

  /// The VDM step policy plus the splice commit, which re-validates Case II
  /// adoptions against the current tree (in a concurrent drain another
  /// walker's splice may have re-parented a candidate since the stop
  /// decision) and fails — retrying the walk — when every adoption went
  /// stale and the parent has no free slot left.
  overlay::PipelineSupport* pipeline_support() override { return pipeline_.get(); }

  const VdmConfig& config() const { return config_; }

 private:
  VdmConfig config_;
  /// Built with the protocol; it holds a reference to the config above.
  std::unique_ptr<overlay::PipelineSupport> pipeline_;
};

}  // namespace vdm::core
