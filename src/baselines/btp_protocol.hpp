#pragma once

#include <memory>

#include "overlay/protocol.hpp"
#include "overlay/walk.hpp"
#include "sim/time.hpp"

namespace vdm::baselines {

/// Configuration of the BTP baseline.
struct BtpConfig {
  /// Sibling-switch refinement period. BTP's tree quality comes entirely
  /// from these incremental switches, so it defaults on.
  bool refinement = true;
  sim::Time refinement_period = sim::seconds(30);
  /// Required relative improvement before a sibling switch fires.
  double switch_margin = 0.05;
};

/// Banana Tree Protocol (Helder & Jamin), the simplest tree-based ALM the
/// dissertation surveys (§2.4.6): a newcomer connects directly to the root
/// and later performs *sibling switches* — re-parenting under a sibling
/// that is closer than the current parent (Figure 2.7). Loops are
/// impossible because a sibling is never a descendant.
///
/// BTP is the "no search at all" end of the design space: joins are O(1)
/// messages (fastest possible startup) and all locality is discovered by
/// refinement afterwards — the opposite trade to VDM's search-heavy,
/// refinement-free join.
class BtpProtocol final : public overlay::Protocol {
 public:
  explicit BtpProtocol(const BtpConfig& config = {});

  std::string_view name() const override { return "BTP"; }

  overlay::OpStats execute_refine(overlay::Session& session,
                                  net::HostId node) override;

  bool wants_refinement() const override { return config_.refinement; }
  sim::Time refinement_period() const override { return config_.refinement_period; }

  overlay::PipelineSupport* pipeline_support() override { return pipeline_.get(); }

  const BtpConfig& config() const { return config_; }

 private:
  BtpConfig config_;
  std::unique_ptr<overlay::PipelineSupport> pipeline_;
};

}  // namespace vdm::baselines
