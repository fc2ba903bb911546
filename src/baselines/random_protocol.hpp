#pragma once

#include <memory>

#include "overlay/protocol.hpp"
#include "overlay/walk.hpp"

namespace vdm::baselines {

/// Naive baseline: attach to a uniformly random member with a free slot
/// (found by a random walk down the tree, charging realistic message
/// costs). Represents an overlay with no locality awareness at all; used in
/// tests and as the lower bound in ablation benches.
class RandomProtocol final : public overlay::Protocol {
 public:
  RandomProtocol();

  std::string_view name() const override { return "Random"; }

  overlay::PipelineSupport* pipeline_support() override { return pipeline_.get(); }

 private:
  std::unique_ptr<overlay::PipelineSupport> pipeline_;
};

}  // namespace vdm::baselines
