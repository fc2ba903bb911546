#pragma once

#include "sim/time.hpp"

namespace vdm::sim {

/// Retransmission schedule of a request/reply exchange over a lossy
/// channel: the first attempt waits `timeout`, each retry waits the
/// previous wait times `backoff_factor`, capped at `timeout_max`, for at
/// most `max_retries` retries after the first attempt. The simulator
/// charges it (overlay::FaultParams::retry) and vdmd waits it out for real
/// (transport::RetrySender, transport::UdpReactor::exchange).
struct RetryPolicy {
  Time timeout = 0.25;
  double backoff_factor = 2.0;
  Time timeout_max = 4.0;
  int max_retries = 8;

  Time next_timeout(Time current) const {
    const Time t = current * backoff_factor;
    return t < timeout_max ? t : timeout_max;
  }
};

}  // namespace vdm::sim
