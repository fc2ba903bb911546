#pragma once

#include <vector>

#include "net/underlay.hpp"

namespace vdm::net {

/// Underlay given directly as symmetric host-to-host delay and loss
/// matrices — the PlanetLab-style substrate where only end-to-end paths are
/// observable. Each unordered host pair is exposed as one pseudo-link, so
/// "network usage" (sum of used virtual-link latencies, §5.3 of the paper)
/// falls out of the same accounting as stress does on a router graph.
///
/// delay()/loss() are already O(1) matrix reads (this substrate is given
/// the full host-pair table that GraphUnderlay derives from its routes);
/// the fast-path work here is the allocation-free pseudo-link visitor and
/// an O(log n) link -> pair inversion via precomputed triangle row offsets.
class MatrixUnderlay final : public Underlay {
 public:
  /// `delay` must be an n*n row-major matrix of one-way delays with a zero
  /// diagonal and positive symmetric off-diagonal entries. `loss` (same
  /// shape, probabilities in [0,1)) may be empty for a loss-free network.
  MatrixUnderlay(std::size_t n, std::vector<double> delay, std::vector<double> loss = {});

  std::size_t num_hosts() const override { return n_; }
  sim::Time delay(HostId a, HostId b) const override { return delay_[idx(a, b)]; }
  double loss(HostId a, HostId b) const override {
    return loss_.empty() ? 0.0 : loss_[idx(a, b)];
  }
  std::vector<LinkId> path(HostId a, HostId b) const override;
  void for_each_path_link(HostId a, HostId b,
                          util::FunctionRef<void(LinkId)> visit) const override;
  double link_delay(LinkId link) const override;
  std::size_t num_links() const override { return n_ * (n_ - 1) / 2; }
  /// Plain reads of immutable matrices: safe from any number of threads.
  bool concurrent_reads() const override { return true; }
  bool zero_loss() const override { return loss_.empty(); }

  /// Pseudo-link id of the unordered pair {a, b}, a != b.
  LinkId pair_link(HostId a, HostId b) const;

  // ------------------------------------------------------------ arena reuse
  /// Moves the matrices out so a generator can refill the same storage;
  /// queries are invalid until rebind() seats new matrices.
  void release(std::vector<double>& delay_out, std::vector<double>& loss_out);

  /// Seats freshly filled matrices (same contract as the constructor),
  /// keeping the row-offset buffer's capacity.
  void rebind(std::size_t n, std::vector<double> delay, std::vector<double> loss);

  /// Heap bytes reserved by the matrices and the row-offset index.
  std::size_t arena_capacity_bytes() const {
    return (delay_.capacity() + loss_.capacity()) * sizeof(double) +
           row_start_.capacity() * sizeof(std::size_t);
  }

 private:
  void validate_and_index();

  std::size_t idx(HostId a, HostId b) const { return static_cast<std::size_t>(a) * n_ + b; }

  std::size_t n_;
  std::vector<double> delay_;
  std::vector<double> loss_;
  /// row_start_[a] = pseudo-link id of pair {a, a+1}; row_start_[n-1] =
  /// num_links() sentinel. Lets link_delay invert pair_link by binary search.
  std::vector<std::size_t> row_start_;
};

}  // namespace vdm::net
