#include "overlay/placement.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "net/coord_underlay.hpp"
#include "overlay/session.hpp"
#include "util/require.hpp"

namespace vdm::overlay {

namespace {

/// Spiral search budget: a locate never touches more cells than this before
/// giving up (the caller falls back to the source). Bounds the sparse-index
/// worst case — the first arrivals of a flash crowd spiral over a nearly
/// empty grid — at a constant, while a warm index finds a neighbor within a
/// ring or two.
constexpr std::size_t kMaxCellsScanned = 4096;

}  // namespace

void PlacementIndex::bind(const net::Underlay& underlay, net::HostId source) {
  underlay_ = &underlay;
  source_ = source;
  size_ = 0;
  const std::size_t n = underlay.num_hosts();

  const auto* coord = dynamic_cast<const net::CoordUnderlay*>(&underlay);
  grid_mode_ = coord != nullptr;
  if (grid_mode_) {
    xs_ = &coord->xs();
    ys_ = &coord->ys();
    // ~sqrt(N) cells per axis keeps expected occupancy at one member per
    // cell when everyone is attached; clamped so tiny sessions still get a
    // few cells and huge ones stay within a fixed memory budget.
    const auto dim = static_cast<std::uint32_t>(std::llround(
        std::sqrt(static_cast<double>(std::max<std::size_t>(n, 1)))));
    grid_dim_ = std::clamp<std::uint32_t>(dim, 8, 256);
    double max_x = -std::numeric_limits<double>::infinity();
    double max_y = -std::numeric_limits<double>::infinity();
    min_x_ = std::numeric_limits<double>::infinity();
    min_y_ = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      min_x_ = std::min(min_x_, (*xs_)[i]);
      min_y_ = std::min(min_y_, (*ys_)[i]);
      max_x = std::max(max_x, (*xs_)[i]);
      max_y = std::max(max_y, (*ys_)[i]);
    }
    const double range_x = max_x - min_x_;
    const double range_y = max_y - min_y_;
    inv_cell_x_ = range_x > 0.0 ? static_cast<double>(grid_dim_) / range_x : 0.0;
    inv_cell_y_ = range_y > 0.0 ? static_cast<double>(grid_dim_) / range_y : 0.0;
    cell_head_.assign(static_cast<std::size_t>(grid_dim_) * grid_dim_, kNone);
    next_.assign(n, kNone);
    prev_.assign(n, kNone);
    cell_of_.assign(n, kNone);
    return;
  }

  // Landmark mode: L anchor hosts spread over the id space (any host can
  // answer a ping whether or not it is a member), plus the rendezvous ring.
  const std::size_t l = std::min(kLandmarks, n);
  landmarks_.clear();
  for (std::size_t i = 0; i < l; ++i) {
    landmarks_.push_back(static_cast<net::HostId>((i * n) / l));
  }
  ring_host_.assign(kRingSlots, net::kInvalidHost);
  ring_vec_.assign(kRingSlots * landmarks_.size(), 0.0);
  slot_of_.assign(n, kNone);
  next_evict_ = 0;
}

std::uint32_t PlacementIndex::cell_index(net::HostId h) const {
  const double fx = ((*xs_)[h] - min_x_) * inv_cell_x_;
  const double fy = ((*ys_)[h] - min_y_) * inv_cell_y_;
  const auto cx = std::min<std::uint32_t>(
      grid_dim_ - 1, static_cast<std::uint32_t>(std::max(fx, 0.0)));
  const auto cy = std::min<std::uint32_t>(
      grid_dim_ - 1, static_cast<std::uint32_t>(std::max(fy, 0.0)));
  return cy * grid_dim_ + cx;
}

void PlacementIndex::insert(net::HostId member) {
  if (grid_mode_) {
    grid_insert(member);
  } else {
    ring_insert(member);
  }
}

void PlacementIndex::grid_insert(net::HostId member) {
  if (cell_of_[member] != kNone) return;  // already indexed
  const std::uint32_t cell = cell_index(member);
  const std::uint32_t head = cell_head_[cell];
  next_[member] = head;
  prev_[member] = kNone;
  if (head != kNone) prev_[head] = member;
  cell_head_[cell] = member;
  cell_of_[member] = cell;
  ++size_;
}

void PlacementIndex::grid_remove(net::HostId member) {
  const std::uint32_t cell = cell_of_[member];
  if (cell == kNone) return;
  const std::uint32_t nx = next_[member];
  const std::uint32_t pv = prev_[member];
  if (pv != kNone) {
    next_[pv] = nx;
  } else {
    cell_head_[cell] = nx;
  }
  if (nx != kNone) prev_[nx] = pv;
  next_[member] = kNone;
  prev_[member] = kNone;
  cell_of_[member] = kNone;
  --size_;
}

void PlacementIndex::ring_insert(net::HostId member) {
  if (slot_of_[member] != kNone) return;  // already in the rendezvous set
  const std::uint32_t slot = next_evict_;
  next_evict_ = (next_evict_ + 1) % static_cast<std::uint32_t>(kRingSlots);
  const net::HostId old = ring_host_[slot];
  if (old != net::kInvalidHost) {
    slot_of_[old] = kNone;
    --size_;
  }
  ring_host_[slot] = member;
  slot_of_[member] = slot;
  // The member's landmark-distance vector: what it measured once when it
  // joined (the measurement itself was charged to that join's probe
  // rounds); the rendezvous just remembers the numbers.
  const std::size_t l = landmarks_.size();
  for (std::size_t i = 0; i < l; ++i) {
    ring_vec_[slot * l + i] = underlay_->rtt(member, landmarks_[i]);
  }
  ++size_;
}

void PlacementIndex::ring_remove(net::HostId member) {
  const std::uint32_t slot = slot_of_[member];
  if (slot == kNone) return;
  ring_host_[slot] = net::kInvalidHost;
  slot_of_[member] = kNone;
  --size_;
}

void PlacementIndex::on_attach(HostId child, HostId /*parent*/) {
  insert(child);
}

void PlacementIndex::on_detach(HostId child, HostId /*parent*/) {
  if (grid_mode_) {
    grid_remove(child);
  } else {
    ring_remove(child);
  }
}

net::HostId PlacementIndex::grid_locate(net::HostId joiner) const {
  const std::uint32_t cell = cell_index(joiner);
  const std::int64_t cx = cell % grid_dim_;
  const std::int64_t cy = cell / grid_dim_;
  const std::int64_t dim = grid_dim_;

  net::HostId best = net::kInvalidHost;
  double best_d = std::numeric_limits<double>::infinity();
  std::size_t scanned = 0;
  std::int64_t found_ring = -1;

  auto scan_cell = [&](std::int64_t x, std::int64_t y) {
    if (x < 0 || x >= dim || y < 0 || y >= dim) return;
    ++scanned;
    for (std::uint32_t m = cell_head_[static_cast<std::size_t>(y * dim + x)];
         m != kNone; m = next_[m]) {
      if (m == joiner) continue;
      const double d = underlay_->delay(joiner, m);
      if (d < best_d || (d == best_d && m < best)) {
        best_d = d;
        best = m;
      }
    }
  };

  for (std::int64_t r = 0; r < dim; ++r) {
    if (r == 0) {
      scan_cell(cx, cy);
    } else {
      for (std::int64_t x = cx - r; x <= cx + r; ++x) {
        scan_cell(x, cy - r);
        scan_cell(x, cy + r);
      }
      for (std::int64_t y = cy - r + 1; y <= cy + r - 1; ++y) {
        scan_cell(cx - r, y);
        scan_cell(cx + r, y);
      }
    }
    if (best != net::kInvalidHost) {
      // A Chebyshev ring is not a metric ball: scan one more ring so a
      // just-over-the-boundary neighbor can still win, then stop.
      if (found_ring < 0) found_ring = r;
      if (r >= found_ring + 1) break;
    } else if (scanned >= kMaxCellsScanned) {
      break;  // sparse index — the caller falls back to the source
    }
  }
  return best;
}

net::HostId PlacementIndex::locate(net::HostId joiner, Session& session,
                                   OpStats& stats) {
  VDM_REQUIRE_MSG(bound(), "placement index used before bind()");
  const Membership& tree = session.tree();
  // Only attached members (or the root) make useful entry nodes; an alive
  // but detached orphan mid-reconnection would start the walk in a dangling
  // fragment.
  if (grid_mode_) {
    const net::HostId found = grid_locate(joiner);
    return found != net::kInvalidHost && tree.attached(found, source_)
               ? found
               : net::kInvalidHost;
  }

  if (size_ == 0 || landmarks_.empty()) return net::kInvalidHost;
  // The joiner measures its own landmark vector — a real probe round,
  // charged like any other.
  session.measure_parallel(joiner, landmarks_, joiner_vec_, stats);
  const std::size_t l = landmarks_.size();
  net::HostId best = net::kInvalidHost;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (std::size_t slot = 0; slot < ring_host_.size(); ++slot) {
    const net::HostId m = ring_host_[slot];
    if (m == net::kInvalidHost || m == joiner || !tree.attached(m, source_)) {
      continue;
    }
    double d2 = 0.0;
    for (std::size_t i = 0; i < l; ++i) {
      const double diff = joiner_vec_[i] - ring_vec_[slot * l + i];
      d2 += diff * diff;
    }
    if (d2 < best_d2 || (d2 == best_d2 && m < best)) {
      best_d2 = d2;
      best = m;
    }
  }
  return best;
}

std::size_t PlacementIndex::capacity_bytes() const {
  return (cell_head_.capacity() + next_.capacity() + prev_.capacity() +
          cell_of_.capacity() + slot_of_.capacity()) *
             sizeof(std::uint32_t) +
         (landmarks_.capacity() + ring_host_.capacity()) * sizeof(net::HostId) +
         (ring_vec_.capacity() + joiner_vec_.capacity()) * sizeof(double);
}

}  // namespace vdm::overlay
