#pragma once

#include <cstdint>
#include <vector>

#include "net/underlay.hpp"
#include "overlay/membership.hpp"
#include "overlay/protocol.hpp"

namespace vdm::overlay {

class Session;

/// The locating-first placement index: given a joiner, names an attached
/// member close to it so the protocol walk starts deep in the tree instead
/// of at the source — O(1) placement plus a short local walk instead of
/// O(depth) probe rounds from the root (cs/0605080's locate-then-walk
/// split; arXiv:1009.0862's observation that coordinates alone suffice for
/// the placement step).
///
/// Two modes, chosen automatically from the underlay at bind():
///  * Coordinate grid (CoordUnderlay): attached members are binned into a
///    ~sqrt(N) x sqrt(N) grid over the session's coordinate bounding box
///    (intrusive doubly-linked cell lists — O(1) attach/detach, zero
///    steady-state allocation). locate() spirals outward over Chebyshev
///    rings from the joiner's cell and picks the candidate with the
///    smallest underlay delay (host id breaks ties), scanning one ring past
///    the first hit so near-boundary neighbors are not missed.
///  * Landmark vectors (graph/matrix substrates, where no coordinates
///    exist): a fixed set of L landmark hosts plus a rendezvous ring of the
///    K most recent attaches, each remembered with its landmark-distance
///    vector (the vector a real member measures once when it joins).
///    locate() probes the L landmarks from the joiner — charged to the join
///    like any probe round — and returns the ring entry with the smallest
///    L2 distance in landmark space.
///
/// The index tracks the tree incrementally as a MembershipObserver: every
/// attach inserts (or refreshes) the member, every detach removes it, so
/// churn keeps the rendezvous set current without rescans. Determinism:
/// updates are driven by tree mutations and lookups scan in fixed order
/// with total tie-breaks, so placement is a pure function of the run
/// history.
///
/// All storage is capacity-preserving across bind() calls; the index rides
/// Session::Scratch, so a RunScratch carries it through consecutive runs
/// with the tree and the walk buffers.
class PlacementIndex final : public MembershipObserver {
 public:
  /// Rebinds the index to a session's underlay, empty. Detects the
  /// coordinate substrate by type; everything else uses landmark mode.
  void bind(const net::Underlay& underlay, net::HostId source);

  /// Inserts an attached member directly (the session adds the source at
  /// start(); everything else arrives via on_attach).
  void insert(net::HostId member);

  /// The attached member closest to `joiner`, or kInvalidHost when the
  /// index is empty. Landmark mode probes the landmarks through the
  /// session's measurement plane, charging `stats` like any probe round;
  /// coordinate mode is pure arithmetic (the joiner knows its own
  /// coordinates).
  net::HostId locate(net::HostId joiner, Session& session, OpStats& stats);

  void on_attach(HostId child, HostId parent) override;
  void on_detach(HostId child, HostId parent) override;

  bool bound() const { return underlay_ != nullptr; }
  std::size_t size() const { return size_; }

  /// Heap bytes reserved (RunScratch arena accounting).
  std::size_t capacity_bytes() const;

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  /// Landmark-mode shape: L anchors, a ring of the K latest attaches.
  static constexpr std::size_t kLandmarks = 8;
  static constexpr std::size_t kRingSlots = 64;

  void grid_insert(net::HostId member);
  void grid_remove(net::HostId member);
  net::HostId grid_locate(net::HostId joiner) const;
  std::uint32_t cell_index(net::HostId h) const;

  void ring_insert(net::HostId member);
  void ring_remove(net::HostId member);

  const net::Underlay* underlay_ = nullptr;
  net::HostId source_ = net::kInvalidHost;
  std::size_t size_ = 0;

  // --- coordinate-grid mode ----------------------------------------------
  bool grid_mode_ = false;
  const std::vector<double>* xs_ = nullptr;
  const std::vector<double>* ys_ = nullptr;
  std::uint32_t grid_dim_ = 0;
  double min_x_ = 0.0, min_y_ = 0.0;
  double inv_cell_x_ = 0.0, inv_cell_y_ = 0.0;
  /// Head of each cell's intrusive member list.
  std::vector<std::uint32_t> cell_head_;
  /// Per-host intrusive links + containing cell (kNone = not in the index).
  std::vector<std::uint32_t> next_, prev_, cell_of_;

  // --- landmark mode ------------------------------------------------------
  std::vector<net::HostId> landmarks_;
  /// Rendezvous ring: K slots of (host, landmark vector), evicted
  /// round-robin. slot_of_ maps host -> slot (kNone = absent).
  std::vector<net::HostId> ring_host_;
  std::vector<double> ring_vec_;  // kRingSlots x L, row per slot
  std::vector<std::uint32_t> slot_of_;
  std::uint32_t next_evict_ = 0;

  /// locate() scratch (landmark probe targets and the joiner's vector).
  std::vector<double> joiner_vec_;
};

}  // namespace vdm::overlay
