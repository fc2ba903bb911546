#pragma once

#include <vector>

#include "net/types.hpp"
#include "sim/time.hpp"

namespace vdm::overlay {

using net::HostId;
using net::kInvalidHost;

/// Per-member overlay state: exactly what a VDM/HMTP peer stores — its
/// parent, grandparent, children and the measured virtual distance to each
/// child (§3.2: "Each node has children list and distances to them. They
/// also know their parent and grandparent.").
///
/// This struct is tree structure only. The data-plane flood fields that
/// used to lead it (receiving_since, uplink-loss memo, chunk counters) live
/// in Membership's FloodTable as parallel per-host arrays instead: the
/// chunk flood, heartbeat sweeps and TreeWalk child enumeration then stream
/// contiguous cache lines rather than chasing 100k+ scattered MemberStates,
/// and MemberState itself shrinks to about one cache line.
struct MemberState {
  std::vector<HostId> children;
  /// Virtual distance to children[i] as measured when it connected (the
  /// state a parent reports in info responses). Parallel to `children`;
  /// with degree limits of 2..5 a linear scan beats any map, and the
  /// vector's capacity survives churn where a node-based map's does not.
  std::vector<double> child_dists;

  HostId parent = kInvalidHost;
  HostId grandparent = kInvalidHost;
  bool alive = false;
  /// Maximum number of children this node will feed (uplink capacity).
  int degree_limit = 0;

  /// Number of overlay links this member currently holds: its children plus
  /// its own uplink. DESIGN.md invariant 2 bounds *links*, not children —
  /// an interior node's uplink consumes one unit of its capacity, so a node
  /// with limit L can feed at most L-1 children (the root, having no
  /// parent link, can feed L).
  int overlay_links() const {
    return static_cast<int>(children.size()) + (parent != kInvalidHost ? 1 : 0);
  }
  bool has_free_degree() const { return overlay_links() < degree_limit; }
  bool is_root() const { return alive && parent == kInvalidHost; }
};

/// Data-plane member state in struct-of-arrays layout, indexed by host.
/// On a lossy underlay every chunk scans the session's cached visit order
/// (Session::FloodOrder) and reads receiving_since, in_session_since and
/// missed for each entry's child, so each field is its own contiguous array
/// instead of a field of a scattered member struct; the uplink-loss memo is
/// read only when that order is rebuilt after a tree change. On a lossless
/// underlay a chunk reads these only for members in a handshake or a
/// crash-orphan subtree.
struct FloodTable {
  /// Marks a member that has not entered the in-session count this stint.
  static constexpr std::uint32_t kNotInSession = ~std::uint32_t{0};

  /// When the member (re)gained a working path to the source. Data chunks
  /// arriving earlier are not deliverable to it (join/reconnect outage).
  std::vector<sim::Time> receiving_since;
  /// When the member first completed its initial join of the current stint
  /// (chunks are *expected* from this point; see the loss metric).
  std::vector<sim::Time> in_session_since;
  /// Memoized drop probability of the uplink from uplink_loss_parent[h],
  /// refreshed when a rebuild of the flood's visit order finds a different
  /// parent; sound because the underlay is immutable once a session streams.
  std::vector<double> uplink_loss;
  std::vector<HostId> uplink_loss_parent;
  /// Per-member chunk accounting (Session::member_chunks): the session's
  /// emitted-chunk count just before the chunk that entered the member into
  /// the in-session count (kNotInSession until then), and the chunks it has
  /// missed since. 32-bit: even day-long sessions emit far fewer than 4G
  /// chunks per member.
  std::vector<std::uint32_t> in_session_at;
  std::vector<std::uint32_t> missed;
  /// Per-chunk memo of the lossless count's root-path check: the chunk's
  /// stamp with the low bit set when the chunk reaches the member.
  std::vector<std::uint32_t> reach_stamp;
  /// 1 while the member sits on the session's handshake list.
  std::vector<std::uint8_t> listed;

  /// Sizes every array to `n` hosts and zeroes it (capacity kept).
  void assign(std::size_t n);
  /// Resets host `h` to the just-activated state.
  void reset_host(HostId h);
  std::size_t capacity_bytes() const;
};

/// Observes tree mutations. The placement index (overlay/placement.hpp)
/// keeps its nearest-neighbor structures current by watching every attach
/// and detach instead of rescanning the membership; any other incremental
/// index can hook in the same way. Callbacks fire after an attach completes
/// and before a detach mutates anything, so the observer always sees a
/// consistent tree.
class MembershipObserver {
 public:
  virtual ~MembershipObserver() = default;
  virtual void on_attach(HostId child, HostId parent) = 0;
  virtual void on_detach(HostId child, HostId parent) = 0;
};

/// The overlay tree: owns all MemberStates and keeps parent / child /
/// grandparent pointers mutually consistent through every mutation.
///
/// Protocols express their decisions exclusively through attach / detach /
/// move_child, so structural invariants (single parent, degree bounds,
/// acyclicity) are enforced in one place and are cheap to audit (validate()).
class Membership {
 public:
  explicit Membership(std::size_t num_hosts) { reset(num_hosts); }

  /// Rebinds the tree to `num_hosts` hosts with every member detached and
  /// dead, reusing all existing storage (member slots, children capacity,
  /// flood arrays). A reset Membership is observably identical to a freshly
  /// constructed one — this is what lets a RunScratch shuttle one tree
  /// through consecutive runs with zero steady-state allocations.
  void reset(std::size_t num_hosts);

  std::size_t num_hosts() const { return num_hosts_; }
  const MemberState& member(HostId h) const { return members_.at(h); }

  /// Bounds-unchecked accessor for per-edge hot loops (the data-plane
  /// chunk walks); callers guarantee h < num_hosts().
  const MemberState& member_unchecked(HostId h) const { return members_[h]; }

  /// Moves whenever an edge or a child's place among its siblings may have
  /// changed: every attach, detach, deactivate and reset bumps it, and
  /// nothing else can reach a children list. A view built from the tree's
  /// shape (the session's lossy-flood visit order) is current while this
  /// still reads the value it was built at. Never decreases, across resets
  /// too.
  std::uint64_t shape_version() const { return shape_version_; }

  /// The SoA data-plane state (see FloodTable). Arrays are indexed by host
  /// and sized num_hosts().
  FloodTable& flood() { return flood_; }
  const FloodTable& flood() const { return flood_; }

  /// Marks `h` alive with the given child capacity; it joins detached.
  void activate(HostId h, int degree_limit);

  /// Marks `h` dead and detaches it from parent and children. Children are
  /// left orphaned (parent = invalid) for the protocol to reconnect.
  /// Returns the orphaned children.
  std::vector<HostId> deactivate(HostId h);

  /// Allocation-free variant: the orphans land in `orphans_out` (cleared
  /// first) — the per-departure call sites reuse one scratch buffer.
  void deactivate(HostId h, std::vector<HostId>& orphans_out);

  /// Connects `child` (alive, currently detached) under `parent` (alive,
  /// with free degree unless `allow_full`). Records the measured virtual
  /// distance and refreshes grandparent pointers of `child`'s children.
  void attach(HostId child, HostId parent, double measured_dist,
              bool allow_full = false);

  /// Disconnects `child` from its parent (keeps it alive and keeps its own
  /// subtree intact).
  void detach(HostId child);

  /// Re-parents `child` from its current parent to `new_parent`
  /// (the Case II "parent change" message). Equivalent to detach + attach.
  void move_child(HostId child, HostId new_parent, double measured_dist,
                  bool allow_full = false);

  /// Distance parent -> child as stored at the parent; requires the edge.
  double stored_child_distance(HostId parent, HostId child) const;

  /// Refreshes the stored distance of an existing edge (a re-measurement
  /// during refinement that kept the same parent must not leave the old
  /// value behind — later directionality classifications read it).
  void update_child_distance(HostId parent, HostId child, double measured_dist);

  /// True if `root`'s subtree (excluding `exclude` and everything below it)
  /// contains a member that can still accept a child. O(1) whenever no
  /// degree-limit-1 member is alive: such members are the only possible
  /// saturated leaves, and every subtree bottoms out in leaves, so capacity
  /// is otherwise guaranteed. Protocol searches use this to avoid
  /// descending into a subtree with no attachment point.
  bool subtree_has_capacity(HostId root, HostId exclude = kInvalidHost) const;

  /// True if `h` hangs under a parent or is the session root `source`. Only
  /// such a member counts its links right: a detached one (a crash orphan
  /// awaiting its verdict) reports the slot its uplink will retake as free.
  /// Walks must not start at a detached member.
  bool attached(HostId h, HostId source) const {
    return h == source || member(h).parent != kInvalidHost;
  }

  /// True if `ancestor` appears on `node`'s root path (or equals it).
  bool is_ancestor(HostId ancestor, HostId node) const;

  /// Root path of `node` starting at its parent, ending at the tree root.
  std::vector<HostId> root_path(HostId node) const;

  /// Overlay hop count from `node` up to the root of its fragment (0 for a
  /// fragment root, including a detached member). Use is_ancestor(source,
  /// node) to check whether the fragment is the source's tree.
  std::size_t depth(HostId node) const;

  /// All alive members (connected or not).
  std::vector<HostId> alive_members() const;

  /// Count of alive members, maintained incrementally (no scan, no alloc).
  std::size_t alive_count() const { return alive_count_; }

  /// Registers the single mutation observer (nullptr to clear). Not owned.
  void set_observer(MembershipObserver* observer) { observer_ = observer; }

  /// Members reachable from `root` through parent pointers, including root.
  std::vector<HostId> subtree(HostId root) const;

  /// Heap bytes reserved by member slots, children lists and flood arrays
  /// (RunScratch arena accounting).
  std::size_t capacity_bytes() const;

  /// Throws InvariantError if any structural invariant is violated:
  /// consistent parent/child pointers, degree bounds, no cycles,
  /// grandparent pointers correct, distances stored for every edge.
  void validate() const;

 private:
  void refresh_grandparent_of_children(HostId node);
  /// Index of `child` in `parent`'s children list; throws if absent.
  std::size_t child_index(const MemberState& pm, HostId child) const;

  /// May exceed num_hosts_ after a reset to a smaller pool: slots keep
  /// their children capacity for the next large run instead of being
  /// destroyed. Only [0, num_hosts_) is addressable through the API.
  std::vector<MemberState> members_;
  FloodTable flood_;
  std::size_t num_hosts_ = 0;
  std::size_t alive_count_ = 0;
  std::uint64_t shape_version_ = 0;
  MembershipObserver* observer_ = nullptr;
  /// DFS scratch for subtree_has_capacity(); member state (not a local) so
  /// the saturated-descent checks stay allocation-free in steady state.
  mutable std::vector<HostId> capacity_stack_;
  /// Count of alive members with degree_limit == 1. Such members are the
  /// only ones that can be saturated leaves (limit >= 2 leaves always have
  /// a free slot), so subtree_has_capacity() short-circuits to true while
  /// this is zero — the common configuration.
  int limit1_alive_ = 0;
};

}  // namespace vdm::overlay
