#include "overlay/membership.hpp"

#include <algorithm>
#include <limits>

#include "util/require.hpp"

namespace vdm::overlay {

void FloodTable::assign(std::size_t n) {
  receiving_since.assign(n, 0.0);
  in_session_since.assign(n, 0.0);
  uplink_loss.assign(n, 0.0);
  uplink_loss_parent.assign(n, kInvalidHost);
  in_session_at.assign(n, kNotInSession);
  missed.assign(n, 0);
  reach_stamp.assign(n, 0);
  listed.assign(n, 0);
}

void FloodTable::reset_host(HostId h) {
  receiving_since[h] = 0.0;
  in_session_since[h] = 0.0;
  uplink_loss[h] = 0.0;
  uplink_loss_parent[h] = kInvalidHost;
  in_session_at[h] = kNotInSession;
  missed[h] = 0;
}

std::size_t FloodTable::capacity_bytes() const {
  return (receiving_since.capacity() + in_session_since.capacity() +
          uplink_loss.capacity()) *
             sizeof(double) +
         uplink_loss_parent.capacity() * sizeof(HostId) +
         (in_session_at.capacity() + missed.capacity() +
          reach_stamp.capacity()) *
             sizeof(std::uint32_t) +
         listed.capacity();
}

void Membership::reset(std::size_t num_hosts) {
  if (members_.size() < num_hosts) members_.resize(num_hosts);
  // Clear every slot ever used (not just the new range): a slot beyond the
  // new pool must not resurface alive when a later reset grows again.
  // clear() keeps each children list's capacity — the whole point.
  for (MemberState& m : members_) {
    m.children.clear();
    m.child_dists.clear();
    m.parent = kInvalidHost;
    m.grandparent = kInvalidHost;
    m.alive = false;
    m.degree_limit = 0;
  }
  flood_.assign(num_hosts);
  num_hosts_ = num_hosts;
  ++shape_version_;
  limit1_alive_ = 0;
  alive_count_ = 0;
  // The observer is bound per run (it indexes one session's tree); a reset
  // tree must not keep notifying a structure from the previous run.
  observer_ = nullptr;
}

void Membership::activate(HostId h, int degree_limit) {
  VDM_REQUIRE(h < num_hosts_);
  MemberState& m = members_.at(h);
  VDM_REQUIRE_MSG(!m.alive, "activate() on a member that is already alive");
  VDM_REQUIRE_MSG(degree_limit >= 1, "paper assumes degree limit >= 1");
  // In-place reset (not `m = MemberState{}`): keeps the children list's
  // capacity, so a host that churns in and out re-joins allocation-free.
  m.children.clear();
  m.child_dists.clear();
  m.parent = kInvalidHost;
  m.grandparent = kInvalidHost;
  m.alive = true;
  m.degree_limit = degree_limit;
  flood_.reset_host(h);
  if (degree_limit == 1) ++limit1_alive_;
  ++alive_count_;
}

std::vector<HostId> Membership::deactivate(HostId h) {
  std::vector<HostId> orphans;
  deactivate(h, orphans);
  return orphans;
}

void Membership::deactivate(HostId h, std::vector<HostId>& orphans_out) {
  MemberState& m = members_.at(h);
  VDM_REQUIRE(m.alive);
  if (m.parent != kInvalidHost) detach(h);
  orphans_out.clear();
  orphans_out.insert(orphans_out.end(), m.children.begin(), m.children.end());
  for (const HostId c : orphans_out) {
    MemberState& cm = members_.at(c);
    cm.parent = kInvalidHost;
    // The orphan remembers its grandparent: that is where reconnection
    // starts (§3.3). Do not clear cm.grandparent here.
  }
  m.children.clear();
  m.child_dists.clear();
  m.alive = false;
  ++shape_version_;
  if (m.degree_limit == 1) --limit1_alive_;
  --alive_count_;
}

void Membership::attach(HostId child, HostId parent, double measured_dist,
                        bool allow_full) {
  VDM_REQUIRE(child != parent);
  MemberState& cm = members_.at(child);
  MemberState& pm = members_.at(parent);
  VDM_REQUIRE_MSG(cm.alive && pm.alive, "attach endpoints must be alive");
  VDM_REQUIRE_MSG(cm.parent == kInvalidHost, "child already has a parent");
  VDM_REQUIRE_MSG(allow_full || pm.has_free_degree(), "parent is at degree limit");
  VDM_REQUIRE_MSG(!is_ancestor(child, parent),
                  "attaching under a descendant would create a cycle");
  VDM_REQUIRE(measured_dist >= 0.0);

  pm.children.push_back(child);
  pm.child_dists.push_back(measured_dist);
  cm.parent = parent;
  cm.grandparent = pm.parent;
  refresh_grandparent_of_children(child);
  ++shape_version_;
  if (observer_ != nullptr) observer_->on_attach(child, parent);
}

void Membership::detach(HostId child) {
  MemberState& cm = members_.at(child);
  VDM_REQUIRE(cm.parent != kInvalidHost);
  if (observer_ != nullptr) observer_->on_detach(child, cm.parent);
  MemberState& pm = members_.at(cm.parent);
  const auto it = std::find(pm.children.begin(), pm.children.end(), child);
  VDM_REQUIRE_MSG(it != pm.children.end(), "parent/child pointers out of sync");
  // Order-preserving erase of both parallel entries: sibling order is part
  // of the determinism contract (orphans reconnect in child order).
  pm.child_dists.erase(pm.child_dists.begin() + (it - pm.children.begin()));
  pm.children.erase(it);
  cm.parent = kInvalidHost;
  cm.grandparent = kInvalidHost;
  ++shape_version_;
  // Children of `child` now have a detached parent; their grandparent
  // pointer (towards the old parent) is stale until `child` re-attaches,
  // exactly as in the protocol, where grandparent updates ride on
  // (re)connection messages.
}

void Membership::move_child(HostId child, HostId new_parent, double measured_dist,
                            bool allow_full) {
  detach(child);
  attach(child, new_parent, measured_dist, allow_full);
}

std::size_t Membership::child_index(const MemberState& pm, HostId child) const {
  const auto it = std::find(pm.children.begin(), pm.children.end(), child);
  VDM_REQUIRE_MSG(it != pm.children.end(), "no stored distance for this edge");
  return static_cast<std::size_t>(it - pm.children.begin());
}

double Membership::stored_child_distance(HostId parent, HostId child) const {
  const MemberState& pm = members_.at(parent);
  return pm.child_dists[child_index(pm, child)];
}

void Membership::update_child_distance(HostId parent, HostId child,
                                       double measured_dist) {
  VDM_REQUIRE(measured_dist >= 0.0);
  MemberState& pm = members_.at(parent);
  pm.child_dists[child_index(pm, child)] = measured_dist;
}

bool Membership::subtree_has_capacity(HostId root, HostId exclude) const {
  if (limit1_alive_ == 0) return true;
  if (root == exclude) return false;
  // DFS over the subtree looking for any member with a free slot; `exclude`
  // (typically a refining node) and everything below it are skipped so a
  // node never counts capacity it would detach from the subtree itself.
  capacity_stack_.clear();
  capacity_stack_.push_back(root);
  while (!capacity_stack_.empty()) {
    const HostId at = capacity_stack_.back();
    capacity_stack_.pop_back();
    const MemberState& m = members_.at(at);
    if (m.has_free_degree()) return true;
    for (const HostId c : m.children) {
      if (c != exclude) capacity_stack_.push_back(c);
    }
  }
  return false;
}

bool Membership::is_ancestor(HostId ancestor, HostId node) const {
  // Only a member with children is on another member's root path: this
  // answers every fresh joiner's eligibility and attach checks in O(1).
  if (members_.at(ancestor).children.empty()) return ancestor == node;
  for (HostId at = node; at != kInvalidHost; at = members_.at(at).parent) {
    if (at == ancestor) return true;
  }
  return false;
}

std::vector<HostId> Membership::root_path(HostId node) const {
  std::vector<HostId> path;
  for (HostId at = members_.at(node).parent; at != kInvalidHost;
       at = members_.at(at).parent) {
    path.push_back(at);
    VDM_REQUIRE_MSG(path.size() <= num_hosts_, "cycle in parent pointers");
  }
  return path;
}

std::size_t Membership::depth(HostId node) const {
  std::size_t d = 0;
  for (HostId at = node; members_.at(at).parent != kInvalidHost;
       at = members_.at(at).parent) {
    ++d;
    VDM_REQUIRE_MSG(d <= num_hosts_, "cycle in parent pointers");
  }
  return d;
}

std::vector<HostId> Membership::alive_members() const {
  std::vector<HostId> out;
  for (HostId h = 0; h < num_hosts_; ++h) {
    if (members_[h].alive) out.push_back(h);
  }
  return out;
}

std::vector<HostId> Membership::subtree(HostId root) const {
  std::vector<HostId> out{root};
  for (std::size_t i = 0; i < out.size(); ++i) {
    const MemberState& m = members_.at(out[i]);
    out.insert(out.end(), m.children.begin(), m.children.end());
  }
  return out;
}

std::size_t Membership::capacity_bytes() const {
  std::size_t bytes = members_.capacity() * sizeof(MemberState);
  for (const MemberState& m : members_) {
    bytes += m.children.capacity() * sizeof(HostId) +
             m.child_dists.capacity() * sizeof(double);
  }
  return bytes + flood_.capacity_bytes() +
         capacity_stack_.capacity() * sizeof(HostId);
}

void Membership::refresh_grandparent_of_children(HostId node) {
  const MemberState& m = members_.at(node);
  for (const HostId c : m.children) members_.at(c).grandparent = m.parent;
}

void Membership::validate() const {
  for (HostId h = 0; h < num_hosts_; ++h) {
    const MemberState& m = members_[h];
    if (!m.alive) {
      VDM_REQUIRE_MSG(m.children.empty() && m.parent == kInvalidHost,
                      "dead member still wired into the tree");
      continue;
    }
    VDM_REQUIRE_MSG(m.overlay_links() <= m.degree_limit,
                    "degree limit exceeded (children + parent link > limit)");
    VDM_REQUIRE_MSG(m.child_dists.size() == m.children.size(),
                    "child distance table out of sync");
    for (const HostId c : m.children) {
      VDM_REQUIRE_MSG(members_.at(c).alive, "dead child in children list");
      VDM_REQUIRE_MSG(members_.at(c).parent == h, "child does not point back");
      // A detached member's children legitimately keep their previous
      // grandparent until it re-attaches (grandparent updates ride on
      // reconnection messages, see detach()) — e.g. the subtree of a
      // crash orphan awaiting failure detection.
      if (m.parent != kInvalidHost) {
        VDM_REQUIRE_MSG(members_.at(c).grandparent == m.parent,
                        "grandparent pointer stale");
      }
    }
    if (m.parent != kInvalidHost) {
      const auto& pc = members_.at(m.parent).children;
      VDM_REQUIRE_MSG(std::find(pc.begin(), pc.end(), h) != pc.end(),
                      "parent does not list this child");
    }
    // Acyclicity: walking up must terminate.
    (void)root_path(h);
  }
}

}  // namespace vdm::overlay
