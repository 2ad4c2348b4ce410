#include "viceroy/viceroy.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "hash/keys.hpp"
#include "util/bits.hpp"

namespace cycloid::viceroy {

namespace {

using dht::kNoNode;
using dht::LookupResult;
using dht::NodeHandle;
using Index = std::map<double, NodeHandle>;

/// Clockwise distance from a to b on the unit ring.
double cw(double a, double b) noexcept {
  const double d = b - a;
  return d >= 0.0 ? d : d + 1.0;
}

/// Anchor of a level-`level` node's down-right link: id + 2^-level, wrapped
/// into [0, 1).
double right_anchor(double id, int level) noexcept {
  const double anchor = id + std::ldexp(1.0, -level);
  return anchor >= 1.0 ? anchor - 1.0 : anchor;
}

double wrap_unit(double v) noexcept { return v - std::floor(v); }

/// Append every member of `index` whose id lies in the clockwise window
/// (lo, hi]; lo == hi selects the whole index.
void append_window(const Index& index, double lo, double hi,
                   std::vector<NodeHandle>& out) {
  const auto take = [&out](Index::const_iterator it,
                           Index::const_iterator end) {
    for (; it != end; ++it) out.push_back(it->second);
  };
  if (lo < hi) {
    take(index.upper_bound(lo), index.upper_bound(hi));
  } else {
    take(index.upper_bound(lo), index.end());
    take(index.begin(), index.upper_bound(hi));
  }
}

}  // namespace

/// Viceroy's repair rules: every join and leave updates both outgoing AND
/// incoming connections immediately (the eager maintenance the paper's
/// conclusion criticizes), so nothing ever goes stale — repairs_eagerly()
/// is true and mass departures (graceful or not) repair like single ones.
/// Each event re-resolves exactly its link candidates (DESIGN.md §16), so
/// every stored link equals a fresh resolve_links. The 7 + referencers
/// charge models the messages those eager updates cost; it stays off unless
/// accounting is enabled.
class ViceroyMaintenancePolicy final : public dht::MaintenancePolicy {
 public:
  explicit ViceroyMaintenancePolicy(ViceroyNetwork& net) : net_(net) {}

  bool repairs_eagerly() const override { return true; }

  void on_join(NodeHandle node) override {
    const std::vector<NodeHandle> candidates = net_.link_candidates(node);
    net_.store_links(node);
    for (const NodeHandle other : candidates) net_.store_links(other);
    if (net_.count_maintenance_) {
      // The newcomer establishes its 7 links and every node whose links now
      // point at it must be told (Viceroy updates incoming connections).
      net_.note_maintenance(node,
                            7 + net_.count_referencers(node, candidates));
    }
  }

  void on_graceful_leave(NodeHandle node) override {
    // Departing Viceroy nodes update all incoming and outgoing connections.
    depart(node, net_.count_maintenance_);
  }

  // Mass departures take the default on_mass_leave -> on_vanish path: the
  // simultaneous-failure experiment repairs each victim's candidates but
  // charges nothing.
  void on_vanish(NodeHandle node) override { depart(node, false); }

  void refresh(NodeHandle node) override { net_.store_links(node); }

  // dirty() keeps the base no-op: refresh re-resolves a node's stored
  // links, but every join and leave already re-resolved each node whose
  // links it changed, so refresh output never differs from the stored
  // state and there is never anything to enqueue for run_incremental.

 private:
  void depart(NodeHandle node, bool charge) {
    // The candidate windows are read with the leaver still a member.
    const std::vector<NodeHandle> candidates = net_.link_candidates(node);
    if (charge) {
      net_.note_maintenance(node,
                            7 + net_.count_referencers(node, candidates));
    }
    net_.unlink(node);
    for (const NodeHandle other : candidates) net_.store_links(other);
  }

  ViceroyNetwork& net_;
};

ViceroyNetwork::ViceroyNetwork() {
  set_maintenance_policy(std::make_unique<ViceroyMaintenancePolicy>(*this));
}

std::unique_ptr<ViceroyNetwork> ViceroyNetwork::build_random(std::size_t count,
                                                             util::Rng& rng,
                                                             int threads) {
  auto net = std::make_unique<ViceroyNetwork>();
  CYCLOID_EXPECTS(count >= 1);
  const int max_level = std::max(1, util::ceil_log2(count));
  // Inserts under bulk mode skip link repair; finish_bulk's pass resolves
  // every node's links once.
  net->begin_bulk();
  while (net->node_count() < count) {
    const double id = rng.uniform01();
    const int level = 1 + static_cast<int>(rng.below(
                              static_cast<std::uint64_t>(max_level)));
    net->insert(id, level);
  }
  net->finish_bulk(threads);
  return net;
}

bool ViceroyNetwork::insert(double id, int level) {
  CYCLOID_EXPECTS(id >= 0.0 && id < 1.0);
  CYCLOID_EXPECTS(level >= 1);
  if (ring_.contains(id)) return false;

  const NodeHandle handle = next_serial_++;
  ViceroyNode& node = create_node(handle);
  node.id = id;
  node.level = level;
  ring_.emplace(id, handle);
  levels_[level].emplace(id, handle);
  notify_joined(handle);
  return true;
}

std::vector<NodeHandle> ViceroyNetwork::link_candidates(
    NodeHandle handle) const {
  // Every link is the first member of a sorted set at-or-after (or strictly
  // before) an anchor, so adding or removing X changes only the links whose
  // answer becomes, or was, X (DESIGN.md §16).
  const ViceroyNode& node = node_state(handle);
  const double x = node.id;
  const int level = node.level;
  std::vector<NodeHandle> out;

  // General-ring and level-ring neighbours.
  const auto neighbours = [&out](const Index& index, double id) {
    const auto self = index.find(id);
    CYCLOID_ASSERT(self != index.end());
    const auto next = std::next(self);
    out.push_back(next == index.end() ? index.begin()->second : next->second);
    const auto prev = self == index.begin() ? std::prev(index.end())
                                            : std::prev(self);
    out.push_back(prev->second);
    return prev->first;
  };
  if (ring_.size() > 1) neighbours(ring_, x);
  const Index& peers = levels_.at(level);
  const bool alone = peers.size() == 1;
  // X's level predecessor p; nodes anchored in (p, x] resolve to X. When X
  // is alone on its level, p = x and the windows cover whole levels.
  const double p = alone ? x : neighbours(peers, x);

  // Level l-1 down links: down-left anchors at id, down-right at
  // id + 2^-(l-1). The second window is the first shifted back by 2^-(l-1),
  // widened by a slack far above the anchor's rounding error (re-resolving
  // an extra node is harmless).
  if (const auto below = levels_.find(level - 1); below != levels_.end()) {
    append_window(below->second, p, x, out);
    constexpr double kSlack = 1e-9;
    if (alone || cw(p, x) + 2.0 * kSlack >= 1.0) {
      append_window(below->second, x, x, out);
    } else {
      const double shift = std::ldexp(1.0, -(level - 1));
      append_window(below->second, wrap_unit(p - shift - kSlack),
                    wrap_unit(x - shift + kSlack), out);
    }
  }

  // Up links of the first populated level above l anchor at their own id.
  if (const auto above = levels_.upper_bound(level); above != levels_.end()) {
    append_window(above->second, p, x, out);
  }

  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void ViceroyNetwork::store_links(NodeHandle handle) {
  if (ViceroyNode* node = node_of(handle)) node->links = resolve_links(handle);
}

std::uint64_t ViceroyNetwork::count_referencers(
    NodeHandle handle, const std::vector<NodeHandle>& candidates) const {
  std::uint64_t referencers = 0;
  for (const NodeHandle other : candidates) {
    if (node_state(other).links.references(handle)) ++referencers;
  }
  return referencers;
}

void ViceroyNetwork::unlink(NodeHandle handle) {
  const ViceroyNode* node = node_of(handle);
  CYCLOID_EXPECTS(node != nullptr);
  // destroy_node swap-moves the arena tail into this slot, so the index
  // keys are copied out before the node object goes away.
  const double id = node->id;
  const int level = node->level;
  ring_.erase(id);
  auto level_it = levels_.find(level);
  CYCLOID_ASSERT(level_it != levels_.end());
  level_it->second.erase(id);
  if (level_it->second.empty()) levels_.erase(level_it);

  destroy_node(handle);
}

int ViceroyNetwork::max_level() const noexcept {
  return levels_.empty() ? 0 : levels_.rbegin()->first;
}

std::vector<NodeHandle> ViceroyNetwork::node_handles() const {
  std::vector<NodeHandle> handles;
  handles.reserve(ring_.size());
  for (const auto& [id, handle] : ring_) handles.push_back(handle);
  return handles;
}

std::vector<std::string> ViceroyNetwork::phase_names() const {
  return {"ascend", "descend", "ring"};
}

NodeHandle ViceroyNetwork::successor_at(double id) const {
  CYCLOID_EXPECTS(!ring_.empty());
  const auto it = ring_.lower_bound(id);
  return it == ring_.end() ? ring_.begin()->second : it->second;
}

NodeHandle ViceroyNetwork::predecessor_of(double id) const {
  CYCLOID_EXPECTS(!ring_.empty());
  const auto it = ring_.lower_bound(id);
  return it == ring_.begin() ? ring_.rbegin()->second : std::prev(it)->second;
}

NodeHandle ViceroyNetwork::level_successor(int level, double id) const {
  const auto level_it = levels_.find(level);
  if (level_it == levels_.end() || level_it->second.empty()) return kNoNode;
  const auto it = level_it->second.lower_bound(id);
  return it == level_it->second.end() ? level_it->second.begin()->second
                                      : it->second;
}

ViceroyLinks ViceroyNetwork::resolve_links(NodeHandle handle) const {
  const ViceroyNode* node = node_of(handle);
  CYCLOID_EXPECTS(node != nullptr);
  ViceroyLinks links;
  if (ring_.size() > 1) {
    links.ring_pred = predecessor_of(node->id);
    links.ring_succ =
        successor_at(std::nextafter(node->id, 2.0) >= 1.0
                         ? 0.0
                         : std::nextafter(node->id, 2.0));
  }

  // Level-ring neighbours among same-level nodes (wrapping), self excluded.
  {
    const auto level_it = levels_.find(node->level);
    CYCLOID_ASSERT(level_it != levels_.end());
    const auto& peers = level_it->second;
    if (peers.size() > 1) {
      auto self = peers.find(node->id);
      CYCLOID_ASSERT(self != peers.end());
      auto next = std::next(self);
      if (next == peers.end()) next = peers.begin();
      links.level_next = next->second;
      auto prev = self == peers.begin() ? std::prev(peers.end())
                                        : std::prev(self);
      links.level_prev = prev->second;
    }
  }

  links.down_left = level_successor(node->level + 1, node->id);
  links.down_right =
      level_successor(node->level + 1, right_anchor(node->id, node->level));

  // Up link: the nearest node of the closest lower populated level.
  for (int level = node->level - 1; level >= 1; --level) {
    const NodeHandle up = level_successor(level, node->id);
    if (up != kNoNode) {
      links.up = up;
      break;
    }
  }
  return links;
}

NodeHandle ViceroyNetwork::owner_of(dht::KeyHash key) const {
  return successor_at(hash::reduce_unit(key));
}

namespace {

/// The seven links in next_hop's candidate order.
std::array<NodeHandle, 7> link_array(const ViceroyLinks& links) noexcept {
  return {links.ring_pred,  links.ring_succ,  links.level_prev,
          links.level_next, links.down_left,  links.down_right,
          links.up};
}

/// Viceroy's step policy: a three-stage machine — ascend to level 1 via up
/// links, descend the butterfly, then traverse via level-ring / ring
/// pointers. Each hop reads the current node's stored links, which eager
/// maintenance keeps exact, so the policy never times out.
class ViceroyStepPolicy final : public dht::StepPolicy {
 public:
  ViceroyStepPolicy(const ViceroyNetwork& net, double target)
      : net_(net), target_(target) {}

  bool alive(NodeHandle node) const override { return net_.contains(node); }
  std::size_t slot_of(NodeHandle node) const override {
    return net_.slot_of(node);
  }
  /// Continuous identifier space: 8 * the 64 bits of the key hash.
  int default_max_hops() const override { return 8 * 64; }

  // Stage-1 hint only: the links live in the record itself, and hinting the
  // link targets' slot-index buckets and records (stages 2 and 3) showed no
  // end-to-end gain.
  void prefetch(std::size_t slot) const override { net_.prefetch_node(slot); }

  dht::HopDecision next_hop(const dht::RouteState& state) override {
    const NodeHandle self = state.current();
    const ViceroyNode& cur = net_.node_at(state.current_slot());
    const ViceroyLinks& links = cur.links;

    // Stage 1 — ascend to a level-1 node via up links.
    if (stage_ == Stage::kAscending) {
      if (cur.level > 1 && links.up != kNoNode) {
        return dht::HopDecision::forward(links.up, ViceroyNetwork::kAscend,
                                         "up");
      }
      stage_ = Stage::kDescending;
    }

    // Stage 2 — descend the butterfly: at level l, take the down-left link
    // when the target is within 2^-l clockwise, else down-right; stop at a
    // node with no down links, or when the down hop would jump past the
    // target (descending further can only overshoot — the traverse stage
    // finishes the approach).
    if (stage_ == Stage::kDescending) {
      const double dist = cw(cur.id, target_);
      const NodeHandle down = dist < std::ldexp(1.0, -cur.level)
                                  ? links.down_left
                                  : links.down_right;
      if (down != kNoNode && cw(cur.id, net_.node_state(down).id) <= dist) {
        return dht::HopDecision::forward(down, ViceroyNetwork::kDescend,
                                         "down");
      }
      stage_ = Stage::kTraversing;
    }

    // Stage 3 — traverse via level-ring / ring pointers toward the target's
    // successor, approaching from whichever side is nearer without stepping
    // over the target.
    const NodeHandle pred = links.ring_pred == kNoNode ? self : links.ring_pred;
    if (pred == self) return dht::HopDecision::deliver();  // singleton ring
    const double pred_id = net_.node_state(pred).id;
    // Owner test: target in (pred, cur].
    const double span = cw(pred_id, cur.id);
    const double off = cw(pred_id, target_);
    if (off > 0.0 && off <= span) return dht::HopDecision::deliver();
    if (target_ == cur.id) return dht::HopDecision::deliver();

    const std::array<NodeHandle, 7> candidates = link_array(links);

    const double d_cw = cw(cur.id, target_);   // travelling clockwise
    const double d_ccw = cw(target_, cur.id);  // sitting past the target

    NodeHandle choice = kNoNode;
    if (d_ccw <= d_cw) {
      // Past the target: walk back, staying at-or-after the target.
      double best = d_ccw;
      for (const NodeHandle h : candidates) {
        if (h == kNoNode || h == self) continue;
        const double gap = cw(target_, net_.node_state(h).id);
        if (gap < best) {
          best = gap;
          choice = h;
        }
      }
      if (choice == kNoNode) choice = links.ring_pred;
      return dht::HopDecision::forward(choice, ViceroyNetwork::kRing,
                                       "ring-back");
    }
    // Before the target: jump as far clockwise as possible without passing
    // it; if every link passes it, the ring successor is the target's owner.
    double best = 0.0;
    for (const NodeHandle h : candidates) {
      if (h == kNoNode || h == self) continue;
      const double gap = cw(cur.id, net_.node_state(h).id);
      if (gap <= d_cw && gap > best) {
        best = gap;
        choice = h;
      }
    }
    if (choice == kNoNode) choice = links.ring_succ;
    return dht::HopDecision::forward(choice, ViceroyNetwork::kRing,
                                     "ring-forward");
  }

 private:
  enum class Stage { kAscending, kDescending, kTraversing };

  const ViceroyNetwork& net_;
  const double target_;
  Stage stage_ = Stage::kAscending;
};

}  // namespace

void ViceroyNetwork::route_batch_impl(const NodeHandle* froms,
                                      const dht::KeyHash* keys,
                                      std::size_t count, int width,
                                      dht::LookupMetrics& sink,
                                      LookupResult* results,
                                      dht::BatchScratch& lanes,
                                      const dht::RouterOptions& options) const {
  dht::Router::route_batch(
      froms, keys, count, width, sink, results, lanes, options,
      [this](NodeHandle from, dht::KeyHash key) {
        CYCLOID_EXPECTS(contains(from));
        return ViceroyStepPolicy(*this, hash::reduce_unit(key));
      });
}

NodeHandle ViceroyNetwork::join(std::uint64_t seed) {
  const std::uint64_t h = util::mix64(seed);
  const double id = hash::reduce_unit(h);
  const int estimate_levels =
      std::max(1, util::ceil_log2(static_cast<std::uint64_t>(node_count()) + 1));
  const int level =
      1 + static_cast<int>(util::mix64(h ^ 0x1ee7c0deULL) %
                           static_cast<std::uint64_t>(estimate_levels));
  if (!insert(id, level)) return kNoNode;
  return ring_.at(id);
}

}  // namespace cycloid::viceroy
