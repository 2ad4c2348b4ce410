#include "dht/store.hpp"

#include <algorithm>

#include "hash/keys.hpp"
#include "util/contracts.hpp"

namespace cycloid::dht {

DhtStore::DhtStore(DhtNetwork& net, int replicas)
    : net_(net), replicas_(replicas), rng_(0x5709eULL) {
  CYCLOID_EXPECTS(replicas >= 1);
}

void DhtStore::sync_ring() {
  const std::uint64_t epoch = net_.membership_epoch();
  if (epoch == ring_epoch_) return;
  ring_ = net_.node_handles();
  // An override of node_handles (Viceroy's) must list exactly the live
  // handles, or positions would land on the wrong slots.
  CYCLOID_ASSERT(ring_.size() == net_.node_count());
  ring_pos_.assign(net_.node_count(), 0);
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const std::size_t slot = net_.slot_of(ring_[i]);
    CYCLOID_ASSERT(slot != kNoSlot);
    ring_pos_[slot] = static_cast<std::uint32_t>(i);
  }
  ring_epoch_ = epoch;
}

void DhtStore::place(KeyHash hash, std::vector<NodeHandle>& holders) {
  const NodeHandle owner = net_.owner_of(hash);
  holders.assign(1, owner);
  if (replicas_ == 1) return;
  // Followers alternate on both sides of the owner in identifier order —
  // the Pastry leaf-set replication style — so whichever neighbour
  // inherits the key range after a departure already holds a copy.
  sync_ring();
  const std::size_t slot = net_.slot_of(owner);
  CYCLOID_ASSERT(slot != kNoSlot);
  const std::size_t base = ring_pos_[slot];
  const std::size_t n = ring_.size();
  const std::size_t want =
      std::min<std::size_t>(static_cast<std::size_t>(replicas_), n);
  for (std::size_t offset = 1; holders.size() < want; ++offset) {
    holders.push_back(ring_[(base + offset) % n]);
    if (holders.size() < want) {
      holders.push_back(ring_[(base + n - offset) % n]);
    }
  }
}

LookupResult DhtStore::put(const std::string& key, std::string value,
                           NodeHandle source) {
  if (source == kNoNode) source = net_.random_node(rng_);
  const auto [it, inserted] = directory_.try_emplace(key);
  Entry& entry = it->second;
  if (inserted) entry.hash = hash::hash_name(key);
  const LookupResult result = net_.lookup(source, entry.hash);
  entry.value = std::move(value);
  place(entry.hash, entry.holders);
  return result;
}

std::optional<std::string> DhtStore::get(const std::string& key,
                                         NodeHandle source,
                                         LookupResult* result) {
  if (source == kNoNode) source = net_.random_node(rng_);
  // A stored key routes with its stored hash; only a miss pays for SHA-1.
  const auto it = directory_.find(key);
  const KeyHash hash =
      it == directory_.end() ? hash::hash_name(key) : it->second.hash;
  const LookupResult lookup = net_.lookup(source, hash);
  if (result != nullptr) *result = lookup;

  if (it == directory_.end()) return std::nullopt;
  const Entry& entry = it->second;
  // The value is found when the lookup terminated at any live holder.
  if (!lookup.success) return std::nullopt;
  if (std::find(entry.holders.begin(), entry.holders.end(),
                lookup.destination) == entry.holders.end()) {
    return std::nullopt;
  }
  return entry.value;
}

bool DhtStore::erase(const std::string& key) {
  return directory_.erase(key) > 0;
}

std::size_t DhtStore::keys_on(NodeHandle node) const {
  std::size_t count = 0;
  for (const auto& [key, entry] : directory_) {
    count += static_cast<std::size_t>(
        std::count(entry.holders.begin(), entry.holders.end(), node));
  }
  return count;
}

std::vector<std::uint64_t> DhtStore::primary_load() const {
  std::unordered_map<NodeHandle, std::uint64_t> counts;
  for (const auto& [key, entry] : directory_) {
    ++counts[entry.holders.front()];
  }
  std::vector<std::uint64_t> loads;
  for (const NodeHandle h : net_.node_handles()) {
    const auto it = counts.find(h);
    loads.push_back(it == counts.end() ? 0 : it->second);
  }
  return loads;
}

std::size_t DhtStore::rebalance() {
  std::size_t moved = 0;
  std::vector<NodeHandle> fresh;
  for (auto& [key, entry] : directory_) {
    place(entry.hash, fresh);
    if (fresh != entry.holders) {
      entry.holders.swap(fresh);
      ++moved;
    }
  }
  return moved;
}

double DhtStore::placement_accuracy() const {
  if (directory_.empty()) return 1.0;
  std::size_t correct = 0;
  for (const auto& [key, entry] : directory_) {
    const NodeHandle owner = net_.owner_of(entry.hash);
    if (!entry.holders.empty() && entry.holders.front() == owner &&
        net_.contains(owner)) {
      ++correct;
    }
  }
  return static_cast<double>(correct) /
         static_cast<double>(directory_.size());
}

}  // namespace cycloid::dht
