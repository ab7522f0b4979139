// Key placement and the lock-striped store of the multi-core server.
//
// The sharded server runs N reactor threads over one cache split into N
// partitions, the way memcached's worker threads share one item store. A key
// lives in partition ShardOfKey(key, N): the splitmix64-finalized hash the
// telemetry and routing tiers already compute (HashString), modulo N. The
// placement is a pure function of (key, N), so it is stable across restarts
// and identical in the server, the tests, and any external tooling.
//
// Each partition is an ItemStore with its own mutex. Any reactor serves any
// key inline: it locks the key's partition, makes the store call, copies out
// what the reply needs (the Item a lookup returns is only valid under the
// lock; a reference to its block outlives it) and unlocks. A caller holds at most one
// partition lock at a time and takes no other lock under it, so there is no
// lock order to get wrong. Whole-store sweeps (`stats`, `flush_all`) visit
// the partitions one at a time.
//
// With more than one partition, every partition draws cas values from one
// shared atomic, so cas stays unique across partitions and, for a sequential
// client, numbers exactly as the single-partition store does.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "src/net/item_store.h"
#include "src/routing/hash.h"

namespace spotcache::net {

/// Key -> owning shard. Splitmix64-finalized (HashString), modulo-mapped;
/// pure, so the assignment survives restarts and is testable in isolation.
inline uint32_t ShardOfKey(std::string_view key, uint32_t shard_count) {
  if (shard_count <= 1) {
    return 0;
  }
  return static_cast<uint32_t>(HashString(key) % shard_count);
}

/// Aggregatable counter snapshot of the whole server: every partition's
/// store counters plus every reactor's command counters.
struct CoreSnapshot {
  uint64_t curr_items = 0;
  uint64_t bytes_used = 0;
  uint64_t capacity_bytes = 0;
  uint64_t evictions = 0;
  uint64_t expired_reaped = 0;
  uint64_t cmd_get = 0;
  uint64_t cmd_set = 0;
  uint64_t cmd_touch = 0;
  uint64_t cmd_delete = 0;
  uint64_t cmd_flush = 0;
  uint64_t get_hits = 0;
  uint64_t get_misses = 0;
  uint64_t sheds = 0;
  uint64_t protocol_errors = 0;
  int64_t start_time = -1;
};

/// One lock stripe: an ItemStore and the mutex every access to it holds.
struct StorePartition {
  explicit StorePartition(size_t capacity_bytes) : store(capacity_bytes) {}

  std::mutex mu;
  ItemStore store;
};

/// The server's cache as `count` lock-striped partitions of
/// `partition_capacity` bytes each.
class PartitionedStore {
 public:
  PartitionedStore(uint32_t count, size_t partition_capacity);

  uint32_t count() const { return static_cast<uint32_t>(parts_.size()); }
  StorePartition& at(uint32_t i) { return *parts_[i]; }
  /// The partition that owns `key`.
  StorePartition& of(std::string_view key) {
    return *parts_[ShardOfKey(key, count())];
  }

  /// Adds every partition's store counters into `s`, holding one partition
  /// lock at a time.
  void AddStoreStats(CoreSnapshot* s);

 private:
  std::atomic<uint64_t> shared_cas_{0};
  std::vector<std::unique_ptr<StorePartition>> parts_;
};

}  // namespace spotcache::net
