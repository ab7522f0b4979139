// The server's authoritative byte store: string key -> (flags, expiry, cas,
// payload), with memcached's rules on top of the flat byte-capacity
// LruCache (src/cache/lru_cache.h). Keys are looked up by string_view
// through the cache's transparent index, so only an inserted key is copied.
// The LRU's eviction hook sorts each victim by liveness into evictions() or
// expired_reaped(). An item costs key + payload + 64 bytes against the
// capacity: the 64 is an accounting constant standing in for memcached's
// per-item header, not a measured node size. It decides which items a
// capacity holds, so changing it changes every eviction.
//
// Each payload is one refcounted heap block (src/net/payload.h), so the
// response assembler can reference it zero-copy across a batched writev even
// if a later request in the same batch evicts the item.
//
// Expiry follows memcached 1.6: exptime 0 never expires, negative is
// immediately expired, values up to 30 days are relative seconds, larger
// values are absolute unix seconds. flush_all(delay) marks everything stored
// before the flush point invisible once the point passes. All time comes in
// through `now` parameters, so the store is a pure function of its inputs
// and deterministic under test clocks.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "src/cache/lru_cache.h"
#include "src/net/payload.h"

namespace spotcache::net {

/// Seconds threshold below which exptime is relative (memcached's constant).
inline constexpr int64_t kRelativeExpiryCutoff = 60 * 60 * 24 * 30;

/// Resolves a wire exptime into an absolute unix-seconds deadline.
/// Returns 0 for "never", -1 for "already expired".
int64_t ResolveExptime(int64_t exptime, int64_t now);

struct Item {
  PayloadRef data;
  uint32_t flags = 0;
  int64_t expires_at = 0;  // 0 = never, -1 = dead, else unix seconds
  int64_t stored_at = 0;   // for flush_all visibility
  uint64_t cas = 0;
};

class ItemStore {
 public:
  enum class StoreResult : uint8_t { kStored, kNotStored };

  explicit ItemStore(size_t capacity_bytes);
  // The LRU's eviction hook points back at this store.
  ItemStore(const ItemStore&) = delete;
  ItemStore& operator=(const ItemStore&) = delete;

  StoreResult Set(std::string_view key, uint32_t flags, int64_t exptime,
                  std::string_view data, int64_t now);
  /// add: only if absent; replace: only if present.
  StoreResult Add(std::string_view key, uint32_t flags, int64_t exptime,
                  std::string_view data, int64_t now);
  StoreResult Replace(std::string_view key, uint32_t flags, int64_t exptime,
                      std::string_view data, int64_t now);

  /// Live item or nullptr; promotes the item to MRU on hit.
  const Item* Get(std::string_view key, int64_t now);
  bool Delete(std::string_view key, int64_t now);
  bool Touch(std::string_view key, int64_t exptime, int64_t now);
  /// Marks all currently stored items dead once `now + delay_s` passes.
  void FlushAll(int64_t now, int64_t delay_s);

  /// Sharded serving: draws cas values from a process-wide atomic sequence
  /// instead of the private counter, so cas stays unique across shard
  /// partitions (and, for a sequential client, identical to the
  /// single-threaded server's numbering). Null (the default) keeps the
  /// private counter — the single-threaded path touches no atomics.
  void set_shared_cas(std::atomic<uint64_t>* seq) { shared_cas_ = seq; }

  size_t item_count() const { return lru_.size(); }
  size_t bytes_used() const { return lru_.bytes_used(); }
  size_t capacity_bytes() const { return lru_.capacity_bytes(); }
  /// LRU victims that were still live when evicted.
  uint64_t evictions() const { return evictions_; }
  /// Dead items removed: expired or flushed LRU victims, and dead items a
  /// get ran into.
  uint64_t expired_reaped() const { return expired_reaped_; }

 private:
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(std::string_view key) const {
      return std::hash<std::string_view>{}(key);
    }
  };
  /// Eviction hook: counts each LRU victim by its liveness at the clock of
  /// the store call that evicted it.
  struct VictimCounter {
    ItemStore* store = nullptr;
    template <typename Entry>
    void operator()(const Entry& victim) const {
      ++(store->IsLive(victim.value, store->evict_now_)
             ? store->evictions_
             : store->expired_reaped_);
    }
  };

  bool IsLive(const Item& item, int64_t now) const;
  StoreResult Upsert(std::string_view key, uint32_t flags, int64_t exptime,
                     std::string_view data, int64_t now);

  uint64_t NextCas() {
    return shared_cas_ != nullptr
               ? shared_cas_->fetch_add(1, std::memory_order_relaxed) + 1
               : next_cas_++;
  }

  LruCache<std::string, Item, KeyHash, VictimCounter> lru_;
  uint64_t next_cas_ = 1;
  std::atomic<uint64_t>* shared_cas_ = nullptr;
  int64_t flush_at_ = -1;  // <0: no flush pending/applied
  int64_t evict_now_ = 0;  // clock of the store call in progress
  uint64_t evictions_ = 0;
  uint64_t expired_reaped_ = 0;
};

}  // namespace spotcache::net
