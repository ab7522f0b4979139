// The server's authoritative byte store: key -> (flags, expiry, cas, value),
// with memcached's rules on top of the flat byte-capacity LruCache
// (src/cache/lru_cache.h). Keys are looked up by string_view through the
// cache's transparent index, so a lookup builds no key. The LRU's eviction
// hook sorts each victim by liveness into evictions() or expired_reaped().
// An item costs key + value + 64 bytes against the capacity: the 64 is an
// accounting constant standing in for memcached's per-item header, not a
// measured size. It decides which items a capacity holds, so changing it
// changes every eviction.
//
// Item layout, the way memcached lays out its items. Each item is one
// refcounted heap block (src/net/payload.h) holding the key and the value
// bytes; the response assembler references the value zero-copy across a
// batched writev even if a later request in the same batch evicts the item.
// The item's LRU slot holds only the block reference, the metadata and the
// links: block 8 B, cas 8, flags 4, expiry 4, stored-at 4 (plus 4 of
// padding), the LRU's byte count 8 and two 32-bit links 8, 48 B in all
// (static_assert below). The slot's key is the block itself: it hashes and
// compares by the block's key bytes. A lookup compares the bucket's 32-bit
// tag first, so it reads a block's key only on a tag match, and a hit reads
// the block anyway to build its reply.
//
// Times. Expiry follows memcached 1.6: exptime 0 never expires, negative is
// immediately expired, values up to 30 days are relative seconds, larger
// values are absolute unix seconds. flush_all(delay) marks everything stored
// before the flush point invisible once the point passes. The slot keeps
// both of its times as unsigned 32-bit unix seconds (StoreTime), good to
// 2106-02-07; a time past 2^32 - 1 saturates to 2^32 - 1, so a far deadline
// stays far rather than wrapping into the past. Deadline 0 means never and
// deadline 1 (1970) means already expired. All time comes in through `now`
// parameters (unix seconds, positive), so the store is a pure function of its
// inputs and deterministic under test clocks.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string_view>

#include "src/cache/lru_cache.h"
#include "src/net/payload.h"

namespace spotcache::net {

/// Seconds threshold below which exptime is relative (memcached's constant).
inline constexpr int64_t kRelativeExpiryCutoff = 60 * 60 * 24 * 30;

/// Resolves a wire exptime into an absolute unix-seconds deadline.
/// Returns 0 for "never", -1 for "already expired".
int64_t ResolveExptime(int64_t exptime, int64_t now);

/// An item's two times: unsigned unix seconds, saturating (see above).
using StoreTime = uint32_t;

/// What an item's LRU slot keeps besides its block.
struct ItemMeta {
  uint64_t cas = 0;
  uint32_t flags = 0;
  StoreTime expires_at = 0;  // 0 = never, 1 = dead, else unix seconds
  StoreTime stored_at = 0;   // for flush_all visibility
};

/// A hit as ItemStore::Get() returns it: the item's block and metadata, read
/// in place. Valid until the next call on the store (for a partition, until
/// its lock is released); copy block() to keep the value past that. Tests
/// false on a miss.
class Item {
 public:
  Item() = default;

  explicit operator bool() const { return meta_ != nullptr; }
  /// The item's block: data()/size() are the value, key() the key.
  const PayloadRef& block() const { return *block_; }
  uint32_t flags() const { return meta_->flags; }
  uint64_t cas() const { return meta_->cas; }
  StoreTime expires_at() const { return meta_->expires_at; }

 private:
  friend class ItemStore;

  Item(const PayloadRef* block, const ItemMeta* meta)
      : block_(block), meta_(meta) {}

  const PayloadRef* block_ = nullptr;
  const ItemMeta* meta_ = nullptr;
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

  /// The same three for a block the caller built with Payload::Make(key,
  /// value), say before taking a lock. The store takes `block` (leaving it
  /// null) only when it answers kStored; a refused block stays with the
  /// caller, who frees it.
  StoreResult Set(PayloadRef& block, uint32_t flags, int64_t exptime,
                  int64_t now);
  StoreResult Add(PayloadRef& block, uint32_t flags, int64_t exptime,
                  int64_t now);
  StoreResult Replace(PayloadRef& block, uint32_t flags, int64_t exptime,
                      int64_t now);

  /// Live item, or a false Item; promotes the item to MRU on hit.
  Item Get(std::string_view key, int64_t now);
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
  /// The slot's key: the item's block, equal to another key or a probe when
  /// the block's key bytes are.
  struct ItemKey {
    PayloadRef block;
    bool operator==(const ItemKey& other) const {
      return block->key() == other.block->key();
    }
    bool operator==(std::string_view key) const { return block->key() == key; }
  };
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(std::string_view key) const {
      return std::hash<std::string_view>{}(key);
    }
    size_t operator()(const ItemKey& key) const {
      return (*this)(key.block->key());
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
  using Lru = LruCache<ItemKey, ItemMeta, KeyHash, VictimCounter>;
  static_assert(Lru::kSlotBytes <= 48,
                "an item's slot is its block, metadata, byte count and links");

  bool IsLive(const ItemMeta& meta, int64_t now) const;

  uint64_t NextCas() {
    return shared_cas_ != nullptr
               ? shared_cas_->fetch_add(1, std::memory_order_relaxed) + 1
               : next_cas_++;
  }

  Lru lru_;
  uint64_t next_cas_ = 1;
  std::atomic<uint64_t>* shared_cas_ = nullptr;
  int64_t flush_at_ = -1;  // <0: no flush pending/applied
  int64_t evict_now_ = 0;  // clock of the store call in progress
  uint64_t evictions_ = 0;
  uint64_t expired_reaped_ = 0;
};

}  // namespace spotcache::net
