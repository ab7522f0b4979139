// Byte-capacity LRU cache — the eviction core of a memcached-like node.
//
// Flat layout for the data-path hot loop: entries live in one contiguous slot
// arena, recency order is an intrusive doubly-linked list of 32-bit slot
// indices threaded through the arena, and lookup is an open-addressing
// (linear-probe, backward-shift-delete) hash table of slot indices. Each
// bucket also keeps a 32-bit tag, the upper half of the key's mixed hash
// (whose low bits are the home bucket), so a probe compares tags before it
// touches a slot, and rehash and delete find every home from the bucket array
// alone: neither reads the arena nor hashes a key again. Compared
// to the classic std::list + std::unordered_map shape (preserved verbatim in
// lru_cache_ref.h) this removes the per-entry heap node, the duplicate key
// copy in the index, and every pointer chase but one — the same arena +
// intrusive-list shape CacheLib and memcached's slab LRU use.
//
// A slot is the Entry (key object, value, byte count) plus the two links;
// kSlotBytes is its size. The key object is whatever K is: a small key lives
// in the slot itself, while the server's ItemStore uses a one-pointer handle
// to a heap block that carries both the key and the value bytes, so its slot
// holds no key bytes at all. Such a K is stored through PutOwned(), which
// takes the caller's key object and, on overwrite, replaces the stored one.
//
// Behavior is bit-identical to the reference implementation: same hit / miss
// / eviction sequences, same byte accounting, same MRU→LRU iteration order
// (test_lru_equivalence drives both through ~1e5 randomized ops to prove it,
// through Put() and through PutOwned()). The overwrite path is the one
// deliberate improvement folded in: Put on an existing key updates
// value/bytes in place and splices the slot to the front instead of erase +
// re-insert (two hash walks and node churn in the reference; the observable
// semantics are unchanged).
//
// The eviction hook is a template parameter so simulation code that needs a
// hook pays a direct (inlineable) call instead of a std::function dispatch.
// The default instantiation keeps the original std::function-based
// SetEvictionCallback API, so existing callers compile unchanged.
//
// Transparent lookup: a Hash that names `is_transparent` lets every keyed
// call take any type the hash accepts and K compares equal to — the
// server's ItemStore looks its block keys up by std::string_view, so a
// lookup builds no key. Other hashes keep `const K&` semantics (the argument
// converts to K at the call). FindEntry() is the promoting lookup that hands
// back the stored entry in place, Find() its value, and Get() a copy of it.

#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

namespace spotcache {

template <typename K, typename V, typename Hash = std::hash<K>,
          typename EvictHook = void>
class LruCache {
 public:
  struct Entry {
    K key;
    V value;
    size_t bytes = 0;
  };

  using EvictionCallback = std::function<void(const Entry&)>;

 private:
  // void selects the type-erased std::function hook (the compatible default);
  // any other functor type is stored by value and invoked directly.
  static constexpr bool kFunctionHook = std::is_void_v<EvictHook>;
  using HookStorage =
      std::conditional_t<kFunctionHook, EvictionCallback, EvictHook>;

  static constexpr uint32_t kNil = 0xffffffffu;

  static constexpr bool kTransparent =
      requires { typename Hash::is_transparent; };
  /// The key type a lookup probes with: the caller's own type under a
  /// transparent Hash, else K (so the probe never compares mixed types).
  template <typename Q>
  using LookupKey = std::conditional_t<kTransparent, Q, K>;

  struct Slot {
    Entry entry;
    uint32_t prev = kNil;  // toward MRU
    uint32_t next = kNil;  // toward LRU; doubles as the free-list link
  };

 public:
  /// Arena bytes per entry: the Entry plus the two recency links.
  static constexpr size_t kSlotBytes = sizeof(Slot);

  explicit LruCache(size_t capacity_bytes) : capacity_bytes_(capacity_bytes) {}

  /// Pre-sizes the arena and hash table for `expected_items` so a run over a
  /// known working set never rehashes or reallocates mid-stream.
  void Reserve(size_t expected_items) {
    slots_.reserve(expected_items);
    size_t want = kMinBuckets;
    while (want * 3 < expected_items * 4) {  // keep load factor under 3/4
      want <<= 1;
    }
    if (want > buckets_.size()) {
      Rehash(want);
    }
  }

  /// Inserts or overwrites; evicts LRU entries until the item fits. Returns
  /// false (and stores nothing) if `bytes` alone exceeds the capacity. An
  /// overwrite keeps the stored key object; an insert builds one from `key`.
  template <typename Q>
  bool Put(const Q& key, V value, size_t bytes) {
    const LookupKey<Q>& k = key;
    return Store</*kReplaceKey=*/false>(
        k, [&k] { return K(k); }, std::move(value), bytes);
  }

  /// Put() for a key object the caller built: the cache takes `key` as is,
  /// and an overwrite replaces the stored key object with it (the two are
  /// equal keys, not the same object). For a K that owns memory beyond the
  /// key, such as a block that also carries the value, this is how the old
  /// object is released.
  bool PutOwned(K key, V value, size_t bytes) {
    return Store</*kReplaceKey=*/true>(
        key, [&key] { return std::move(key); }, std::move(value), bytes);
  }

  /// Looks the key up and promotes it to most-recently-used, counting a hit
  /// or miss. The pointer is valid until the next mutating call (the arena
  /// may move on growth).
  template <typename Q>
  Entry* FindEntry(const Q& key) {
    const uint32_t s = FindSlot<LookupKey<Q>>(key);
    if (s == kNil) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    MoveToFront(s);
    return &slots_[s].entry;
  }

  /// FindEntry() narrowed to the value.
  template <typename Q>
  V* Find(const Q& key) {
    Entry* entry = FindEntry(key);
    return entry != nullptr ? &entry->value : nullptr;
  }

  /// Find() returning a copy of the value.
  template <typename Q>
  std::optional<V> Get(const Q& key) {
    const V* value = Find(key);
    return value != nullptr ? std::optional<V>(*value) : std::nullopt;
  }

  /// Lookup without promotion or stats; the pointer lives as Find()'s does.
  template <typename Q>
  const Entry* PeekEntry(const Q& key) const {
    const uint32_t s = FindSlot<LookupKey<Q>>(key);
    return s == kNil ? nullptr : &slots_[s].entry;
  }
  template <typename Q>
  V* Peek(const Q& key) {
    const uint32_t s = FindSlot<LookupKey<Q>>(key);
    return s == kNil ? nullptr : &slots_[s].entry.value;
  }
  template <typename Q>
  const V* Peek(const Q& key) const {
    const Entry* entry = PeekEntry(key);
    return entry != nullptr ? &entry->value : nullptr;
  }

  template <typename Q>
  bool Contains(const Q& key) const {
    return FindSlot<LookupKey<Q>>(key) != kNil;
  }

  template <typename Q>
  bool Erase(const Q& key) {
    if (buckets_.empty()) {
      return false;
    }
    const LookupKey<Q>& k = key;
    const size_t b = FindBucket(k, TagOf(k));
    if (buckets_[b].slot == kNil) {
      return false;
    }
    const uint32_t s = buckets_[b].slot;
    bytes_used_ -= slots_[s].entry.bytes;
    EraseBucket(b);
    Unlink(s);
    FreeSlot(s);
    --size_;
    return true;
  }

  void Clear() {
    slots_.clear();
    buckets_.clear();
    head_ = tail_ = free_head_ = kNil;
    bytes_used_ = 0;
    size_ = 0;
  }

  /// Shrinks the capacity (evicting as needed) or grows it.
  void SetCapacity(size_t capacity_bytes) {
    capacity_bytes_ = capacity_bytes;
    EvictUntilFits(0);
  }

  void SetEvictionCallback(EvictionCallback cb)
    requires kFunctionHook
  {
    hook_ = std::move(cb);
  }

  /// Installs a statically-typed hook (only for non-default EvictHook
  /// instantiations); invoked with the victim Entry on every eviction.
  void SetEvictionHook(HookStorage hook)
    requires(!kFunctionHook)
  {
    hook_ = std::move(hook);
  }

  size_t size() const { return size_; }
  size_t bytes_used() const { return bytes_used_; }
  size_t capacity_bytes() const { return capacity_bytes_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }

  /// Visits entries from most- to least-recently used.
  template <typename Fn>
  void ForEachMruToLru(Fn&& fn) const {
    for (uint32_t s = head_; s != kNil; s = slots_[s].next) {
      fn(slots_[s].entry);
    }
  }

 private:
  static constexpr size_t kMinBuckets = 16;

  /// The body of Put() and PutOwned(): `probe` finds the entry, `make_key`
  /// yields the key object to store on insert (and, with kReplaceKey, on
  /// overwrite). `make_key` runs at most once, after the last use of `probe`.
  template <bool kReplaceKey, typename Q, typename MakeKey>
  bool Store(const Q& probe, MakeKey&& make_key, V value, size_t bytes) {
    if (bytes > capacity_bytes_) {
      return false;
    }
    const uint32_t tag = TagOf(probe);
    if (!buckets_.empty()) {
      const size_t b = FindBucket(probe, tag);
      if (buckets_[b].slot != kNil) {
        // Overwrite in place: adjust byte accounting, splice to MRU, then
        // evict as needed. Same victims as the reference's erase+reinsert —
        // this entry is at the front, so it is never its own victim.
        const uint32_t s = buckets_[b].slot;
        Slot& slot = slots_[s];
        bytes_used_ -= slot.entry.bytes;
        if constexpr (kReplaceKey) {
          slot.entry.key = make_key();
        }
        slot.entry.value = std::move(value);
        slot.entry.bytes = bytes;
        MoveToFront(s);
        bytes_used_ += bytes;
        EvictUntilFits(0);
        return true;
      }
    }
    EvictUntilFits(bytes);
    const uint32_t s = AllocSlot();
    Slot& slot = slots_[s];
    slot.entry.key = make_key();
    slot.entry.value = std::move(value);
    slot.entry.bytes = bytes;
    LinkFront(s);
    InsertIndex(s, tag);
    bytes_used_ += bytes;
    ++size_;
    return true;
  }

  // ---- Intrusive recency list ------------------------------------------

  void LinkFront(uint32_t s) {
    slots_[s].prev = kNil;
    slots_[s].next = head_;
    if (head_ != kNil) {
      slots_[head_].prev = s;
    }
    head_ = s;
    if (tail_ == kNil) {
      tail_ = s;
    }
  }

  void Unlink(uint32_t s) {
    Slot& slot = slots_[s];
    if (slot.prev != kNil) {
      slots_[slot.prev].next = slot.next;
    } else {
      head_ = slot.next;
    }
    if (slot.next != kNil) {
      slots_[slot.next].prev = slot.prev;
    } else {
      tail_ = slot.prev;
    }
  }

  void MoveToFront(uint32_t s) {
    if (head_ == s) {
      return;
    }
    Unlink(s);
    LinkFront(s);
  }

  // ---- Slot arena -------------------------------------------------------

  uint32_t AllocSlot() {
    if (free_head_ != kNil) {
      const uint32_t s = free_head_;
      free_head_ = slots_[s].next;
      return s;
    }
    assert(slots_.size() < kNil);
    slots_.emplace_back();
    return static_cast<uint32_t>(slots_.size() - 1);
  }

  void FreeSlot(uint32_t s) {
    slots_[s].entry = Entry{};  // drop the value (it may own memory)
    slots_[s].next = free_head_;
    slots_[s].prev = kNil;
    free_head_ = s;
  }

  // ---- Open-addressing index -------------------------------------------

  struct Bucket {
    uint32_t slot = kNil;  // kNil = empty
    uint32_t tag = 0;      // upper half of the key's mixed hash
  };

  template <typename Q>
  static uint32_t TagOf(const Q& key) {
    // Spread the hash so power-of-two masking is safe even for identity
    // std::hash implementations (Fibonacci multiplicative mixing); the home
    // bucket is the tag's low bits.
    const uint64_t h = static_cast<uint64_t>(Hash{}(key)) * 0x9e3779b97f4a7c15ULL;
    return static_cast<uint32_t>(h >> 32);
  }

  /// Bucket holding `key`, or the empty bucket where it would be inserted.
  template <typename Q>
  size_t FindBucket(const Q& key, uint32_t tag) const {
    const size_t mask = buckets_.size() - 1;
    size_t b = tag & mask;
    while (buckets_[b].slot != kNil &&
           !(buckets_[b].tag == tag &&
             slots_[buckets_[b].slot].entry.key == key)) {
      b = (b + 1) & mask;
    }
    return b;
  }

  template <typename Q>
  uint32_t FindSlot(const Q& key) const {
    if (buckets_.empty()) {
      return kNil;
    }
    return buckets_[FindBucket(key, TagOf(key))].slot;
  }

  /// First empty bucket on `tag`'s probe path: where a key known to be
  /// absent goes.
  size_t EmptyBucketFor(uint32_t tag) const {
    const size_t mask = buckets_.size() - 1;
    size_t b = tag & mask;
    while (buckets_[b].slot != kNil) {
      b = (b + 1) & mask;
    }
    return b;
  }

  void InsertIndex(uint32_t s, uint32_t tag) {
    if (buckets_.empty() || (size_ + 1) * 4 > buckets_.size() * 3) {
      Rehash(buckets_.empty() ? kMinBuckets : buckets_.size() * 2);
    }
    buckets_[EmptyBucketFor(tag)] = Bucket{s, tag};
  }

  /// Bucket pointing at slot `s` (which must be indexed): probes by slot
  /// number, so no key is compared.
  size_t BucketOfSlot(uint32_t s) const {
    const size_t mask = buckets_.size() - 1;
    size_t b = TagOf(slots_[s].entry.key) & mask;
    while (buckets_[b].slot != s) {
      b = (b + 1) & mask;
    }
    return b;
  }

  /// Knuth's backward-shift deletion: closes the probe-chain hole left at
  /// `hole` so lookups never need tombstones.
  void EraseBucket(size_t hole) {
    const size_t mask = buckets_.size() - 1;
    size_t i = hole;
    size_t j = hole;
    for (;;) {
      j = (j + 1) & mask;
      if (buckets_[j].slot == kNil) {
        buckets_[i] = Bucket{};
        return;
      }
      const size_t home = buckets_[j].tag & mask;
      // Move j's entry into the hole only if its probe path crosses i.
      if (((j - home) & mask) >= ((j - i) & mask)) {
        buckets_[i] = buckets_[j];
        i = j;
      }
    }
  }

  void Rehash(size_t new_buckets) {
    std::vector<Bucket> old(new_buckets);
    old.swap(buckets_);
    for (const Bucket& bucket : old) {
      if (bucket.slot != kNil) {
        buckets_[EmptyBucketFor(bucket.tag)] = bucket;
      }
    }
  }

  // ---- Eviction ---------------------------------------------------------

  void NotifyEvict(const Entry& victim) {
    if constexpr (kFunctionHook) {
      if (hook_) {
        hook_(victim);
      }
    } else {
      hook_(victim);
    }
  }

  void EvictUntilFits(size_t incoming_bytes) {
    while (tail_ != kNil && bytes_used_ + incoming_bytes > capacity_bytes_) {
      const uint32_t s = tail_;
      NotifyEvict(slots_[s].entry);
      bytes_used_ -= slots_[s].entry.bytes;
      EraseBucket(BucketOfSlot(s));
      Unlink(s);
      FreeSlot(s);
      --size_;
      ++evictions_;
    }
  }

  size_t capacity_bytes_;
  size_t bytes_used_ = 0;
  size_t size_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  std::vector<Slot> slots_;
  std::vector<Bucket> buckets_;
  uint32_t head_ = kNil;           // MRU
  uint32_t tail_ = kNil;           // LRU
  uint32_t free_head_ = kNil;
  HookStorage hook_{};
};

}  // namespace spotcache
