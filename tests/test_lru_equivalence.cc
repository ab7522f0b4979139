// Property test: the flat open-addressing LruCache is behaviorally identical
// to the reference std::list + std::unordered_map implementation.
//
// Both caches consume the same randomized op stream (puts with varying sizes,
// gets, erases, peeks, capacity changes, clears); after every op the return
// values must agree, and the eviction callbacks must fire for the same keys
// in the same order. Counters and byte accounting are compared throughout, so
// any divergence in LRU order, eviction choice, or overwrite handling fails
// with the op index in hand.

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/cache/lru_cache.h"
#include "src/cache/lru_cache_ref.h"
#include "src/util/rng.h"

namespace spotcache {
namespace {

struct Evicted {
  uint64_t key;
  size_t bytes;
  bool operator==(const Evicted&) const = default;
};

// A key object for the owned-key path (PutOwned): equal to another, and
// hashed, by `id` alone, so `generation` shows which object the cache kept.
struct OwnedKey {
  uint64_t id = 0;
  uint64_t generation = 0;
  bool operator==(const OwnedKey& other) const { return id == other.id; }
  bool operator==(uint64_t other) const { return id == other; }
};

struct OwnedKeyHash {
  using is_transparent = void;
  size_t operator()(uint64_t id) const { return std::hash<uint64_t>{}(id); }
  size_t operator()(const OwnedKey& key) const { return (*this)(key.id); }
};

uint64_t IdOf(uint64_t key) { return key; }
uint64_t IdOf(const OwnedKey& key) { return key.id; }

// Puts through PutOwned when the cache's key is an OwnedKey, checking that
// both an insert and an overwrite leave the new key object in the slot;
// through Put otherwise.
template <typename FlatCache, typename Value>
bool FlatPut(FlatCache& flat, uint64_t key, Value value, size_t bytes,
             uint64_t generation) {
  if constexpr (std::is_same_v<decltype(FlatCache::Entry::key), OwnedKey>) {
    const bool stored =
        flat.PutOwned(OwnedKey{key, generation}, std::move(value), bytes);
    if (stored) {
      const auto* entry = flat.PeekEntry(key);
      EXPECT_NE(entry, nullptr);
      if (entry != nullptr) {
        EXPECT_EQ(entry->key.generation, generation);
      }
    }
    return stored;
  } else {
    return flat.Put(key, std::move(value), bytes);
  }
}

template <typename RefCache, typename FlatCache>
void DriveEquivalence(RefCache& ref, FlatCache& flat, uint64_t seed,
                      size_t ops, uint64_t key_space,
                      std::vector<Evicted>* ref_evicted,
                      std::vector<Evicted>* flat_evicted) {
  Rng rng(seed);
  for (size_t i = 0; i < ops; ++i) {
    const uint64_t key = rng.NextBelow(key_space);
    const double roll = rng.NextDouble();
    SCOPED_TRACE("op " + std::to_string(i) + " key " + std::to_string(key));
    if (roll < 0.45) {
      const size_t bytes = 1 + rng.NextBelow(4096);
      const bool a = ref.Put(key, static_cast<uint32_t>(key), bytes);
      const bool b = FlatPut(flat, key, static_cast<uint32_t>(key), bytes, i);
      ASSERT_EQ(a, b);
    } else if (roll < 0.80) {
      const auto a = ref.Get(key);
      const auto b = flat.Get(key);
      ASSERT_EQ(a.has_value(), b.has_value());
      if (a.has_value()) {
        ASSERT_EQ(*a, *b);
      }
    } else if (roll < 0.90) {
      ASSERT_EQ(ref.Erase(key), flat.Erase(key));
    } else if (roll < 0.96) {
      const auto* pa = ref.Peek(key);
      const auto* pb = flat.Peek(key);
      ASSERT_EQ(pa == nullptr, pb == nullptr);
      if (pa != nullptr) {
        ASSERT_EQ(*pa, *pb);
      }
      ASSERT_EQ(ref.Contains(key), flat.Contains(key));
    } else if (roll < 0.99) {
      const size_t cap = 64 * 1024 + rng.NextBelow(256 * 1024);
      ref.SetCapacity(cap);
      flat.SetCapacity(cap);
    } else {
      ref.Clear();
      flat.Clear();
    }
    ASSERT_EQ(ref.size(), flat.size());
    ASSERT_EQ(ref.bytes_used(), flat.bytes_used());
    ASSERT_EQ(ref.hits(), flat.hits());
    ASSERT_EQ(ref.misses(), flat.misses());
    ASSERT_EQ(ref.evictions(), flat.evictions());
    ASSERT_EQ(ref_evicted->size(), flat_evicted->size());
  }
  ASSERT_EQ(*ref_evicted, *flat_evicted);
  // Final structural check: identical MRU-to-LRU order.
  std::vector<uint64_t> ref_order, flat_order;
  ref.ForEachMruToLru([&](const auto& e) { ref_order.push_back(e.key); });
  flat.ForEachMruToLru(
      [&](const auto& e) { flat_order.push_back(IdOf(e.key)); });
  ASSERT_EQ(ref_order, flat_order);
}

using V = uint32_t;

TEST(LruEquivalence, RandomizedOpStreamMatchesReference) {
  constexpr size_t kOps = 100'000;
  ReferenceLruCache<uint64_t, V> ref(256 * 1024);
  LruCache<uint64_t, V> flat(256 * 1024);
  std::vector<Evicted> ref_evicted, flat_evicted;
  ref.SetEvictionCallback(
      [&](const auto& e) { ref_evicted.push_back({e.key, e.bytes}); });
  flat.SetEvictionCallback(
      [&](const auto& e) { flat_evicted.push_back({e.key, e.bytes}); });
  DriveEquivalence(ref, flat, /*seed=*/0x10c4, kOps, /*key_space=*/700,
                   &ref_evicted, &flat_evicted);
  EXPECT_GT(ref_evicted.size(), 1000u) << "workload never evicted; weak test";
}

// Same property through the templated (non-std::function) eviction hook.
struct RecordingHook {
  std::vector<Evicted>* out;
  template <typename Entry>
  void operator()(const Entry& e) const {
    out->push_back({IdOf(e.key), e.bytes});
  }
};

TEST(LruEquivalence, TemplatedHookMatchesReference) {
  constexpr size_t kOps = 50'000;
  ReferenceLruCache<uint64_t, V> ref(128 * 1024);
  LruCache<uint64_t, V, std::hash<uint64_t>, RecordingHook> flat(128 * 1024);
  std::vector<Evicted> ref_evicted, flat_evicted;
  ref.SetEvictionCallback(
      [&](const auto& e) { ref_evicted.push_back({e.key, e.bytes}); });
  flat.SetEvictionHook(RecordingHook{&flat_evicted});
  DriveEquivalence(ref, flat, /*seed=*/0xfeed, kOps, /*key_space=*/400,
                   &ref_evicted, &flat_evicted);
  EXPECT_GT(ref_evicted.size(), 500u);
}

// The owned-key path (PutOwned, as ItemStore uses it): the same hits,
// misses and victims as the reference, with each put's key object kept.
TEST(LruEquivalence, OwnedKeyPutMatchesReference) {
  constexpr size_t kOps = 100'000;
  ReferenceLruCache<uint64_t, V> ref(256 * 1024);
  LruCache<OwnedKey, V, OwnedKeyHash, RecordingHook> flat(256 * 1024);
  std::vector<Evicted> ref_evicted, flat_evicted;
  ref.SetEvictionCallback(
      [&](const auto& e) { ref_evicted.push_back({e.key, e.bytes}); });
  flat.SetEvictionHook(RecordingHook{&flat_evicted});
  DriveEquivalence(ref, flat, /*seed=*/0x0b1c, kOps, /*key_space=*/700,
                   &ref_evicted, &flat_evicted);
  EXPECT_GT(ref_evicted.size(), 1000u) << "workload never evicted; weak test";
}

TEST(LruEquivalence, OwnedKeyOverwriteShrinkAndGrowKeepsAccounting) {
  ReferenceLruCache<uint64_t, V> ref(10'000);
  LruCache<OwnedKey, V, OwnedKeyHash, RecordingHook> flat(10'000);
  std::vector<Evicted> ref_evicted, flat_evicted;
  ref.SetEvictionCallback(
      [&](const auto& e) { ref_evicted.push_back({e.key, e.bytes}); });
  flat.SetEvictionHook(RecordingHook{&flat_evicted});
  Rng rng(0x0eed);
  for (size_t i = 0; i < 20'000; ++i) {
    const uint64_t key = rng.NextBelow(12);
    const size_t bytes = 500 + rng.NextBelow(5000);  // often near capacity
    ASSERT_EQ(ref.Put(key, static_cast<V>(i), bytes),
              FlatPut(flat, key, static_cast<V>(i), bytes, i));
    ASSERT_EQ(ref.bytes_used(), flat.bytes_used());
    ASSERT_EQ(ref.evictions(), flat.evictions());
  }
  EXPECT_EQ(ref_evicted, flat_evicted);
}

TEST(LruEquivalence, TinyCapacityEdgeCases) {
  // Single-slot-ish capacity: every put evicts; oversized puts are rejected.
  ReferenceLruCache<uint64_t, V> ref(100);
  LruCache<uint64_t, V> flat(100);
  std::vector<Evicted> ref_evicted, flat_evicted;
  ref.SetEvictionCallback(
      [&](const auto& e) { ref_evicted.push_back({e.key, e.bytes}); });
  flat.SetEvictionCallback(
      [&](const auto& e) { flat_evicted.push_back({e.key, e.bytes}); });
  for (uint64_t k = 0; k < 50; ++k) {
    ASSERT_EQ(ref.Put(k, static_cast<V>(k), 60), flat.Put(k, static_cast<V>(k), 60));
    ASSERT_EQ(ref.Put(k, static_cast<V>(k), 200),
              flat.Put(k, static_cast<V>(k), 200));  // oversized: rejected
  }
  EXPECT_EQ(ref_evicted, flat_evicted);
  EXPECT_EQ(ref.size(), flat.size());
  EXPECT_EQ(ref.bytes_used(), flat.bytes_used());
}

TEST(LruEquivalence, OverwriteShrinkAndGrowKeepsAccounting) {
  // The flat cache's in-place overwrite must match erase+reinsert semantics:
  // same bytes accounting, same eviction victims, entry lands at MRU.
  ReferenceLruCache<uint64_t, V> ref(10'000);
  LruCache<uint64_t, V> flat(10'000);
  std::vector<Evicted> ref_evicted, flat_evicted;
  ref.SetEvictionCallback(
      [&](const auto& e) { ref_evicted.push_back({e.key, e.bytes}); });
  flat.SetEvictionCallback(
      [&](const auto& e) { flat_evicted.push_back({e.key, e.bytes}); });
  Rng rng(0x0eed);
  for (size_t i = 0; i < 20'000; ++i) {
    const uint64_t key = rng.NextBelow(12);
    const size_t bytes = 500 + rng.NextBelow(5000);  // often near capacity
    ASSERT_EQ(ref.Put(key, static_cast<V>(i), bytes),
              flat.Put(key, static_cast<V>(i), bytes));
    ASSERT_EQ(ref.bytes_used(), flat.bytes_used());
    ASSERT_EQ(ref.evictions(), flat.evictions());
  }
  EXPECT_EQ(ref_evicted, flat_evicted);
}

TEST(LruEquivalence, ReserveDoesNotChangeBehavior) {
  ReferenceLruCache<uint64_t, V> ref(64 * 1024);
  LruCache<uint64_t, V> flat(64 * 1024);
  flat.Reserve(4096);
  std::vector<Evicted> ref_evicted, flat_evicted;
  ref.SetEvictionCallback(
      [&](const auto& e) { ref_evicted.push_back({e.key, e.bytes}); });
  flat.SetEvictionCallback(
      [&](const auto& e) { flat_evicted.push_back({e.key, e.bytes}); });
  DriveEquivalence(ref, flat, /*seed=*/0xab1e, /*ops=*/30'000,
                   /*key_space=*/300, &ref_evicted, &flat_evicted);
}

}  // namespace
}  // namespace spotcache
