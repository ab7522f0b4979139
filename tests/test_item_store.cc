// ItemStore behaviour pins: memcached semantics (expiry, cas, flush_all,
// add/replace preconditions) and the byte-capacity LRU underneath them.
//
// The seeded-stream digest folds every observable result of ~1.2M mixed ops
// into one 64-bit value, so any change to victims, cas numbering, expiry or
// byte accounting moves it. Any rewrite of the store must reproduce it
// exactly.

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/item_store.h"
#include "src/net/protocol.h"
#include "src/net/response.h"
#include "src/net/server_core.h"

// Global operator new/delete replaced with counting versions. They count
// only on a thread with an AllocTally installed, so the rest of the binary
// allocates as usual.
namespace {
struct AllocTally {
  uint64_t news = 0;
  uint64_t deletes = 0;
};
thread_local AllocTally* active_tally = nullptr;

/// Installs `tally` on this thread for the scope's lifetime.
class CountAllocations {
 public:
  explicit CountAllocations(AllocTally* tally) { active_tally = tally; }
  ~CountAllocations() { active_tally = nullptr; }
  CountAllocations(const CountAllocations&) = delete;
  CountAllocations& operator=(const CountAllocations&) = delete;
};
}  // namespace

void* operator new(std::size_t n) {
  if (active_tally != nullptr) {
    ++active_tally->news;
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept {
  if (p != nullptr && active_tally != nullptr) {
    ++active_tally->deletes;
  }
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  if (p != nullptr && active_tally != nullptr) {
    ++active_tally->deletes;
  }
  std::free(p);
}

namespace spotcache::net {
namespace {

constexpr int64_t kT0 = 2'000'000'000;  // test-clock epoch (unix seconds)

// Self-contained generator so the stream is identical on every toolchain.
struct SplitMix64 {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
};

struct Digest {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over 64-bit words
  void Fold(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

struct StreamTotals {
  uint64_t digest = 0;
  uint64_t hits = 0;
  uint64_t refused_oversize = 0;
  uint64_t evictions = 0;
  uint64_t expired_reaped = 0;
};

StreamTotals RunSeededStream(uint64_t seed, size_t ops) {
  constexpr size_t kCapacity = 64 * 1024;
  constexpr uint64_t kKeys = 300;
  ItemStore store(kCapacity);
  SplitMix64 rng{seed};
  Digest d;
  StreamTotals totals;

  // Value bytes are slices of one patterned buffer, so the first byte of a
  // stored value depends on the op that wrote it.
  std::string pool(kCapacity + 4096, '\0');
  for (size_t i = 0; i < pool.size(); ++i) {
    pool[i] = static_cast<char>('!' + (i * 7 + i / 251) % 90);
  }

  int64_t now = kT0;
  for (size_t i = 0; i < ops; ++i) {
    if (rng.Below(64) == 0) {
      now += 1;
    }
    const std::string key = "key:" + std::to_string(rng.Below(kKeys));
    int64_t exptime = 0;
    switch (rng.Below(8)) {
      case 0:
      case 1:
        exptime = static_cast<int64_t>(1 + rng.Below(12));  // relative
        break;
      case 2:
        exptime = now + static_cast<int64_t>(rng.Below(12));  // absolute
        break;
      case 3:
        exptime = rng.Below(4) == 0 ? -1 : 0;  // negative: born dead
        break;
      default:
        break;  // never expires
    }
    const uint32_t flags = static_cast<uint32_t>(rng.Next());
    size_t len = rng.Below(1501);
    if (rng.Below(1000) == 0) {
      len = kCapacity + rng.Below(4096);  // larger than the whole store
    }
    const std::string_view data(pool.data() + rng.Below(pool.size() - len),
                                len);

    const uint64_t op = rng.Below(1000);
    uint64_t result = 0;
    if (op < 300) {
      result = static_cast<uint64_t>(store.Set(key, flags, exptime, data, now));
      if (len + key.size() + 64 > kCapacity) {
        ++totals.refused_oversize;
      }
    } else if (op < 380) {
      result = static_cast<uint64_t>(store.Add(key, flags, exptime, data, now));
    } else if (op < 460) {
      result =
          static_cast<uint64_t>(store.Replace(key, flags, exptime, data, now));
    } else if (op < 880) {
      const Item item = store.Get(key, now);
      if (item) {
        ++totals.hits;
        d.Fold(item.cas());
        d.Fold(item.flags());
        d.Fold(static_cast<uint64_t>(item.expires_at()));
        d.Fold(item.block()->size());
        d.Fold(item.block()->empty()
                   ? 0x100
                   : static_cast<unsigned char>(item.block()->front()));
      }
      result = item ? 1 : 0;
    } else if (op < 930) {
      result = store.Delete(key, now) ? 1 : 0;
    } else if (op < 999) {
      result = store.Touch(key, exptime, now) ? 1 : 0;
    } else {
      store.FlushAll(now, static_cast<int64_t>(rng.Below(3)));
    }
    d.Fold(result);
    d.Fold(store.item_count());
    d.Fold(store.bytes_used());
    d.Fold(store.evictions());
    d.Fold(store.expired_reaped());
    EXPECT_LE(store.bytes_used(), store.capacity_bytes());
  }
  totals.digest = d.h;
  totals.evictions = store.evictions();
  totals.expired_reaped = store.expired_reaped();
  return totals;
}

TEST(ItemStore, SeededStreamDigestIsPinned) {
  const StreamTotals t = RunSeededStream(/*seed=*/20170423, /*ops=*/1'200'000);
  // The stream must reach every path the digest is meant to pin.
  EXPECT_GT(t.hits, 10'000u);
  EXPECT_GT(t.refused_oversize, 100u);
  EXPECT_GT(t.evictions, 10'000u);
  EXPECT_GT(t.expired_reaped, 10'000u);
  EXPECT_EQ(t.digest, 0x05493045b2c023faULL)
      << std::hex << "digest 0x" << t.digest;
}

TEST(ItemStore, VictimsSplitIntoEvictionsAndExpiredReaped) {
  // Each item costs 1 + 100 + 64 = 165 bytes; two fit.
  ItemStore store(2 * 165);
  const std::string value(100, 'v');
  ASSERT_EQ(store.Set("a", 0, /*exptime=*/5, value, kT0),
            ItemStore::StoreResult::kStored);
  ASSERT_EQ(store.Set("b", 0, /*exptime=*/0, value, kT0),
            ItemStore::StoreResult::kStored);

  // "a" is the LRU victim and has expired by now.
  ASSERT_EQ(store.Set("c", 0, 0, value, kT0 + 10),
            ItemStore::StoreResult::kStored);
  EXPECT_EQ(store.evictions(), 0u);
  EXPECT_EQ(store.expired_reaped(), 1u);

  // "b" is the next victim and still live.
  ASSERT_EQ(store.Set("d", 0, 0, value, kT0 + 10),
            ItemStore::StoreResult::kStored);
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_EQ(store.expired_reaped(), 1u);
  EXPECT_EQ(store.item_count(), 2u);
  EXPECT_EQ(store.bytes_used(), 2u * 165);
  EXPECT_FALSE(store.Get("a", kT0 + 10));
  EXPECT_FALSE(store.Get("b", kT0 + 10));
  EXPECT_TRUE(store.Get("c", kT0 + 10));
  EXPECT_TRUE(store.Get("d", kT0 + 10));
}

// A get's payload is referenced in place by the reply; a later request in
// the same batch that evicts the item must not free the bytes under it.
TEST(ItemStore, PinnedPayloadOutlivesEviction) {
  ServerCoreConfig config;
  config.capacity_bytes = 4096;  // one 3000-byte value fits, two do not
  ServerCore core(config);
  RequestParser parser;
  ResponseAssembler out;
  const std::string old_value(3000, 'k');
  const std::string new_value(3000, 'j');

  const auto run = [&](const std::string& wire) {
    parser.Feed(wire);
    for (ParseStatus st; (st = parser.Next()) != ParseStatus::kNeedMore;) {
      ASSERT_EQ(st, ParseStatus::kRequest);
      core.Handle(parser.request(), kT0, &out);
    }
  };
  run("set k 0 0 3000\r\n" + old_value + "\r\n");
  ASSERT_EQ(out.Flatten(), "STORED\r\n");
  out.Clear();

  run("get k\r\nset j 0 0 3000\r\n" + new_value + "\r\n");
  EXPECT_EQ(out.Flatten(),
            "VALUE k 0 3000\r\n" + old_value + "\r\nEND\r\nSTORED\r\n");
  EXPECT_EQ(core.store().item_count(), 1u);
  EXPECT_EQ(core.store().evictions(), 1u);
  out.Clear();

  run("get k\r\n");
  EXPECT_EQ(out.Flatten(), "END\r\n");
}

// A stored value is one heap block: once the arena and index are sized,
// overwriting an existing key allocates the new value once and frees the
// old one once.
TEST(ItemStore, StoredValueIsOneAllocation) {
  constexpr int kKeys = 64;
  constexpr int kRounds = 16;
  ItemStore store(1 << 20);
  const std::string value(100, 'v');
  std::vector<std::string> keys;
  for (int i = 0; i < kKeys; ++i) {
    std::string key = "k";  // short enough to live inside std::string
    key += std::to_string(i);
    keys.push_back(std::move(key));
  }
  for (const std::string& key : keys) {  // warm-up: sizes arena and index
    ASSERT_EQ(store.Set(key, 0, 0, value, kT0),
              ItemStore::StoreResult::kStored);
  }

  AllocTally tally;
  int stored = 0;
  {
    CountAllocations counting(&tally);
    for (int r = 0; r < kRounds; ++r) {
      for (const std::string& key : keys) {
        stored += store.Set(key, 0, 0, value, kT0) ==
                  ItemStore::StoreResult::kStored;
      }
    }
  }

  const uint64_t n = kKeys * kRounds;
  EXPECT_EQ(stored, static_cast<int>(n));
  EXPECT_EQ(store.item_count(), static_cast<size_t>(kKeys));
  EXPECT_EQ(store.evictions(), 0u);
  EXPECT_EQ(tally.news, n);
  EXPECT_EQ(tally.deletes, n);
}

// The key lives in the value's block, not in a string of its own: once the
// arena and index are sized, inserting a new key too long for a string's
// inline buffer allocates once, for the block.
TEST(ItemStore, NewLongKeyIsOneAllocation) {
  constexpr int kKeys = 1024;
  constexpr size_t kKeyBytes = 40;
  ItemStore store(1 << 24);
  const std::string value(100, 'v');
  const auto long_key = [](const char* prefix, int i) {
    std::string key = prefix;
    key += std::to_string(i);
    key.resize(kKeyBytes, '.');
    return key;
  };
  std::vector<std::string> warm;
  std::vector<std::string> fresh;
  for (int i = 0; i < kKeys; ++i) {
    warm.push_back(long_key("warm:", i));
    fresh.push_back(long_key("fresh:", i));
  }
  // Warm-up: as many items as the counted inserts, then deleted, so the
  // arena's free list and the index already hold room for them.
  for (const std::string& key : warm) {
    ASSERT_EQ(store.Set(key, 0, 0, value, kT0),
              ItemStore::StoreResult::kStored);
  }
  for (const std::string& key : warm) {
    ASSERT_TRUE(store.Delete(key, kT0));
  }

  AllocTally tally;
  int stored = 0;
  {
    CountAllocations counting(&tally);
    for (const std::string& key : fresh) {
      stored += store.Set(key, 0, 0, value, kT0) ==
                ItemStore::StoreResult::kStored;
    }
  }

  EXPECT_EQ(stored, kKeys);
  EXPECT_EQ(store.item_count(), static_cast<size_t>(kKeys));
  EXPECT_EQ(tally.news, static_cast<uint64_t>(kKeys));
  EXPECT_EQ(tally.deletes, 0u);
  for (const std::string& key : fresh) {
    const Item item = store.Get(key, kT0);
    ASSERT_TRUE(item) << key;
    EXPECT_EQ(item.block()->key(), key);
    EXPECT_EQ(std::string_view(item.block()->data(), item.block()->size()),
              value);
  }
}

}  // namespace
}  // namespace spotcache::net
