#include "src/net/item_store.h"

namespace spotcache::net {

namespace {

/// Accounting cost of one item: key + payload + a fixed 64 bytes standing in
/// for memcached's per-item header. The constant only sets how many items a
/// byte capacity holds; changing it changes which items get evicted.
size_t CostOf(std::string_view key, size_t data_size) {
  return key.size() + data_size + 64;
}

}  // namespace

int64_t ResolveExptime(int64_t exptime, int64_t now) {
  if (exptime == 0) {
    return 0;
  }
  if (exptime < 0) {
    return -1;
  }
  return exptime <= kRelativeExpiryCutoff ? now + exptime : exptime;
}

ItemStore::ItemStore(size_t capacity_bytes) : lru_(capacity_bytes) {
  lru_.SetEvictionHook(VictimCounter{this});
}

bool ItemStore::IsLive(const Item& item, int64_t now) const {
  if (item.expires_at < 0) {
    return false;
  }
  if (item.expires_at > 0 && item.expires_at <= now) {
    return false;
  }
  if (flush_at_ >= 0 && now >= flush_at_ && item.stored_at < flush_at_) {
    return false;
  }
  return true;
}

ItemStore::StoreResult ItemStore::Upsert(std::string_view key, uint32_t flags,
                                         int64_t exptime, std::string_view data,
                                         int64_t now) {
  const size_t cost = CostOf(key, data.size());
  // Refused before drawing a cas, so a refused set leaves the numbering of
  // every later set unchanged.
  if (cost > lru_.capacity_bytes()) {
    return StoreResult::kNotStored;
  }
  evict_now_ = now;
  lru_.Put(key,
           Item{Payload::Make(data), flags, ResolveExptime(exptime, now), now,
                NextCas()},
           cost);
  return StoreResult::kStored;
}

ItemStore::StoreResult ItemStore::Set(std::string_view key, uint32_t flags,
                                      int64_t exptime, std::string_view data,
                                      int64_t now) {
  return Upsert(key, flags, exptime, data, now);
}

ItemStore::StoreResult ItemStore::Add(std::string_view key, uint32_t flags,
                                      int64_t exptime, std::string_view data,
                                      int64_t now) {
  const Item* item = lru_.Peek(key);
  if (item != nullptr && IsLive(*item, now)) {
    return StoreResult::kNotStored;
  }
  return Upsert(key, flags, exptime, data, now);
}

ItemStore::StoreResult ItemStore::Replace(std::string_view key, uint32_t flags,
                                          int64_t exptime,
                                          std::string_view data, int64_t now) {
  const Item* item = lru_.Peek(key);
  if (item == nullptr || !IsLive(*item, now)) {
    return StoreResult::kNotStored;
  }
  return Upsert(key, flags, exptime, data, now);
}

const Item* ItemStore::Get(std::string_view key, int64_t now) {
  const Item* item = lru_.Find(key);
  if (item != nullptr && !IsLive(*item, now)) {
    ++expired_reaped_;
    lru_.Erase(key);
    return nullptr;
  }
  return item;
}

bool ItemStore::Delete(std::string_view key, int64_t now) {
  const Item* item = lru_.Peek(key);
  if (item == nullptr) {
    return false;
  }
  const bool live = IsLive(*item, now);
  lru_.Erase(key);
  return live;
}

bool ItemStore::Touch(std::string_view key, int64_t exptime, int64_t now) {
  // Moves the deadline only; the item keeps its LRU position.
  Item* item = lru_.Peek(key);
  if (item == nullptr || !IsLive(*item, now)) {
    return false;
  }
  item->expires_at = ResolveExptime(exptime, now);
  return true;
}

void ItemStore::FlushAll(int64_t now, int64_t delay_s) {
  flush_at_ = now + delay_s;
  // Items stored at exactly the flush point stay visible (stored_at <
  // flush_at_ is the invisibility test), matching memcached's "new sets
  // after flush_all take effect" rule.
}

}  // namespace spotcache::net
