#include "src/net/item_store.h"

#include <algorithm>

namespace spotcache::net {

namespace {

/// Accounting cost of one item: key + payload + a fixed 64 bytes standing in
/// for memcached's per-item header. The constant only sets how many items a
/// byte capacity holds; changing it changes which items get evicted.
size_t CostOf(std::string_view key, size_t data_size) {
  return key.size() + data_size + 64;
}

/// Narrows unix seconds into a StoreTime, saturating at both ends.
StoreTime Narrow(int64_t t) {
  return t <= 0 ? 0
         : t >= int64_t{UINT32_MAX} ? UINT32_MAX
                                    : static_cast<StoreTime>(t);
}

/// The slot deadline for a wire exptime: 0 stays "never"; any deadline at or
/// before unix second 1, "already expired" included, becomes 1, which every
/// positive clock has passed.
StoreTime DeadlineOf(int64_t exptime, int64_t now) {
  const int64_t at = ResolveExptime(exptime, now);
  return at == 0 ? 0 : std::max<StoreTime>(Narrow(at), 1);
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

bool ItemStore::IsLive(const ItemMeta& meta, int64_t now) const {
  if (meta.expires_at != 0 && meta.expires_at <= now) {
    return false;
  }
  if (flush_at_ >= 0 && now >= flush_at_ && meta.stored_at < flush_at_) {
    return false;
  }
  return true;
}

ItemStore::StoreResult ItemStore::Set(PayloadRef& block, uint32_t flags,
                                      int64_t exptime, int64_t now) {
  const size_t cost = CostOf(block->key(), block->size());
  // Refused before drawing a cas, so a refused set leaves the numbering of
  // every later set unchanged.
  if (cost > lru_.capacity_bytes()) {
    return StoreResult::kNotStored;
  }
  evict_now_ = now;
  lru_.PutOwned(ItemKey{std::move(block)},
                ItemMeta{NextCas(), flags, DeadlineOf(exptime, now),
                         Narrow(now)},
                cost);
  return StoreResult::kStored;
}

ItemStore::StoreResult ItemStore::Add(PayloadRef& block, uint32_t flags,
                                      int64_t exptime, int64_t now) {
  const ItemMeta* meta = lru_.Peek(block->key());
  if (meta != nullptr && IsLive(*meta, now)) {
    return StoreResult::kNotStored;
  }
  return Set(block, flags, exptime, now);
}

ItemStore::StoreResult ItemStore::Replace(PayloadRef& block, uint32_t flags,
                                          int64_t exptime, int64_t now) {
  const ItemMeta* meta = lru_.Peek(block->key());
  if (meta == nullptr || !IsLive(*meta, now)) {
    return StoreResult::kNotStored;
  }
  return Set(block, flags, exptime, now);
}

ItemStore::StoreResult ItemStore::Set(std::string_view key, uint32_t flags,
                                      int64_t exptime, std::string_view data,
                                      int64_t now) {
  PayloadRef block = Payload::Make(key, data);
  return Set(block, flags, exptime, now);
}

ItemStore::StoreResult ItemStore::Add(std::string_view key, uint32_t flags,
                                      int64_t exptime, std::string_view data,
                                      int64_t now) {
  PayloadRef block = Payload::Make(key, data);
  return Add(block, flags, exptime, now);
}

ItemStore::StoreResult ItemStore::Replace(std::string_view key, uint32_t flags,
                                          int64_t exptime,
                                          std::string_view data, int64_t now) {
  PayloadRef block = Payload::Make(key, data);
  return Replace(block, flags, exptime, now);
}

Item ItemStore::Get(std::string_view key, int64_t now) {
  const auto* entry = lru_.FindEntry(key);
  if (entry == nullptr) {
    return Item();
  }
  if (!IsLive(entry->value, now)) {
    ++expired_reaped_;
    lru_.Erase(key);
    return Item();
  }
  return Item(&entry->key.block, &entry->value);
}

bool ItemStore::Delete(std::string_view key, int64_t now) {
  const ItemMeta* meta = lru_.Peek(key);
  if (meta == nullptr) {
    return false;
  }
  const bool live = IsLive(*meta, now);
  lru_.Erase(key);
  return live;
}

bool ItemStore::Touch(std::string_view key, int64_t exptime, int64_t now) {
  // Moves the deadline only; the item keeps its LRU position.
  ItemMeta* meta = lru_.Peek(key);
  if (meta == nullptr || !IsLive(*meta, now)) {
    return false;
  }
  meta->expires_at = DeadlineOf(exptime, now);
  return true;
}

void ItemStore::FlushAll(int64_t now, int64_t delay_s) {
  flush_at_ = now + delay_s;
  // Items stored at exactly the flush point stay visible (stored_at <
  // flush_at_ is the invisibility test), matching memcached's "new sets
  // after flush_all take effect" rule.
}

}  // namespace spotcache::net
