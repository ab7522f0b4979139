#include "src/net/sharding.h"

namespace spotcache::net {

PartitionedStore::PartitionedStore(uint32_t count, size_t partition_capacity) {
  parts_.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    parts_.push_back(std::make_unique<StorePartition>(partition_capacity));
    if (count > 1) {
      parts_.back()->store.set_shared_cas(&shared_cas_);
    }
  }
}

void PartitionedStore::AddStoreStats(CoreSnapshot* s) {
  for (const auto& part : parts_) {
    std::lock_guard<std::mutex> lock(part->mu);
    s->curr_items += part->store.item_count();
    s->bytes_used += part->store.bytes_used();
    s->capacity_bytes += part->store.capacity_bytes();
    s->evictions += part->store.evictions();
    s->expired_reaped += part->store.expired_reaped();
  }
}

}  // namespace spotcache::net
