#include "perfbench/src/workload.h"

#include "src/routing/hash.h"

namespace perfbench {

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = [] {
    std::vector<Workload> out;

    Workload proxied;
    proxied.name = "proxied_zipf";
    proxied.why =
        "the proxy's blocking upstream hop sets the ceiling; servers stay "
        "mostly idle";
    proxied.proxied = true;
    proxied.primaries = 2;
    proxied.capacity_mb = 64;
    proxied.num_keys = 10'000;
    proxied.theta = 0.99;
    // About a fifth of the proxy's knee (~25k on 4 cores), so host CPU
    // contention on a shared machine, which has cut that knee to ~7k, does
    // not saturate the fixed-rate window.
    proxied.rate_rps = 5'000;
    out.push_back(proxied);

    Workload sharded;
    sharded.name = "direct_sharded";
    sharded.why =
        "parse, assembly, syscalls and the cross-shard hop of a 2-shard "
        "server; no proxy on the path";
    sharded.server_threads = 2;
    sharded.force_dispatch = true;
    sharded.capacity_mb = 256;
    sharded.num_keys = 200'000;
    sharded.theta = 0.5;
    sharded.scramble = true;
    sharded.rate_rps = 150'000;
    out.push_back(sharded);

    Workload evict;
    evict.name = "direct_evict";
    evict.why =
        "ItemStore allocation and LRU eviction with a working set 4x the "
        "capacity, large values, writes beside reads";
    evict.capacity_mb = 32;
    evict.num_keys = 250'000;
    evict.theta = 0.9;
    evict.scramble = true;
    evict.get_ratio = 0.5;
    evict.value_min = 64;
    evict.value_max = 1024;
    evict.rate_rps = 50'000;
    evict.warmup_s = 1.0;
    out.push_back(evict);
    return out;
  }();
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

uint32_t ValueLenFor(const Workload& w, uint64_t key_id) {
  if (w.value_max <= w.value_min) {
    return w.value_min;
  }
  const uint64_t span = w.value_max - w.value_min + 1;
  return w.value_min + static_cast<uint32_t>(
                           spotcache::HashU64(key_id) % span);
}

spotcache::loadgen::EngineConfig MakeEngineConfig(const Workload& w,
                                                  uint16_t port, double rate,
                                                  double seconds,
                                                  uint64_t seed) {
  spotcache::loadgen::EngineConfig c;
  c.port = port;
  c.connections = kConnections;
  c.prefill = false;  // the benchmark fills the store itself (setup_s)
  c.window_us = 1'000;
  c.stream.schedule.base_rate_rps = rate;
  c.stream.schedule.duration_s = seconds;
  c.stream.keys.num_keys = w.num_keys;
  c.stream.keys.theta = w.theta;
  c.stream.keys.scramble = w.scramble;
  c.stream.mix.get_ratio = w.get_ratio;
  c.stream.mix.value_bytes = w.value_min;
  c.stream.mix.value_bytes_max = w.value_max > w.value_min ? w.value_max : 0;
  c.stream.seed = seed;
  return c;
}

}  // namespace perfbench
