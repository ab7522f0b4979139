// ShardedServer: N reactor shards behind one port, over one partitioned
// cache.
//
// Each shard is a full NetServer — private epoll loop, private
// RequestTelemetry, private Obs registry — running on its own thread. The
// cache is owned here: N lock-striped partitions (PartitionedStore,
// sharding.h), each an ItemStore with capacity/N and its own mutex, and a key
// lives in partition ShardOfKey(key, N). Every shard serves every key inline:
// it locks the key's partition around the store call and builds the reply
// after the unlock, so a request never waits for another reactor to run.
//
// Accept strategy, memcached's: shard 0 alone binds the cache port, accepts
// every connection, and deals them round-robin to the shards, itself
// included, so consecutive connections land on consecutive shards and N
// connections give every shard N / threads of them. A peer's share goes
// into its hand-off queue (NetServer::HandOff: one mutex-guarded push plus
// one eventfd write); shard 0 never waits for the peer to adopt it. A
// connection stays on its shard for life, so requests pay nothing for this.
//
// Aggregation surfaces:
//   * `stats` / `stats spotcache` — the serving shard sums every partition's
//     store counters, one partition lock at a time, and every shard's
//     command counters, which are single-writer relaxed atomics
//     (ServerCore::Snapshot).
//   * Prometheus scrape (`--metrics-port`, shard 0's loop), the metrics
//     dump and the final `--metrics` file — RenderMetrics() merges every
//     shard's registry when asked. It takes each peer's work mutex in turn
//     (NetServer::LockWork: the loop holds it for the work part of each
//     iteration), so it waits for about one iteration of each peer and
//     never reads a counter mid-update. Counters and gauges sum, histograms
//     merge bucket-exactly. The shared control-plane registry is merged
//     after the shards, under `system_mu`, never while a work mutex is
//     awaited: a reactor takes `system_mu` under its own work mutex.
//     Lock order: a work mutex, then at most one leaf lock (a partition,
//     `system_mu`, the dump mutex or a hand-off queue) under which nothing
//     else is taken. Only shard 0's loop renders while holding its own work
//     mutex, and it takes peers' work mutexes one at a time.
//   * SIGUSR1 flight recorder — RequestTelemetryDump() fans out to every
//     shard (async-signal-safe); dumps append to one shared span file under
//     a shared mutex, and shard 0 writes the merged metrics file.
//
// threads == 1 is one NetServer over one partition holding the whole
// capacity, with no shared cas, serving with the process's Obs (so the
// control-plane registry is its own): byte-identical to a plain NetServer
// on the wire, in the scrape, the metrics file and the trace.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/net/server.h"
#include "src/net/sharding.h"
#include "src/obs/obs.h"

namespace spotcache {
class SpotCacheSystem;
}  // namespace spotcache

namespace spotcache::net {

/// Upper bound on reactor threads, and so on partitions: one of each per
/// shard.
inline constexpr uint32_t kMaxShards = 64;

struct ShardedServerConfig {
  /// Per-shard template. `core.capacity_bytes` is the TOTAL cache budget,
  /// split evenly across shards. The metrics listener / metrics dump run on
  /// shard 0 only.
  NetServerConfig base;
  uint32_t threads = 1;  // clamped to [1, kMaxShards]
};

class ShardedServer {
 public:
  ShardedServer(const ShardedServerConfig& config,
                SpotCacheSystem* system = nullptr, Obs* system_obs = nullptr);

  ShardedServer(const ShardedServer&) = delete;
  ShardedServer& operator=(const ShardedServer&) = delete;

  /// Builds and binds every shard. Returns false (shards torn down) on any
  /// bind/listen failure.
  bool Start();
  /// Spawns one thread per shard and blocks until all of them exit (Stop()
  /// or fatal loop errors). Returns false if any shard loop failed.
  bool Run();
  /// Thread-safe, async-signal-safe-adjacent shutdown (atomic + eventfd per
  /// shard).
  void Stop();
  /// Fans the flight-recorder dump request out to every shard.
  /// Async-signal-safe: per shard one atomic store + one write(2).
  void RequestTelemetryDump();
  /// Injects the expiry clock into every shard (kept across Start(), so it
  /// may be set before or after it). Call before Run().
  void SetClock(std::function<int64_t()> now_unix);

  /// The cache port, shard 0's (after Start()).
  uint16_t port() const { return shards_.empty() ? 0 : shards_[0]->port(); }
  /// Shard 0's metrics port (0 when the scrape listener is off).
  uint16_t metrics_port() const {
    return shards_.empty() ? 0 : shards_[0]->metrics_port();
  }
  uint32_t shard_count() const { return shard_count_; }

  NetServer& shard(size_t i) { return *shards_[i]; }
  /// Shard i's obs bundle: the process's own (`system_obs`) when one shard
  /// serves with it, else a private one.
  Obs& shard_obs(size_t i) { return *shards_[i]->obs(); }

  /// Prometheus text of every shard's registry merged with the control-plane
  /// registry, plus `obs/shards` when there is more than one shard. Safe
  /// while serving, from any thread that holds no shard's work mutex.
  std::string RenderMetrics() {
    return RenderMetricsHolding(/*held=*/kMaxShards);  // none
  }

  /// The whole server's counters (what `stats` reports). Safe while
  /// serving.
  CoreSnapshot TotalSnapshot() const;

 private:
  /// RenderMetrics() for a caller that already holds shard `held`'s work
  /// mutex (shard 0's own loop; std::mutex is not recursive).
  std::string RenderMetricsHolding(uint32_t held);

  ShardedServerConfig config_;
  SpotCacheSystem* system_;
  Obs* system_obs_;
  std::function<int64_t()> clock_;
  uint32_t shard_count_;

  PartitionedStore store_;
  std::mutex system_mu_;
  std::mutex dump_mu_;
  std::vector<std::unique_ptr<Obs>> own_obs_;  // the shards' private bundles
  std::vector<std::unique_ptr<NetServer>> shards_;
  std::vector<const ServerCore*> cores_;  // shards_[i]->core(), for stats
};

}  // namespace spotcache::net
