// Transport-independent memcached command execution.
//
// ServerCore turns parsed TextRequests into wire responses against an
// ItemStore, optionally routed through the simulation stack: when a
// SpotCacheSystem is attached, every get/set also flows through
// Router::Route and SpotCacheSystem::Get/Put (string keys hashed to KeyIds),
// so the degradation ladder, circuit breakers, and admission control gate
// real connections. The ItemStore stays authoritative for payload bytes —
// the system models placement, health, and shedding; a ladder decision of
// "shed" turns the reply into SERVER_ERROR instead of serving.
//
// Handle() is a pure function of (request, now, store/system state): no wall
// clock, no I/O, no iteration-order dependence — which is what lets the
// conformance suite run the same tables both in-process and over a socket,
// and the fuzzer compare byte-identical outputs across stream chunkings.
//
// Telemetry (optional, attached by the server): each handled request reports
// its (op, outcome) classification, and span-sampled requests get their
// ladder/router time stamped separately from store time, so the flight
// recorder can attribute tail latency to route vs. store phases. The
// wall-clock reads live behind `telemetry->span_active()` (1/256 by
// default), preserving Handle()'s determinism for every unsampled request.
//
// Stats surfaces: plain `stats` emits the memcached-compatible block plus
// `STAT spotcache_*` resilience lines (breaker states, shed fraction);
// `stats spotcache` emits the full server-telemetry extension (event-loop
// health, sampled span counts, per-(op, outcome) latency quantiles).

// Sharded serving: the store is a PartitionedStore (sharding.h). A
// standalone core owns a single-partition one; a reactor of the multi-core
// server shares the server's N partitions with its peers. Either way every
// store call locks the key's partition around it and the reply is built after
// the unlock, so a core never waits on another reactor.
//
// Counts: each command count lives in one registry Counter, in the attached
// Obs or, without one, in the core's own registry. The owning reactor bumps
// it, `stats` on any reactor sums every core's, and the scrape renders the
// same Counter (DESIGN.md lists each count's `stats` and scrape names).

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/cache/cache_protocol.h"
#include "src/net/item_store.h"
#include "src/net/protocol.h"
#include "src/net/request_handler.h"
#include "src/net/response.h"
#include "src/net/sharding.h"
#include "src/obs/obs.h"
#include "src/obs/request_telemetry.h"
#include "src/routing/hash.h"

namespace spotcache {
class SpotCacheSystem;
}  // namespace spotcache

namespace spotcache::net {

struct ServerCoreConfig {
  size_t capacity_bytes = 64 * 1024 * 1024;
};

class ServerCore;

/// Identity + plumbing of one shard in the multi-core server. The default
/// (count 1, no shared store) is the standalone core.
struct ShardContext {
  uint32_t self = 0;
  uint32_t count = 1;
  /// The server's partitions, shared by every shard's core.
  PartitionedStore* store = nullptr;
  /// Every shard's core, indexed by shard: `stats` sums their counters.
  const std::vector<const ServerCore*>* cores = nullptr;
  /// Serializes access to the shared SpotCacheSystem (the control-plane
  /// model is not thread-safe; its gate calls are heavyweight already).
  std::mutex* system_mu = nullptr;
  /// The obs bundle the shared system publishes into (resilience counters
  /// live there, not in the per-shard registries).
  Obs* system_obs = nullptr;
};

class ServerCore : public RequestHandler {
 public:
  explicit ServerCore(const ServerCoreConfig& config,
                      SpotCacheSystem* system = nullptr, Obs* obs = nullptr);

  /// Attaches the serving-path telemetry (non-owning; may be null). The
  /// server wires its RequestTelemetry in here so Handle() can classify
  /// outcomes and stamp route/store phases on sampled requests.
  void set_telemetry(RequestTelemetry* telemetry) override {
    telemetry_ = telemetry;
  }

  /// Executes one request at unix-seconds `now`, appending any reply to
  /// `out` (noreply suppresses success/failure status lines, per protocol).
  /// Returns false when the connection should close (quit).
  bool Handle(const TextRequest& req, int64_t now,
              ResponseAssembler* out) override;

  /// Appends the reply for a parse error (always sent: memcached reports
  /// protocol errors even on noreply commands).
  void HandleParseError(ParseErrorKind kind, ResponseAssembler* out) override;

  /// Makes this core shard `ctx.self` of `ctx.count`: it serves from the
  /// server's shared partitions instead of its own store. Must be called
  /// before serving starts.
  void ConfigureShard(const ShardContext& ctx);
  bool sharded() const { return shard_.count > 1; }

  /// The whole server's counters: every partition's store counters and
  /// every shard's command counters. Safe from any thread.
  CoreSnapshot Snapshot() const;

  /// The first partition's store: a standalone core's whole store. Not
  /// synchronized; for a core whose server is not serving.
  ItemStore& store() { return store_->at(0).store; }

  uint64_t protocol_errors() const { return protocol_errors_->value(); }

 private:
  /// (outcome, bytes) classification of one handled request, reported to
  /// the telemetry layer by Handle().
  struct Outcome {
    RequestOutcome outcome = RequestOutcome::kOther;
    uint32_t value_bytes = 0;
  };

  Outcome HandleRetrieve(const TextRequest& req, int64_t now,
                         ResponseAssembler* out);
  Outcome HandleStorage(const TextRequest& req, int64_t now,
                        ResponseAssembler* out);
  void HandleStats(const TextRequest& req, int64_t now,
                   ResponseAssembler* out);
  /// The memcached-compatible stats block (+ spotcache_* resilience lines).
  void AppendDefaultStats(int64_t now, ResponseAssembler* out);
  /// `STAT spotcache_*` resilience lines (breaker states, shed fraction).
  void AppendResilienceStats(ResponseAssembler* out);
  /// The `stats spotcache` extension: telemetry + event-loop health.
  void AppendSpotcacheStats(ResponseAssembler* out);
  /// Consults the attached system's ladder for one keyed operation; reports
  /// who (model-)served it. kDropped means the request should be shed.
  ServedBy GateGet(std::string_view key);
  void GatePut(std::string_view key, size_t bytes);

  /// Adds this core's command counters into `s`.
  void AddCounters(CoreSnapshot* s) const;

  std::unique_ptr<PartitionedStore> own_store_;  // null once sharded
  PartitionedStore* store_;
  SpotCacheSystem* system_;
  Obs* obs_;
  RequestTelemetry* telemetry_ = nullptr;
  ShardContext shard_;
  std::atomic<int64_t> start_time_{-1};  // first-request time, for uptime

  /// The counts' home when no Obs is attached.
  MetricsRegistry own_registry_;
  Counter* cmd_get_;  // keys asked for by get/gets
  Counter* cmd_set_;
  Counter* cmd_touch_;
  Counter* cmd_delete_;
  Counter* cmd_flush_;
  Counter* get_hits_;
  Counter* get_misses_;
  Counter* sheds_;
  Counter* protocol_errors_;
  /// Requests handled: scrape-only, so null without an Obs.
  Counter* requests_ = nullptr;
};

}  // namespace spotcache::net
