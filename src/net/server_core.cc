#include "src/net/server_core.h"

#include <inttypes.h>

#include "src/core/system.h"

namespace spotcache::net {

namespace {

TelemetryOp OpFor(Verb verb) {
  switch (verb) {
    case Verb::kGet:
    case Verb::kGets:
      return TelemetryOp::kGet;
    case Verb::kSet:
    case Verb::kAdd:
    case Verb::kReplace:
      return TelemetryOp::kSet;
    case Verb::kDelete:
      return TelemetryOp::kDelete;
    case Verb::kTouch:
      return TelemetryOp::kTouch;
    default:
      return TelemetryOp::kOther;
  }
}

}  // namespace

ServerCore::ServerCore(const ServerCoreConfig& config, SpotCacheSystem* system,
                       Obs* obs)
    : own_store_(std::make_unique<PartitionedStore>(1, config.capacity_bytes)),
      store_(own_store_.get()),
      system_(system),
      obs_(obs) {
  MetricsRegistry& reg = obs != nullptr ? obs->registry : own_registry_;
  cmd_get_ = reg.GetCounter("net/cmd_get");
  cmd_set_ = reg.GetCounter("net/sets");
  cmd_touch_ = reg.GetCounter("net/cmd_touch");
  cmd_delete_ = reg.GetCounter("net/cmd_delete");
  cmd_flush_ = reg.GetCounter("net/cmd_flush");
  get_hits_ = reg.GetCounter("net/get_hits");
  get_misses_ = reg.GetCounter("net/get_misses");
  sheds_ = reg.GetCounter("net/sheds");
  protocol_errors_ = reg.GetCounter("net/protocol_errors");
  if (obs != nullptr) {
    requests_ = reg.GetCounter("net/requests");
  }
}

void ServerCore::ConfigureShard(const ShardContext& ctx) {
  shard_ = ctx;
  if (ctx.store != nullptr) {
    store_ = ctx.store;
    own_store_.reset();
  }
}

ServedBy ServerCore::GateGet(std::string_view key) {
  if (system_ == nullptr) {
    return ServedBy::kCacheNode;
  }
  if (shard_.system_mu != nullptr) {
    std::lock_guard<std::mutex> lock(*shard_.system_mu);
    return system_->Get(HashString(key)).served_by;
  }
  const CacheResponse r = system_->Get(HashString(key));
  return r.served_by;
}

void ServerCore::GatePut(std::string_view key, size_t bytes) {
  if (system_ == nullptr) {
    return;
  }
  if (shard_.system_mu != nullptr) {
    std::lock_guard<std::mutex> lock(*shard_.system_mu);
    system_->Put(HashString(key), static_cast<uint32_t>(bytes));
    return;
  }
  system_->Put(HashString(key), static_cast<uint32_t>(bytes));
}

ServerCore::Outcome ServerCore::HandleRetrieve(const TextRequest& req,
                                               int64_t now,
                                               ResponseAssembler* out) {
  const bool with_cas = req.verb == Verb::kGets;
  const bool time_route =
      system_ != nullptr && telemetry_ != nullptr && telemetry_->span_active();
  Outcome result{RequestOutcome::kHit, 0};
  for (const std::string_view key : req.keys) {
    cmd_get_->Increment();
    ServedBy served;
    if (time_route) {
      const int64_t t0 = RequestTelemetry::NowMicros();
      served = GateGet(key);
      telemetry_->AddRouteTime(RequestTelemetry::NowMicros() - t0);
    } else {
      served = GateGet(key);
    }
    if (served == ServedBy::kDropped) {
      // The ladder shed this key: fail the whole retrieval loudly rather
      // than silently reporting a miss — clients must see backpressure.
      sheds_->Increment();
      out->Append("SERVER_ERROR temporarily overloaded\r\n");
      result.outcome = RequestOutcome::kShed;
      return result;
    }
    if (served == ServedBy::kBackup) {
      result.outcome = RequestOutcome::kBackup;
    }
    // Copy what the reply needs under the partition lock; the payload pin
    // keeps the bytes alive after the unlock, even if the item is evicted.
    PayloadRef data;
    uint32_t flags = 0;
    uint64_t cas = 0;
    {
      StorePartition& part = store_->of(key);
      std::lock_guard<std::mutex> lock(part.mu);
      if (const Item item = part.store.Get(key, now)) {
        data = item.block();
        flags = item.flags();
        cas = item.cas();
      }
    }
    if (!data) {
      get_misses_->Increment();
      if (result.outcome == RequestOutcome::kHit) {
        result.outcome = RequestOutcome::kMiss;
      }
      continue;
    }
    get_hits_->Increment();
    result.value_bytes += data->size();
    if (with_cas) {
      out->Appendf("VALUE %.*s %u %" PRIu32 " %" PRIu64 "\r\n",
                   static_cast<int>(key.size()), key.data(), flags,
                   data->size(), cas);
    } else {
      out->Appendf("VALUE %.*s %u %" PRIu32 "\r\n",
                   static_cast<int>(key.size()), key.data(), flags,
                   data->size());
    }
    out->AppendPinned(std::move(data));
    out->Append("\r\n");
  }
  out->Append("END\r\n");
  return result;
}

ServerCore::Outcome ServerCore::HandleStorage(const TextRequest& req,
                                              int64_t now,
                                              ResponseAssembler* out) {
  cmd_set_->Increment();
  const std::string_view key = req.keys[0];
  // The block is built before the lock, which then covers only the index
  // update and the cas draw. A refused block is freed at the end of this
  // function, after the unlock.
  PayloadRef block = Payload::Make(key, req.data);
  ItemStore::StoreResult result = ItemStore::StoreResult::kNotStored;
  {
    StorePartition& part = store_->of(key);
    std::lock_guard<std::mutex> lock(part.mu);
    switch (req.verb) {
      case Verb::kSet:
        result = part.store.Set(block, req.flags, req.exptime, now);
        break;
      case Verb::kAdd:
        result = part.store.Add(block, req.flags, req.exptime, now);
        break;
      case Verb::kReplace:
        result = part.store.Replace(block, req.flags, req.exptime, now);
        break;
      default:
        break;
    }
  }
  const bool stored = result == ItemStore::StoreResult::kStored;
  if (stored) {
    if (telemetry_ != nullptr && telemetry_->span_active() &&
        system_ != nullptr) {
      const int64_t t0 = RequestTelemetry::NowMicros();
      GatePut(key, req.data.size());
      telemetry_->AddRouteTime(RequestTelemetry::NowMicros() - t0);
    } else {
      GatePut(key, req.data.size());
    }
  }
  if (!req.noreply) {
    out->Append(stored ? "STORED\r\n" : "NOT_STORED\r\n");
  }
  return Outcome{stored ? RequestOutcome::kStored : RequestOutcome::kNotStored,
                 static_cast<uint32_t>(req.data.size())};
}

void ServerCore::AppendResilienceStats(ResponseAssembler* out) {
  // Sharded mode: the system (and its obs bundle, where resilience counters
  // live) is shared across shards — serialize the reads.
  std::unique_lock<std::mutex> sys_lock;
  if (shard_.system_mu != nullptr) {
    sys_lock = std::unique_lock<std::mutex>(*shard_.system_mu);
  }
  const ResilienceLayer* layer =
      system_ != nullptr ? system_->resilience() : nullptr;
  if (layer != nullptr) {
    const auto counts = layer->CountBreakerStates(system_->now());
    out->Appendf("STAT spotcache_breakers_closed %d\r\n", counts.closed);
    out->Appendf("STAT spotcache_breakers_open %d\r\n", counts.open);
    out->Appendf("STAT spotcache_breakers_half_open %d\r\n", counts.half_open);
    out->Appendf("STAT spotcache_breaker_trips %" PRId64 "\r\n",
                 layer->breaker_trips());
  }
  const Obs* robs = shard_.system_obs != nullptr ? shard_.system_obs : obs_;
  if (robs != nullptr) {
    const auto rung = [robs](const char* r) {
      return robs->registry.CounterValue("resilience/served", {{"rung", r}});
    };
    out->Appendf("STAT spotcache_served_primary %" PRId64 "\r\n",
                 rung("primary"));
    out->Appendf("STAT spotcache_served_backup %" PRId64 "\r\n",
                 rung("backup"));
    out->Appendf("STAT spotcache_served_backend %" PRId64 "\r\n",
                 rung("backend"));
    out->Appendf("STAT spotcache_served_shed %" PRId64 "\r\n", rung("shed"));
  }
  const int64_t keyed = cmd_get_->value() + cmd_set_->value();
  out->Appendf("STAT spotcache_shed_fraction %.6f\r\n",
               keyed == 0 ? 0.0
                          : static_cast<double>(sheds_->value()) /
                                static_cast<double>(keyed));
}

void ServerCore::AppendSpotcacheStats(ResponseAssembler* out) {
  out->Appendf("STAT spotcache_version %s\r\n", kServerVersion);
  if (sharded()) {
    // Which reactor owns this connection (loadgen uses this to report its
    // per-connection shard distribution), plus the shard fan-out. Telemetry
    // lines below stay per-shard: they describe this reactor's loop.
    out->Appendf("STAT spotcache_shard %u\r\n", shard_.self);
    out->Appendf("STAT spotcache_shard_count %u\r\n", shard_.count);
  }
  AppendResilienceStats(out);
  if (telemetry_ != nullptr) {
    const RequestTelemetryConfig& tc = telemetry_->config();
    out->Appendf("STAT spotcache_span_sample_every %u\r\n",
                 tc.span_sample_every);
    out->Appendf("STAT spotcache_latency_sample_every %u\r\n",
                 tc.latency_sample_every);
    out->Appendf("STAT spotcache_requests_seen %" PRIu64 "\r\n",
                 telemetry_->requests_seen());
    out->Appendf("STAT spotcache_spans_recorded %" PRIu64 "\r\n",
                 telemetry_->spans_recorded());
    out->Appendf("STAT spotcache_latencies_recorded %" PRIu64 "\r\n",
                 telemetry_->latencies_recorded());
    out->Appendf("STAT spotcache_slow_requests %" PRIu64 "\r\n",
                 telemetry_->slow_requests());
    out->Appendf("STAT spotcache_flight_ring_size %zu\r\n",
                 telemetry_->ring_size());
  }
  if (obs_ == nullptr) {
    return;
  }
  const MetricsRegistry& reg = obs_->registry;
  out->Appendf("STAT spotcache_loop_iterations %" PRId64 "\r\n",
               reg.CounterValue("net/loop/iterations"));
  out->Appendf("STAT spotcache_loop_stalls %" PRId64 "\r\n",
               reg.CounterValue("net/loop/stalls"));
  out->Appendf("STAT spotcache_pending_out_high_water_bytes %.0f\r\n",
               reg.GaugeValue("net/pending_out_high_water_bytes"));
  out->Appendf("STAT spotcache_conns_high_water %.0f\r\n",
               reg.GaugeValue("net/conns_high_water"));
  // Event-loop and per-(op, outcome) latency quantiles, microseconds. The
  // histogram names are canonical full names, so the (op, outcome) pair is
  // recoverable from the label block: net/request_latency_s{op=x,outcome=y}.
  for (const auto& [full, hist] : reg.histograms()) {
    std::string flat;
    if (full == "net/loop/wait_s") {
      flat = "loop_wait";
    } else if (full == "net/loop/work_s") {
      flat = "loop_work";
    } else if (full.rfind("net/request_latency_s{", 0) == 0) {
      // "_<value>" per label, in canonical order (op, outcome).
      flat = "latency";
      std::string base;
      MetricLabels labels;
      MetricsRegistry::SplitFullName(full, &base, &labels);
      for (const auto& label : labels) {
        flat += '_';
        flat += label.second;
      }
    } else {
      continue;
    }
    const std::vector<double> qs = hist.Quantiles({0.5, 0.99});
    out->Appendf("STAT spotcache_%s_count %" PRIu64 "\r\n", flat.c_str(),
                 hist.count());
    out->Appendf("STAT spotcache_%s_p50_us %.0f\r\n", flat.c_str(),
                 qs[0] * 1e6);
    out->Appendf("STAT spotcache_%s_p99_us %.0f\r\n", flat.c_str(),
                 qs[1] * 1e6);
  }
}

void ServerCore::AppendDefaultStats(int64_t now, ResponseAssembler* out) {
  const CoreSnapshot t = Snapshot();
  const auto stat_u = [out](const char* name, uint64_t v) {
    out->Appendf("STAT %s %" PRIu64 "\r\n", name, v);
  };
  out->Appendf("STAT version %s\r\n", kServerVersion);
  stat_u("uptime",
         t.start_time >= 0 ? static_cast<uint64_t>(now - t.start_time) : 0);
  stat_u("curr_items", t.curr_items);
  stat_u("bytes", t.bytes_used);
  stat_u("limit_maxbytes", t.capacity_bytes);
  stat_u("cmd_get", t.cmd_get);
  stat_u("cmd_set", t.cmd_set);
  stat_u("cmd_touch", t.cmd_touch);
  stat_u("cmd_delete", t.cmd_delete);
  stat_u("cmd_flush", t.cmd_flush);
  stat_u("get_hits", t.get_hits);
  stat_u("get_misses", t.get_misses);
  stat_u("evictions", t.evictions);
  stat_u("expired_unfetched", t.expired_reaped);
  stat_u("sheds", t.sheds);
  stat_u("protocol_errors", t.protocol_errors);
  if (system_ != nullptr) {
    AppendResilienceStats(out);
  }
}

void ServerCore::HandleStats(const TextRequest& req, int64_t now,
                             ResponseAssembler* out) {
  if (req.stats_arg == "spotcache") {
    AppendSpotcacheStats(out);
  } else {
    AppendDefaultStats(now, out);
  }
  out->Append("END\r\n");
}

bool ServerCore::Handle(const TextRequest& req, int64_t now,
                        ResponseAssembler* out) {
  if (start_time_.load(std::memory_order_relaxed) < 0) {
    start_time_.store(now, std::memory_order_relaxed);
  }
  if (requests_ != nullptr) {
    requests_->Increment();
  }
  if (telemetry_ != nullptr) {
    telemetry_->OnParsed(OpFor(req.verb),
                         static_cast<uint32_t>(req.keys.size()));
  }
  Outcome outcome;
  bool keep_open = true;
  switch (req.verb) {
    case Verb::kGet:
    case Verb::kGets:
      outcome = HandleRetrieve(req, now, out);
      break;

    case Verb::kSet:
    case Verb::kAdd:
    case Verb::kReplace:
      outcome = HandleStorage(req, now, out);
      break;

    case Verb::kDelete:
    case Verb::kTouch: {
      const bool touch = req.verb == Verb::kTouch;
      (touch ? cmd_touch_ : cmd_delete_)->Increment();
      const std::string_view key = req.keys[0];
      bool found;
      {
        StorePartition& part = store_->of(key);
        std::lock_guard<std::mutex> lock(part.mu);
        found = touch ? part.store.Touch(key, req.exptime, now)
                      : part.store.Delete(key, now);
      }
      if (!req.noreply) {
        out->Append(!found ? "NOT_FOUND\r\n"
                    : touch ? "TOUCHED\r\n"
                            : "DELETED\r\n");
      }
      outcome.outcome = found ? RequestOutcome::kHit : RequestOutcome::kMiss;
      break;
    }

    case Verb::kStats:
      HandleStats(req, now, out);
      break;

    case Verb::kVersion:
      out->Appendf("VERSION %s\r\n", kServerVersion);
      break;

    case Verb::kFlushAll:
      cmd_flush_->Increment();
      for (uint32_t i = 0; i < store_->count(); ++i) {
        StorePartition& part = store_->at(i);
        std::lock_guard<std::mutex> lock(part.mu);
        part.store.FlushAll(now, req.delay_s);
      }
      if (!req.noreply) {
        out->Append("OK\r\n");
      }
      break;

    case Verb::kQuit:
      keep_open = false;
      break;
  }
  if (telemetry_ != nullptr) {
    telemetry_->OnExecuted(outcome.outcome, outcome.value_bytes);
  }
  return keep_open;
}

void ServerCore::HandleParseError(ParseErrorKind kind, ResponseAssembler* out) {
  protocol_errors_->Increment();
  out->Append(ErrorReply(kind));
}

CoreSnapshot ServerCore::Snapshot() const {
  CoreSnapshot s;
  store_->AddStoreStats(&s);
  if (shard_.cores != nullptr) {
    for (const ServerCore* core : *shard_.cores) {
      core->AddCounters(&s);
    }
  } else {
    AddCounters(&s);
  }
  return s;
}

void ServerCore::AddCounters(CoreSnapshot* s) const {
  s->cmd_get += cmd_get_->value();
  s->cmd_set += cmd_set_->value();
  s->cmd_touch += cmd_touch_->value();
  s->cmd_delete += cmd_delete_->value();
  s->cmd_flush += cmd_flush_->value();
  s->get_hits += get_hits_->value();
  s->get_misses += get_misses_->value();
  s->sheds += sheds_->value();
  s->protocol_errors += protocol_errors_->value();
  const int64_t start = start_time_.load(std::memory_order_relaxed);
  if (start >= 0 && (s->start_time < 0 || start < s->start_time)) {
    s->start_time = start;
  }
}

}  // namespace spotcache::net
