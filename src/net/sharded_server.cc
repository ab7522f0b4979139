#include "src/net/sharded_server.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "src/obs/exporters.h"
#include "src/util/logging.h"

namespace spotcache::net {

ShardedServer::ShardedServer(const ShardedServerConfig& config,
                             SpotCacheSystem* system, Obs* system_obs)
    : config_(config),
      system_(system),
      system_obs_(system_obs),
      shard_count_(std::clamp<uint32_t>(config.threads, 1, kMaxShards)),
      store_(shard_count_,
             std::max<size_t>(config.base.core.capacity_bytes / shard_count_,
                              1)) {}

bool ShardedServer::Start() {
  for (uint32_t i = 0; i < shard_count_; ++i) {
    NetServerConfig c = config_.base;
    if (i > 0) {
      // The scrape listener, metrics dump file, and trace surface live on
      // shard 0; peers keep only their private registries + the shared span
      // file.
      c.metrics_port = -1;
      c.metrics_dump_path.clear();
    }
    // One shard serves with the process's Obs, as a plain NetServer would.
    Obs* obs = shard_count_ == 1 ? system_obs_ : nullptr;
    if (obs == nullptr) {
      own_obs_.push_back(std::make_unique<Obs>());
      obs = own_obs_.back().get();
      // Per-shard tracers inherit the system tracer's enablement: each ring
      // is only ever touched by its owning reactor thread, and the shutdown
      // path concatenates the per-shard JSONL streams into the one trace
      // file.
      obs->tracer.set_enabled(system_obs_ != nullptr &&
                              system_obs_->tracer.enabled());
    }
    auto shard = std::make_unique<NetServer>(c, system_, obs);
    if (clock_) {
      shard->SetClock(clock_);
    }
    ShardContext ctx;
    ctx.self = i;
    ctx.count = shard_count_;
    ctx.store = &store_;
    ctx.cores = &cores_;
    if (shard_count_ > 1) {
      if (system_ != nullptr) {
        ctx.system_mu = &system_mu_;
        ctx.system_obs = system_obs_;
      }
      shard->SetDumpMutex(&dump_mu_);
    }
    if (i == 0) {
      shard->SetMetricsRenderer([this] { return RenderMetricsHolding(0); });
    }
    shard->ConfigureShard(ctx);
    if (!shard->Start()) {
      SPOTCACHE_LOG(kError) << "shard " << i << " failed to start";
      shards_.clear();
      own_obs_.clear();
      cores_.clear();
      return false;
    }
    cores_.push_back(&shard->core());
    shards_.push_back(std::move(shard));
  }
  if (shard_count_ > 1) {
    std::vector<NetServer*> targets;
    for (auto& shard : shards_) {
      targets.push_back(shard.get());
    }
    shards_[0]->SetDispatcher(std::move(targets));
  }
  return true;
}

bool ShardedServer::Run() {
  if (shards_.size() == 1) {
    return shards_[0]->Run();
  }
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  threads.reserve(shards_.size());
  for (uint32_t i = 0; i < shard_count_; ++i) {
    threads.emplace_back([this, i, &ok] {
      if (!shards_[i]->Run()) {
        ok.store(false, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  return ok.load(std::memory_order_relaxed);
}

void ShardedServer::Stop() {
  for (auto& shard : shards_) {
    shard->Stop();
  }
}

void ShardedServer::RequestTelemetryDump() {
  for (auto& shard : shards_) {
    shard->RequestTelemetryDump();
  }
}

void ShardedServer::SetClock(std::function<int64_t()> now_unix) {
  clock_ = std::move(now_unix);
  for (auto& shard : shards_) {
    shard->SetClock(clock_);
  }
}

std::string ShardedServer::RenderMetricsHolding(uint32_t held) {
  MetricsRegistry merged;
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    if (i == held) {
      merged.MergeFrom(shards_[i]->obs()->registry);
      continue;
    }
    shards_[i]->LockWork();
    merged.MergeFrom(shards_[i]->obs()->registry);
    shards_[i]->UnlockWork();
  }
  if (shard_count_ > 1) {
    if (system_obs_ != nullptr) {
      // After the shards, holding no peer's work mutex: see the lock order
      // in sharded_server.h.
      std::lock_guard<std::mutex> lock(system_mu_);
      merged.MergeFrom(system_obs_->registry);
    }
    merged.GetGauge("obs/shards")->Set(static_cast<double>(shard_count_));
  }
  return ToPrometheusText(merged);
}

CoreSnapshot ShardedServer::TotalSnapshot() const {
  return shards_.empty() ? CoreSnapshot{} : shards_[0]->core().Snapshot();
}

}  // namespace spotcache::net
