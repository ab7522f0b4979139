#include "src/loadgen/report.h"

#include <cstdarg>
#include <cstdio>

namespace spotcache::loadgen {

namespace {

std::string Fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

std::string MetaJson(const EngineConfig& config) {
  const ScheduleConfig& sc = config.stream.schedule;
  std::string phases = "[";
  for (size_t i = 0; i < sc.phases.size(); ++i) {
    const Phase& p = sc.phases[i];
    if (i > 0) {
      phases += ", ";
    }
    phases += Fmt(
        "{\"start_s\": %.3f, \"duration_s\": %.3f, \"rate_multiplier\": %.3f, "
        "\"hot_shift\": %llu}",
        p.start_s, p.duration_s, p.rate_multiplier,
        static_cast<unsigned long long>(p.hot_shift));
  }
  phases += "]";
  return Fmt(
             "{\"connections\": %d, \"seed\": %llu, \"keys\": %llu, "
             "\"theta\": %.3f, \"scramble\": %s, \"get_ratio\": %.3f, "
             "\"value_bytes\": %u, \"schedule\": \"%s\", \"rate_rps\": %.1f, "
             "\"duration_s\": %.3f, \"phases\": ",
             config.connections,
             static_cast<unsigned long long>(config.stream.seed),
             static_cast<unsigned long long>(config.stream.keys.num_keys),
             config.stream.keys.theta,
             config.stream.keys.scramble ? "true" : "false",
             config.stream.mix.get_ratio, config.stream.mix.value_bytes,
             sc.kind == ScheduleConfig::Kind::kDiurnal ? "diurnal" : "poisson",
             sc.base_rate_rps, sc.duration_s) +
         phases + "}";
}

std::string TotalsJson(const LoadGenResult& r) {
  return Fmt(
      "{\"offered_rps\": %.1f, \"achieved_rps\": %.1f, \"scheduled\": %llu, "
      "\"completed\": %llu, \"errors\": %llu, \"get_misses\": %llu, "
      "\"abandoned\": %llu, \"failed_conns\": %llu}",
      r.offered_rps, r.achieved_rps,
      static_cast<unsigned long long>(r.scheduled),
      static_cast<unsigned long long>(r.completed),
      static_cast<unsigned long long>(r.errors),
      static_cast<unsigned long long>(r.get_misses),
      static_cast<unsigned long long>(r.abandoned),
      static_cast<unsigned long long>(r.failed_conns));
}

std::string SegmentJson(const SegmentStats& s) {
  return Fmt(
             "{\"label\": \"%s\", \"duration_s\": %.3f, \"offered_rps\": "
             "%.1f, \"achieved_rps\": %.1f, \"scheduled\": %llu, "
             "\"completed\": %llu, \"errors\": %llu, \"get_misses\": %llu, "
             "\"latency_us\": ",
             s.label.c_str(), s.duration_s, s.offered_rps, s.achieved_rps,
             static_cast<unsigned long long>(s.scheduled),
             static_cast<unsigned long long>(s.completed),
             static_cast<unsigned long long>(s.errors),
             static_cast<unsigned long long>(s.get_misses)) +
         ToJson(s.latency) + "}";
}

/// Per-connection shard placement reported by the `stats spotcache` probe.
/// Shows whether offered load actually spread across a sharded server's
/// reactors (round-robin accept spreads evenly unless other clients
/// connected in between).
std::string ShardDistributionJson(const LoadGenResult& r) {
  std::string out =
      Fmt("{\"server_shards\": %u, \"connections_per_shard\": [",
          r.server_shards);
  for (size_t i = 0; i < r.shard_conn_counts.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += Fmt("%llu", static_cast<unsigned long long>(r.shard_conn_counts[i]));
  }
  out += "], \"conn_shards\": [";
  for (size_t i = 0; i < r.conn_shards.size(); ++i) {
    if (i > 0) {
      out += ", ";
    }
    out += Fmt("%d", r.conn_shards[i]);
  }
  out += "]}";
  return out;
}

}  // namespace

std::string RenderRunJson(const EngineConfig& config,
                          const LoadGenResult& result) {
  std::string out = "{\n  \"meta\": " + MetaJson(config) + ",\n";
  out += "  \"totals\": " + TotalsJson(result) + ",\n";
  if (!result.conn_shards.empty()) {
    out += "  \"shard_distribution\": " + ShardDistributionJson(result) + ",\n";
  }
  out += "  \"latency_us\": " + ToJson(result.latency) + ",\n";
  out += "  \"segments\": [\n";
  for (size_t i = 0; i < result.segments.size(); ++i) {
    out += "    " + SegmentJson(result.segments[i]);
    out += i + 1 < result.segments.size() ? ",\n" : "\n";
  }
  out += "  ]\n}";
  return out;
}

std::string RenderTraceJsonl(const EngineConfig& config,
                             const LoadGenResult& result) {
  std::string out = "{\"type\": \"run_config\", \"config\": ";
  out += MetaJson(config) + "}\n";
  for (size_t s = 0; s < result.per_second_completed.size(); ++s) {
    out += Fmt("{\"type\": \"interval\", \"t_s\": %zu, \"completed\": %llu}\n",
               s,
               static_cast<unsigned long long>(result.per_second_completed[s]));
  }
  for (const SegmentStats& seg : result.segments) {
    out += "{\"type\": \"segment\", \"segment\": " + SegmentJson(seg) + "}\n";
  }
  out += "{\"type\": \"run_summary\", \"ok\": ";
  out += result.ok ? "true" : "false";
  out += ", \"totals\": " + TotalsJson(result);
  out += ", \"latency_us\": " + ToJson(result.latency) + "}\n";
  return out;
}

}  // namespace spotcache::loadgen
