// The revocation drill: fleet::RunFleetDrill in proxy mode, read for the
// fleet layer's recovery figures and the proxy's breaker/backup ladder.

#include <unistd.h>

#include <algorithm>
#include <vector>

#include "perfbench/src/layers.h"
#include "perfbench/src/measure.h"
#include "src/fleet/drill.h"

namespace perfbench {

Values RunDrill(const Bins& bins, uint64_t seed, const std::string& work_dir,
                uint64_t* attempted, uint64_t* failed, std::string* error) {
  spotcache::fleet::FleetDrillConfig c;
  c.server_binary = bins.server;
  c.proxy_binary = bins.proxy;
  c.seed = seed;
  c.primaries = 3;
  c.membership_path =
      work_dir + "/members-" + std::to_string(::getpid()) + ".txt";
  // Two kills; about half the warnings are missed, so the seeded schedule
  // mixes warned (Fig 4 case 1a) and unwarned (case 2) revocations.
  c.scenario.name = "perfbench_drill";
  c.scenario.storm_count = 2;
  c.scenario.storm_market_fraction = 1.0 / c.primaries;
  c.scenario.missed_warning_fraction = 0.5;
  c.scenario.window_start = spotcache::SimTime();
  c.scenario.window_end = spotcache::SimTime() + spotcache::Duration::Minutes(10);

  const spotcache::fleet::FleetDrillReport r = spotcache::fleet::RunFleetDrill(c);
  ::unlink(c.membership_path.c_str());
  Values v;
  *attempted = r.loadgen.scheduled;
  *failed = r.loadgen.errors + r.loadgen.abandoned;
  if (!r.ok) {
    *error = "drill: " + r.error;
    return v;
  }
  if (r.loadgen.failed_conns > 0) {
    *error = "drill: client connections failed";
  }

  std::vector<double> ready_ms, warmup_s;
  double bytes = 0, seconds = 0, missing = 0;
  int64_t last_kill_us = 0;
  for (const auto& rec : r.recoveries) {
    // A warned kill launches its replacement at the warning, an unwarned
    // one at the kill.
    const int64_t launched_us =
        rec.warned && rec.warning_us >= 0 ? rec.warning_us : rec.kill_us;
    if (rec.replacement_ready_us >= 0 && launched_us >= 0) {
      ready_ms.push_back(
          static_cast<double>(rec.replacement_ready_us - launched_us) / 1e3);
    }
    warmup_s.push_back(rec.warmup.duration_s);
    bytes += static_cast<double>(rec.warmup.bytes_copied);
    seconds += rec.warmup.duration_s;
    missing += static_cast<double>(rec.warmup.items_missing);
    last_kill_us = std::max(last_kill_us, rec.kill_us);
  }
  v["fleet.replacement_ready_ms"] = Median(ready_ms);
  v["fleet.warmup_s"] = Median(warmup_s);
  v["fleet.warmup_mb_per_s"] =
      seconds > 0 ? bytes / seconds / (1024.0 * 1024.0) : 0.0;
  v["fleet.warmup_items_missing"] = missing;
  // From the last kill until the windowed hit ratio is back at >= 90% of
  // its pre-kill value (the rest of the drill when it never is).
  const int64_t end_us = r.recovered ? r.recovered_us
                                     : static_cast<int64_t>(r.duration_s * 1e6);
  v["fleet.recovery_s"] =
      static_cast<double>(std::max<int64_t>(end_us - last_kill_us, 0)) / 1e6;

  auto stat = [&r](const char* name) {
    const auto it = r.proxy_stats.find(name);
    return it == r.proxy_stats.end() ? 0.0 : static_cast<double>(it->second);
  };
  // backup_served counts keys and writes, so its base is keys + writes.
  const double keyed =
      std::max(stat("proxy_get_keys") + stat("proxy_sets"), 1.0);
  v["proxy.backup_served_frac"] = stat("proxy_backup_served") / keyed;
  v["proxy.breaker_skips"] = stat("proxy_breaker_skips");
  v["proxy.reconnects"] = stat("proxy_reconnects");
  return v;
}

}  // namespace perfbench
