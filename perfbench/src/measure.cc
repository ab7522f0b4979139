#include "perfbench/src/measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kLadderStep = 1.05;
constexpr double kP99LimitUs = 10'000;
/// What one generator thread sustains offered against a 2-shard server.
constexpr double kGeneratorCeilingRps = 400'000;

double ThreadCpuSeconds() {
  rusage ru{};
  ::getrusage(RUSAGE_THREAD, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

}  // namespace

double QuantileUs(const spotcache::LogHistogram& hist, double q) {
  const uint64_t n = hist.count();
  if (n == 0) {
    return 0.0;
  }
  const auto& buckets = hist.buckets();
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(n);
  double seen = 0.0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    const double c = static_cast<double>(buckets[b]);
    if (c == 0.0 || seen + c < target) {
      seen += c;
      continue;
    }
    const double hi = hist.BucketUpperBound(b);
    const double lo = b == 0 ? hi : hist.BucketUpperBound(b - 1);
    const double frac = std::clamp((target - seen) / c, 0.0, 1.0);
    const double v = lo * std::pow(hi / lo, frac);
    return std::min(v, hist.max_recorded()) * 1e6;
  }
  return hist.max_recorded() * 1e6;
}

Slice RunSlice(const Workload& w, uint16_t port, double rate, double seconds,
               uint64_t seed, double drain_s) {
  Slice s;
  auto config = MakeEngineConfig(w, port, rate, seconds, seed);
  config.drain_timeout_s = drain_s;
  const double cpu0 = ThreadCpuSeconds();
  const auto t0 = Clock::now();
  s.r = spotcache::loadgen::RunOpenLoop(config);
  s.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  s.driver_cpu_s = ThreadCpuSeconds() - cpu0;

  s.p50_us = QuantileUs(s.r.merged_hist, 0.50);
  s.p90_us = QuantileUs(s.r.merged_hist, 0.90);
  s.p99_us = QuantileUs(s.r.merged_hist, 0.99);
  s.offered_rps = static_cast<double>(s.r.scheduled) / seconds;

  // Real completion window: from the schedule start to the end of the last
  // window that saw a completion (never shorter than the schedule).
  uint64_t completions = 0;
  int64_t last_end_us = 0;
  for (const auto& win : s.r.windows) {
    const uint64_t c = win.gets + win.sets + win.errors;
    completions += c;
    if (c > 0) {
      last_end_us = win.start_us + config.window_us;
    }
    s.gets += win.gets;
    s.get_hits += win.get_hits;
  }
  const double window_s =
      std::max(seconds, static_cast<double>(last_end_us) * 1e-6);
  s.achieved_rps = static_cast<double>(completions) / window_s;
  s.failed = s.r.errors + s.r.abandoned;
  if (!s.r.ok) {
    s.failed = std::max(s.failed, s.r.scheduled - s.r.completed + s.r.errors);
  }
  return s;
}

Knee FindKnee(const Workload& w, uint16_t port, uint64_t seed, double probe_s,
              const std::function<void()>& settle) {
  std::vector<double> rungs;
  for (double r = w.rate_rps / 2; r <= kGeneratorCeilingRps; r *= kLadderStep) {
    rungs.push_back(r);
  }
  Knee knee;
  double passed_rps = 0.0;  // achieved rate of the last passing probe
  auto probe = [&](double rate) {
    // A short drain: an overloaded probe leaves a backlog behind, and
    // `settle` waits it out before the next probe.
    const Slice s = RunSlice(w, port, rate, probe_s,
                             seed + 1000 + static_cast<uint64_t>(knee.probes),
                             /*drain_s=*/0.5);
    ++knee.probes;
    settle();
    std::fprintf(stderr, "probe %.0f rps: p99 %.1f us, %.0f of %.0f rps, %llu failed\n",
                 rate, s.p99_us, s.achieved_rps, s.offered_rps,
                 static_cast<unsigned long long>(s.failed));
    const bool pass = s.r.ok && s.failed == 0 && s.r.failed_conns == 0 &&
                      s.p99_us <= kP99LimitUs &&
                      s.achieved_rps >= 0.98 * s.offered_rps;
    if (pass) {
      passed_rps = s.achieved_rps;
    }
    return pass;
  };
  int lo = -1;                              // highest rung known to pass
  int hi = static_cast<int>(rungs.size());  // lowest rung known to fail
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    const double rate = rungs[static_cast<size_t>(mid)];
    // Each rung is decided by two of three probes, so one tail spike (or
    // one lucky quiet second) on a shared machine does not steer the search.
    int passes = static_cast<int>(probe(rate)) + static_cast<int>(probe(rate));
    if (passes == 1) {
      passes += static_cast<int>(probe(rate));
    }
    if (passes >= 2) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  // The knee is what the stack completed at the highest passing rung (the
  // rung itself when even the lowest rung failed).
  knee.rps = lo >= 0 ? passed_rps : rungs.front();
  knee.censored = lo == static_cast<int>(rungs.size()) - 1;
  return knee;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
