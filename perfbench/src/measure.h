// Open-loop measurement on top of loadgen::RunOpenLoop: one slice at a fixed
// offered rate, and the saturation knee found on a fixed geometric ladder.
//
// Every figure here is taken from what the client saw complete, never from
// what it was asked to offer: achieved_rps divides completions by the real
// completion window (LoadGenResult::windows), so a server that falls behind
// shows a longer window and a lower rate even though every op eventually
// completes.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "perfbench/src/workload.h"
#include "src/loadgen/engine.h"

namespace perfbench {

struct Slice {
  spotcache::loadgen::LoadGenResult r;
  double wall_s = 0.0;
  /// CPU of the generator thread (RUSAGE_THREAD) over the slice.
  double driver_cpu_s = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double offered_rps = 0.0;
  double achieved_rps = 0.0;
  uint64_t gets = 0;
  uint64_t get_hits = 0;
  /// Error replies + ops abandoned in flight (dead connection or drain
  /// deadline).
  uint64_t failed = 0;
};

/// One open-loop run of `seconds` at `rate` against `port`. Replies still
/// in flight `drain_s` after the schedule ends are abandoned.
Slice RunSlice(const Workload& w, uint16_t port, double rate, double seconds,
               uint64_t seed, double drain_s = 5.0);

/// Quantile (microseconds) of a latency histogram recorded in seconds,
/// interpolated log-linearly inside the bucket that holds the rank, so the
/// estimate moves continuously with the samples instead of snapping to
/// bucket midpoints.
double QuantileUs(const spotcache::LogHistogram& hist, double q);

struct Knee {
  double rps = 0.0;
  /// The ladder reached the generator's ceiling: the knee is a lower bound,
  /// not a measurement.
  bool censored = false;
  int probes = 0;
};

/// Highest rung of rate/2 * 1.05^i, up to the generator's ceiling, whose
/// probe meets p99 <= 10 ms, achieved >= 0.98 x offered, and nothing failed
/// or abandoned. The limit sits well above the few-ms scheduling stalls a
/// shared virtual machine shows at every rate, so the knee marks the queue
/// growing, not one stall. Binary search over the rung index; `settle` runs
/// after every probe and returns once the stack is idle again.
Knee FindKnee(const Workload& w, uint16_t port, uint64_t seed, double probe_s,
              const std::function<void()>& settle);

double Median(std::vector<double> v);

}  // namespace perfbench
