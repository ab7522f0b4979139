// The benchmark's workloads: each is one traffic mix driven through one
// serving path (loadgen -> spotcache_proxy -> servers, or loadgen -> server).
//
// A workload fixes everything except the seed; the seed (a command-line
// argument) picks the op stream, the read-back sample and the fleet drill's
// kill schedule, so two seeds give two different but equally shaped runs.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/loadgen/engine.h"

namespace perfbench {

struct Workload {
  std::string name;
  std::string why;
  /// loadgen -> spotcache_proxy -> `primaries` servers (+ an idle backup);
  /// otherwise loadgen -> one spotcache_server.
  bool proxied = false;
  int primaries = 1;
  int server_threads = 1;
  int capacity_mb = 64;  // per server process
  /// Accept-and-handoff instead of SO_REUSEPORT: round-robin placement
  /// gives an even connection spread on every run (SO_REUSEPORT hashes the
  /// 4-tuple and lands 5:3, 6:2, 2:6 on different runs).
  bool force_dispatch = false;

  uint64_t num_keys = 10'000;
  double theta = 0.99;
  bool scramble = false;
  double get_ratio = 0.9;
  uint32_t value_min = 100;
  uint32_t value_max = 100;  // == value_min: fixed size

  /// The fixed offered rate of the measured window.
  double rate_rps = 10'000;
  /// Unmeasured open-loop traffic after the store fill, so the measured
  /// window starts with LRU eviction already steady.
  double warmup_s = 0.0;
};

/// One generator thread and 4 connections on every workload.
constexpr int kConnections = 4;

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

/// The value length the store fill uses for `key_id` (uniform in
/// [value_min, value_max], a pure function of the key).
uint32_t ValueLenFor(const Workload& w, uint64_t key_id);

/// The loadgen op stream of one measured slice.
spotcache::loadgen::EngineConfig MakeEngineConfig(const Workload& w,
                                                  uint16_t port, double rate,
                                                  double seconds,
                                                  uint64_t seed);

}  // namespace perfbench
