// Per-layer measurements that run outside the serving processes: the offline
// ledger, the traced in-process proxy stack, and the fleet revocation drill.
// Each returns named values; main.cc attaches names' units and prints them.

#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "perfbench/src/stack.h"
#include "perfbench/src/workload.h"

namespace perfbench {

using Values = std::map<std::string, double>;

/// Replays the workload's seeded op stream through each layer's public
/// functions in this process: OpGenerator::Next, RequestParser, ServerCore,
/// ItemStore and ReplyReader. Run it first in the process: the store's
/// bytes-per-item figure is this process's RSS growth.
Values RunLedger(const Workload& w, uint64_t seed);

/// Hosts the proxy and its servers in this process (NetServer + a timing
/// RequestHandler around ProxyCore / ServerCore), drives them open loop at
/// the workload's rate with spans on and off, and writes the spans as JSONL
/// to `spans_path`. Proxied workloads only.
Values RunTraced(const Workload& w, uint64_t seed, double seconds,
                 const std::string& spans_path, std::string* error);

/// fleet::RunFleetDrill in proxy mode: 3 primaries + backup, a seeded
/// schedule of warned and unwarned kills. Sets `failed` to the ops the client
/// saw fail.
Values RunDrill(const Bins& bins, uint64_t seed, const std::string& work_dir,
                uint64_t* attempted, uint64_t* failed, std::string* error);

}  // namespace perfbench
