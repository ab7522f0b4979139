// The serving stack under test, run as real processes: spotcache_server
// primaries (plus an idle backup and a spotcache_proxy when proxied), their
// readiness handshake, the store fill, and everything the benchmark reads
// from outside them — /proc CPU and memory, `stats` replies and the
// Prometheus scrape on --metrics-port.

#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/workload.h"

namespace perfbench {

/// One child process that speaks the `listening <port>` readiness contract.
/// Dies with the benchmark (PR_SET_PDEATHSIG) and is reaped on Stop().
class Child {
 public:
  /// Starts `argv` and waits for its readiness lines. Null on failure.
  static std::unique_ptr<Child> Spawn(const std::vector<std::string>& argv,
                                      std::string* error);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// SIGTERM, then SIGKILL after a grace period; always reaps.
  void Stop();

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }
  uint16_t metrics_port() const { return metrics_port_; }

 private:
  Child() = default;
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
  uint16_t metrics_port_ = 0;
};

/// CPU of one process: user/sys from /proc/<pid>/stat (clock ticks) and the
/// nanosecond on-CPU total summed over /proc/<pid>/task/*/schedstat.
struct ProcCpu {
  double user_s = 0.0;
  double sys_s = 0.0;
  double oncpu_s = 0.0;
  /// On-CPU seconds per thread id.
  std::map<int, double> threads;
};
ProcCpu ReadProcCpu(pid_t pid);
/// Summed on-CPU seconds of `pids`.
double OnCpuSeconds(const std::vector<pid_t>& pids);
/// Sleeps until the processes together use under 2% of a core over 50 ms
/// (or 5 s pass): the backlog of an overloaded run has drained.
void WaitIdle(const std::vector<pid_t>& pids);
/// Peak resident set (VmHWM) in MiB; 0 when unreadable.
double ReadVmHwmMb(pid_t pid);
/// Current resident set (VmRSS) in bytes of this process.
double ReadSelfRssBytes();

/// `stats` over a fresh connection, as name -> value (numeric lines only).
std::map<std::string, double> ReadStats(uint16_t port);
/// Numeric samples of a Prometheus scrape (unlabelled lines only).
std::map<std::string, double> ScrapeMetrics(uint16_t metrics_port);

struct Bins {
  std::string server;
  std::string proxy;
};

/// The running stack of one workload.
struct Stack {
  std::vector<std::unique_ptr<Child>> primaries;
  std::unique_ptr<Child> backup;  // proxied only (idle)
  std::unique_ptr<Child> proxy;   // proxied only

  /// Where the load generator connects: the proxy, or the single server.
  uint16_t entry_port() const;
  /// Every serving process: the proxy first, then the servers (backup last).
  std::vector<pid_t> serving_pids() const;
  void Stop();
};

/// Launches the workload's processes and waits for readiness.
bool LaunchStack(const Workload& w, const Bins& bins, Stack* stack,
                 std::string* error);
/// Pipelined closed-loop store of every key once, through the entry port,
/// with the workload's value sizes.
bool FillStore(const Workload& w, uint16_t port, std::string* error);

/// Writes a seeded sample of self-describing values through the entry port,
/// reads each back through the entry port and straight from its owner, and
/// returns how many keys did not come back byte-identical on both reads.
/// `checked` receives the number of values written.
uint64_t ReadBackCheck(const Workload& w, const Stack& stack, uint64_t seed,
                       uint64_t* checked, std::string* detail);
/// Sum of `protocol_errors` (servers) and `proxy_protocol_errors` (proxy).
uint64_t ProtocolErrors(const Stack& stack);

}  // namespace perfbench
