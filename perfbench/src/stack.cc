#include "perfbench/src/stack.h"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/net/client.h"
#include "src/net/readiness.h"
#include "src/proxy/upstream_pool.h"
#include "src/routing/hash.h"
#include "src/util/rng.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kReadyTimeoutMs = 10'000;
constexpr const char* kHost = "127.0.0.1";

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Reads one `/proc/.../schedstat` (first field: on-CPU nanoseconds).
double SchedSeconds(const std::string& path) {
  std::ifstream in(path);
  double ns = 0.0;
  in >> ns;
  return ns * 1e-9;
}

std::string KeyName(uint64_t id) { return "lg:" + std::to_string(id); }

}  // namespace

// --- Child ------------------------------------------------------------------

std::unique_ptr<Child> Child::Spawn(const std::vector<std::string>& argv,
                                    std::string* error) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    *error = "pipe failed";
    return nullptr;
  }
  std::vector<char*> cargv;
  for (const std::string& a : argv) {
    cargv.push_back(const_cast<char*>(a.c_str()));
  }
  cargv.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    *error = "fork failed";
    return nullptr;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) {
      ::_exit(127);
    }
    ::dup2(fds[1], STDOUT_FILENO);
    ::execv(cargv[0], cargv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  std::unique_ptr<Child> child(new Child());
  child->pid_ = pid;
  child->stdout_fd_ = fds[0];

  // Readiness: `listening <port>`, then `metrics listening <port>`.
  spotcache::net::ReadinessParser parser;
  const auto deadline = Clock::now() + std::chrono::milliseconds(kReadyTimeoutMs);
  char buf[4096];
  while (!parser.port().has_value() || !parser.metrics_port().has_value()) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    pollfd p{child->stdout_fd_, POLLIN, 0};
    if (left <= 0 || ::poll(&p, 1, static_cast<int>(left)) != 1) {
      *error = "no readiness line from " + argv[0];
      return nullptr;  // ~Child stops and reaps
    }
    const ssize_t n = ::read(child->stdout_fd_, buf, sizeof(buf));
    if (n <= 0) {
      *error = argv[0] + " exited before readiness";
      return nullptr;
    }
    parser.Feed(std::string_view(buf, static_cast<size_t>(n)));
  }
  child->port_ = *parser.port();
  child->metrics_port_ = *parser.metrics_port();
  return child;
}

Child::~Child() { Stop(); }

void Child::Stop() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    bool reaped = false;
    for (int i = 0; i < 200 && !reaped; ++i) {  // up to 2 s grace
      reaped = ::waitpid(pid_, &status, WNOHANG) == pid_;
      if (!reaped) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    if (!reaped) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

// --- /proc -------------------------------------------------------------------

ProcCpu ReadProcCpu(pid_t pid) {
  ProcCpu cpu;
  const std::string base = "/proc/" + std::to_string(pid);
  const std::string stat = ReadFile(base + "/stat");
  // Fields after the parenthesised comm: state is field 3; utime/stime are
  // fields 14/15.
  const size_t close = stat.rfind(')');
  if (close != std::string::npos) {
    std::istringstream in(stat.substr(close + 2));
    std::string field;
    const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
    for (int i = 3; in >> field; ++i) {
      if (i == 14) {
        cpu.user_s = std::atof(field.c_str()) / tick;
      } else if (i == 15) {
        cpu.sys_s = std::atof(field.c_str()) / tick;
        break;
      }
    }
  }
  if (DIR* dir = ::opendir((base + "/task").c_str())) {
    while (dirent* e = ::readdir(dir)) {
      if (e->d_name[0] == '.') {
        continue;
      }
      const double s = SchedSeconds(base + "/task/" + e->d_name + "/schedstat");
      cpu.threads[std::atoi(e->d_name)] = s;
      cpu.oncpu_s += s;
    }
    ::closedir(dir);
  }
  return cpu;
}

double OnCpuSeconds(const std::vector<pid_t>& pids) {
  double s = 0.0;
  for (pid_t pid : pids) {
    s += ReadProcCpu(pid).oncpu_s;
  }
  return s;
}

void WaitIdle(const std::vector<pid_t>& pids) {
  double before = OnCpuSeconds(pids);
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const double now = OnCpuSeconds(pids);
    if (now - before < 0.001) {
      return;
    }
    before = now;
  }
}

namespace {
double StatusFieldKb(const std::string& path, const std::string& field) {
  std::istringstream in(ReadFile(path));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::atof(line.c_str() + field.size() + 1);
    }
  }
  return 0.0;
}
}  // namespace

double ReadVmHwmMb(pid_t pid) {
  return StatusFieldKb("/proc/" + std::to_string(pid) + "/status", "VmHWM") /
         1024.0;
}

double ReadSelfRssBytes() {
  return StatusFieldKb("/proc/self/status", "VmRSS") * 1024.0;
}

// --- stats / scrape ------------------------------------------------------------

std::map<std::string, double> ReadStats(uint16_t port) {
  std::map<std::string, double> out;
  spotcache::net::NetClient client;
  if (!client.Connect(kHost, port, 2000)) {
    return out;
  }
  const auto stats = client.Stats();
  if (!stats.has_value()) {
    return out;
  }
  for (const auto& [name, value] : *stats) {
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end != value.c_str()) {
      out[name] = v;
    }
  }
  return out;
}

std::map<std::string, double> ScrapeMetrics(uint16_t metrics_port) {
  std::map<std::string, double> out;
  spotcache::net::NetClient client;
  if (!client.Connect(kHost, metrics_port, 2000) ||
      !client.SendRaw("GET /metrics HTTP/1.0\r\n\r\n")) {
    return out;
  }
  // The responder closes after the body; read lines until EOF.
  while (const auto line = client.ReadLine()) {
    if (line->empty() || (*line)[0] == '#' ||
        line->find('{') != std::string::npos) {
      continue;
    }
    const size_t sp = line->find(' ');
    if (sp == std::string::npos) {
      continue;
    }
    char* end = nullptr;
    const char* num = line->c_str() + sp + 1;
    const double v = std::strtod(num, &end);
    if (end != num) {
      out[line->substr(0, sp)] = v;
    }
  }
  return out;
}

// --- Stack ---------------------------------------------------------------------

uint16_t Stack::entry_port() const {
  return proxy != nullptr ? proxy->port() : primaries.front()->port();
}

std::vector<pid_t> Stack::serving_pids() const {
  std::vector<pid_t> out;
  if (proxy != nullptr) {
    out.push_back(proxy->pid());
  }
  for (const auto& c : primaries) {
    out.push_back(c->pid());
  }
  if (backup != nullptr) {
    out.push_back(backup->pid());
  }
  return out;
}

void Stack::Stop() {
  if (proxy != nullptr) {
    proxy->Stop();
  }
  for (auto& c : primaries) {
    c->Stop();
  }
  if (backup != nullptr) {
    backup->Stop();
  }
  proxy.reset();
  primaries.clear();
  backup.reset();
}

bool LaunchStack(const Workload& w, const Bins& bins, Stack* stack,
                 std::string* error) {
  // Tracing off: no request spans, no latency sampling in the binaries.
  const std::vector<std::string> untraced = {"--port=0", "--metrics-port=0",
                                             "--span-sample=0",
                                             "--latency-sample=0"};
  auto server_argv = [&]() {
    std::vector<std::string> a = {bins.server};
    a.insert(a.end(), untraced.begin(), untraced.end());
    a.push_back("--capacity-mb=" + std::to_string(w.capacity_mb));
    a.push_back("--threads=" + std::to_string(w.server_threads));
    if (w.force_dispatch) {
      a.push_back("--force-dispatch");
    }
    return a;
  };
  const int servers = w.proxied ? w.primaries : 1;
  for (int i = 0; i < servers; ++i) {
    auto c = Child::Spawn(server_argv(), error);
    if (c == nullptr) {
      return false;
    }
    stack->primaries.push_back(std::move(c));
  }
  if (!w.proxied) {
    return true;
  }
  stack->backup = Child::Spawn(server_argv(), error);
  if (stack->backup == nullptr) {
    return false;
  }
  std::vector<std::string> a = {bins.proxy};
  a.insert(a.end(), untraced.begin(), untraced.end());
  for (size_t i = 0; i < stack->primaries.size(); ++i) {
    a.push_back("--node=" + std::to_string(i) + ":" + kHost + ":" +
                std::to_string(stack->primaries[i]->port()));
  }
  a.push_back(std::string("--backup=") + kHost + ":" +
              std::to_string(stack->backup->port()));
  stack->proxy = Child::Spawn(a, error);
  return stack->proxy != nullptr;
}

bool FillStore(const Workload& w, uint16_t port, std::string* error) {
  spotcache::net::NetClient client;
  if (!client.Connect(kHost, port, 5000)) {
    *error = "fill: connect failed";
    return false;
  }
  const std::string value(w.value_max, 'v');
  constexpr uint64_t kBatch = 2048;
  std::string batch;
  for (uint64_t base = 0; base < w.num_keys; base += kBatch) {
    const uint64_t end = std::min(base + kBatch, w.num_keys);
    batch.clear();
    for (uint64_t k = base; k < end; ++k) {
      const uint32_t len = ValueLenFor(w, k);
      batch += "set " + KeyName(k) + " 0 0 " + std::to_string(len) + "\r\n";
      batch.append(value.data(), len);
      batch += "\r\n";
    }
    if (!client.SendRaw(batch)) {
      *error = "fill: send failed";
      return false;
    }
    for (uint64_t k = base; k < end; ++k) {
      const auto line = client.ReadLine();
      if (!line.has_value() || *line != "STORED") {
        *error = "fill: store of " + KeyName(k) + " failed";
        return false;
      }
    }
  }
  return true;
}

namespace {

/// A self-describing value: it names the seed, the key and its own length,
/// padded with bytes derived from the key, so a value served for the wrong
/// key, truncated, or spliced from another write never compares equal.
std::string SampleValue(uint64_t seed, const std::string& key, uint32_t len) {
  std::string v = "perfbench seed=" + std::to_string(seed) + " key=" + key +
                  " len=" + std::to_string(len) + " ";
  spotcache::Rng rng(seed ^ spotcache::HashString(key));
  while (v.size() < len) {
    v.push_back(static_cast<char>('a' + rng.NextBelow(26)));
  }
  return v;
}

}  // namespace

uint64_t ReadBackCheck(const Workload& w, const Stack& stack, uint64_t seed,
                       uint64_t* checked, std::string* detail) {
  constexpr int kSample = 64;
  // The owner of each key: the proxy's own ring construction (same slots,
  // same endpoints), or the single server.
  spotcache::proxy::UpstreamPool ring{spotcache::proxy::UpstreamPoolConfig{}};
  for (size_t i = 0; i < stack.primaries.size(); ++i) {
    ring.SetNode(i, kHost, stack.primaries[i]->port());
  }
  *checked = kSample;
  spotcache::net::NetClient entry;
  if (!entry.Connect(kHost, stack.entry_port(), 2000)) {
    *detail = "read-back: connect failed";
    return kSample;
  }
  std::map<uint16_t, std::unique_ptr<spotcache::net::NetClient>> owners;
  spotcache::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  uint64_t mismatches = 0;
  for (int i = 0; i < kSample; ++i) {
    const std::string key = KeyName(rng.NextBelow(w.num_keys));
    const uint32_t len = w.value_min + static_cast<uint32_t>(rng.NextBelow(
                                           w.value_max - w.value_min + 1));
    const std::string value = SampleValue(seed, key, len);
    const uint16_t owner_port =
        w.proxied ? stack.primaries[*ring.OwnerOf(key)]->port()
                  : stack.entry_port();
    auto& owner = owners[owner_port];
    if (owner == nullptr) {
      owner = std::make_unique<spotcache::net::NetClient>();
      owner->Connect(kHost, owner_port, 2000);
    }
    const bool stored = entry.Set(key, value);
    const auto via_path = entry.Get(key);
    const auto via_owner = owner->Get(key);
    if (!stored || !via_path.found || via_path.value != value ||
        !via_owner.found || via_owner.value != value) {
      if (mismatches == 0) {
        *detail = "read-back mismatch on " + key;
      }
      ++mismatches;
    }
  }
  return mismatches;
}

uint64_t ProtocolErrors(const Stack& stack) {
  uint64_t errors = 0;
  for (const auto& c : stack.primaries) {
    errors += static_cast<uint64_t>(ReadStats(c->port())["protocol_errors"]);
  }
  if (stack.proxy != nullptr) {
    errors += static_cast<uint64_t>(
        ReadStats(stack.proxy->port())["proxy_protocol_errors"]);
  }
  return errors;
}

}  // namespace perfbench
