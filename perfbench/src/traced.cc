// The traced run: the proxy and its servers hosted in this process, each
// NetServer executing through a timing RequestHandler wrapped around its
// ProxyCore / ServerCore. Every Handle call while recording is one span
// (layer, start, end, request id = hash of the first key). A server span's
// parent is the proxy span for the same key that encloses it: the proxy's
// upstream round trips are blocking, so the enclosing span is the one that
// sent it. Spans stay in memory and are written as JSONL once the servers
// have stopped.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "perfbench/src/layers.h"
#include "perfbench/src/measure.h"
#include "src/net/server.h"
#include "src/obs/obs.h"
#include "src/proxy/proxy_core.h"
#include "src/routing/hash.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Times every Handle of the wrapped handler while `recording` is set.
/// Runs on its server's loop thread only; `spans` is read after that thread
/// has been joined.
class TimingHandler final : public spotcache::net::RequestHandler {
 public:
  explicit TimingHandler(spotcache::net::RequestHandler* inner)
      : inner_(inner) {}

  bool Handle(const spotcache::net::TextRequest& req, int64_t now,
              spotcache::net::ResponseAssembler* out) override {
    if (!recording.load(std::memory_order_relaxed)) {
      return inner_->Handle(req, now, out);
    }
    const int64_t t0 = NowNs();
    const bool keep = inner_->Handle(req, now, out);
    spans.push_back({t0, NowNs(),
                     req.keys.empty() ? 0 : spotcache::HashString(req.keys[0])});
    return keep;
  }
  void HandleParseError(spotcache::net::ParseErrorKind kind,
                        spotcache::net::ResponseAssembler* out) override {
    inner_->HandleParseError(kind, out);
  }
  void set_telemetry(spotcache::RequestTelemetry* telemetry) override {
    inner_->set_telemetry(telemetry);
  }

  std::atomic<bool> recording{false};
  std::vector<Span> spans;

 private:
  spotcache::net::RequestHandler* inner_;
};

spotcache::net::NetServerConfig ServerConfig(const Workload& w) {
  spotcache::net::NetServerConfig c;
  c.port = 0;
  c.core.capacity_bytes = static_cast<size_t>(w.capacity_mb) * 1024 * 1024;
  c.telemetry.span_sample_every = 0;  // no tracing inside src/
  c.telemetry.latency_sample_every = 0;
  return c;
}

/// One NetServer on its own loop thread, executing through a TimingHandler.
struct Hosted {
  Hosted() = default;
  Hosted(const Hosted&) = delete;
  Hosted& operator=(const Hosted&) = delete;
  ~Hosted() { Stop(); }

  void Start() {
    server->SetHandler(timing.get());
    loop = std::thread([this] { server->Run(); });
  }
  void Stop() {
    if (loop.joinable()) {
      server->Stop();
      loop.join();
    }
  }

  std::unique_ptr<spotcache::net::NetServer> server;
  std::unique_ptr<TimingHandler> timing;
  std::thread loop;  // last: runs on `server` and `timing`
};

/// Length of the union of [start, end) intervals clipped to `parent`.
int64_t Covered(std::vector<Span>& children, const Span& parent) {
  std::sort(children.begin(), children.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  int64_t covered = 0;
  int64_t cursor = parent.start_ns;
  for (const Span& c : children) {
    const int64_t lo = std::max(c.start_ns, cursor);
    const int64_t hi = std::min(c.end_ns, parent.end_ns);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return covered;
}

double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  return sorted[static_cast<size_t>(q * static_cast<double>(sorted.size() - 1))];
}

}  // namespace

Values RunTraced(const Workload& w, uint64_t seed, double seconds,
                 const std::string& spans_path, std::string* error) {
  Values v;
  // Servers: primaries then the idle backup.
  std::vector<std::unique_ptr<Hosted>> servers;
  for (int i = 0; i < w.primaries + 1; ++i) {
    auto h = std::make_unique<Hosted>();
    h->server = std::make_unique<spotcache::net::NetServer>(ServerConfig(w));
    h->timing = std::make_unique<TimingHandler>(&h->server->core());
    if (!h->server->Start()) {
      *error = "traced: server bind failed";
      return v;
    }
    h->Start();
    servers.push_back(std::move(h));
  }
  spotcache::Obs obs;
  spotcache::proxy::ProxyCore core(spotcache::proxy::ProxyCoreConfig{}, &obs);
  for (int i = 0; i < w.primaries; ++i) {
    core.pool().SetNode(static_cast<uint64_t>(i), "127.0.0.1",
                        servers[static_cast<size_t>(i)]->server->port());
  }
  core.pool().SetBackup("127.0.0.1", servers.back()->server->port());
  Hosted proxy;
  auto proxy_config = ServerConfig(w);
  proxy_config.metrics_port = 0;  // its loop's idle time, scraped per slice
  proxy.server = std::make_unique<spotcache::net::NetServer>(proxy_config,
                                                             nullptr, &obs);
  proxy.timing = std::make_unique<TimingHandler>(&core);
  if (!proxy.server->Start()) {
    *error = "traced: proxy bind failed";
    return v;
  }
  proxy.Start();
  const uint16_t port = proxy.server->port();

  auto set_recording = [&](bool on) {
    proxy.timing->recording.store(on, std::memory_order_relaxed);
    for (auto& h : servers) {
      h->timing->recording.store(on, std::memory_order_relaxed);
    }
  };

  // Alternate untraced and traced slices so drift on the machine lands on
  // both sides of the overhead comparison.
  std::vector<double> p50_off, p50_on;
  double traced_wall_s = 0.0;
  double idle_s = 0.0;  // proxy loop blocked in epoll_wait, traced slices
  auto loop_wait_s = [&proxy] {
    return ScrapeMetrics(proxy.server->metrics_port())["net_loop_wait_s_sum"];
  };
  uint64_t failed = 0;
  if (FillStore(w, port, error)) {
    const int pairs = std::max(1, static_cast<int>(seconds / 2.0 + 0.5));
    for (int i = 0; i < 2 * pairs; ++i) {
      const bool on = i % 2 == 1;
      const double wait0 = on ? loop_wait_s() : 0.0;
      set_recording(on);
      const Slice s = RunSlice(w, port, w.rate_rps, 1.0, seed * 31 + i);
      set_recording(false);
      if (on) {
        idle_s += loop_wait_s() - wait0;
      }
      failed += s.failed + (s.r.ok ? 0 : 1);
      (on ? p50_on : p50_off).push_back(s.p50_us);
      if (on) {
        traced_wall_s += s.wall_s;
      }
    }
  }
  proxy.Stop();
  for (auto& h : servers) {
    h->Stop();
  }
  if (!error->empty()) {
    return v;
  }
  if (failed > 0) {
    *error = "traced: " + std::to_string(failed) + " ops failed";
  }

  // --- Parent links and coverage. --------------------------------------------
  const std::vector<Span>& ps = proxy.timing->spans;  // one thread: in order
  std::vector<std::vector<Span>> children(ps.size());
  std::vector<int> parent_of;  // per server span, in output order
  for (size_t s = 0; s < servers.size(); ++s) {
    for (const Span& c : servers[s]->timing->spans) {
      auto it = std::upper_bound(
          ps.begin(), ps.end(), c.start_ns,
          [](int64_t t, const Span& p) { return t < p.start_ns; });
      int parent = -1;
      if (it != ps.begin()) {
        const size_t pi = static_cast<size_t>(std::prev(it) - ps.begin());
        if (ps[pi].id == c.id && c.start_ns <= ps[pi].end_ns) {
          parent = static_cast<int>(pi);
          children[pi].push_back(c);
        }
      }
      parent_of.push_back(parent);
    }
  }
  int64_t handle_ns = 0;
  int64_t covered_ns = 0;
  std::vector<double> handle_us;
  handle_us.reserve(ps.size());
  for (size_t i = 0; i < ps.size(); ++i) {
    handle_ns += ps[i].end_ns - ps[i].start_ns;
    covered_ns += Covered(children[i], ps[i]);
    handle_us.push_back(static_cast<double>(ps[i].end_ns - ps[i].start_ns) * 1e-3);
  }
  std::sort(handle_us.begin(), handle_us.end());
  const double wall_ns = std::max(traced_wall_s * 1e9, 1.0);
  v["proxy.handle_us_p50"] = SortedQuantile(handle_us, 0.50);
  v["proxy.handle_us_p99"] = SortedQuantile(handle_us, 0.99);
  v["proxy.upstream_wait_frac"] =
      static_cast<double>(handle_ns - covered_ns) / wall_ns;
  v["proxy.server_span_frac"] = static_cast<double>(covered_ns) / wall_ns;
  // The rest of the proxy thread's time: blocked in epoll_wait with nothing
  // to do, and loop work outside Handle (parse, writev, epoll bookkeeping).
  v["proxy.idle_frac"] = idle_s * 1e9 / wall_ns;
  v["proxy.loop_other_frac"] = std::max(
      0.0, 1.0 - (static_cast<double>(handle_ns) + idle_s * 1e9) / wall_ns);
  v["trace.overhead_p50_us"] = Median(p50_on) - Median(p50_off);

  // --- JSONL, written after the run. -------------------------------------------
  if (FILE* f = std::fopen(spans_path.c_str(), "w")) {
    const int64_t t0 = ps.empty() ? 0 : ps.front().start_ns;
    for (size_t i = 0; i < ps.size(); ++i) {
      std::fprintf(f,
                   "{\"span\":%zu,\"layer\":\"proxy\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"id\":\"%016llx\",\"parent\":-1}\n",
                   i, static_cast<long long>(ps[i].start_ns - t0),
                   static_cast<long long>(ps[i].end_ns - t0),
                   static_cast<unsigned long long>(ps[i].id));
    }
    size_t span = ps.size();
    size_t k = 0;
    for (size_t s = 0; s < servers.size(); ++s) {
      for (const Span& c : servers[s]->timing->spans) {
        std::fprintf(f,
                     "{\"span\":%zu,\"layer\":\"server%zu\",\"start_ns\":%lld,"
                     "\"end_ns\":%lld,\"id\":\"%016llx\",\"parent\":%d}\n",
                     span++, s, static_cast<long long>(c.start_ns - t0),
                     static_cast<long long>(c.end_ns - t0),
                     static_cast<unsigned long long>(c.id),
                     parent_of[k++]);
      }
    }
    std::fclose(f);
  }
  return v;
}

}  // namespace perfbench
