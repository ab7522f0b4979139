// NetServer: the non-blocking TCP serving surface.
//
// Single-threaded epoll loop (level-triggered), one state machine per
// connection: bytes are recv()'d straight into the connection's
// RequestParser (zero-copy WritePtr/Commit), every complete request is
// executed by the shared ServerCore, and the batch's responses go out in one
// writev over the assembler's iovecs. Short writes spill the remainder into
// a per-connection pending buffer drained on EPOLLOUT; a pending buffer that
// exceeds `max_output_buffer` marks a slow consumer and the connection is
// dropped (counted + traced) rather than ballooning memory.
//
// Observability uses the PR-2 vocabulary: `net/*` counters
// (conns_opened/conns_closed/bytes_in/bytes_out/slow_consumer_closes plus
// ServerCore's request counters; bytes_in/bytes_out count cache traffic only,
// never the scrape listener's HTTP) and JSONL `conn_open` / `conn_close` /
// `protocol_error` events stamped with microseconds since server start.
//
// Serving-path telemetry (this PR): the server owns a RequestTelemetry that
// samples request spans (parse -> route -> store -> write phases) and feeds
// always-on per-(op, outcome) latency histograms — see request_telemetry.h
// for the sampling/overhead story. The event loop itself is instrumented:
// every iteration records epoll-wait vs. work time into `net/loop/wait_s` /
// `net/loop/work_s`, and an iteration whose work phase exceeds 10 ms
// (kStallThresholdUs) bumps `net/loop/stalls` and emits a `loop_stall`
// trace event. High-water gauges track the worst pending-output backlog and
// peak concurrent client connections (scrape connections excluded).
//
// Live scrape surface: with `metrics_port >= 0` the server opens a second
// listener in the same epoll loop that answers any HTTP request with the
// Prometheus text rendering of the registry, between request batches. The
// loop holds its work mutex from the return of each epoll_wait until the next
// call, so another thread that takes the mutex reads the registry between
// iterations too: that is how a multi-shard scrape reads the peer shards
// (sharded_server.h). The loop blocks until an event or a loop client's
// deadline; it has no periodic wake.
//
// Flight-recorder dumps: RequestTelemetryDump() is async-signal-safe
// (atomic flag + eventfd wakeup) — signal handlers call it to get the span
// ring appended to `span_dump_path` and a metrics snapshot written to
// `metrics_dump_path` from loop context. A request slower than the
// telemetry's `slow_request_us` triggers the same dump automatically
// (debounced to at most one per second).
//
// Accept: the server listens on the cache port only as shard 0, which a
// plain server is. Shard 0 of a multi-shard server accepts every connection
// and deals them round-robin to the shards, itself included (SetDispatcher);
// a peer shard opens no cache listener and adopts what HandOff() queues.
//
// One drain (DrainParked) serves every configuration: the plain server, the
// proxy, and each shard of the multi-core server. Parking handlers
// (event_loop.h): every handler is offered the server's loop, and its Start()
// may park requests. Each connection keeps an ordered queue of reply slots —
// a reply that completes early waits behind the parked ones before it — and
// stops reading its client while 1024 requests are parked, resuming once half
// of them have been answered. The same loop carries the handler's own sockets
// and wakes for its deadlines. ServerCore never parks and never waits: on a
// shard it runs every key inline under the owning partition's lock, so its
// replies never wait in a slot.
//
// Run() owns the calling thread until Stop() (thread-safe, eventfd wakeup)
// or a fatal listener error. Expiry time is injectable (`SetClock`) so tests
// drive memcached expiry semantics deterministically over real sockets.

#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/net/event_loop.h"
#include "src/net/protocol.h"
#include "src/net/request_handler.h"
#include "src/net/response.h"
#include "src/net/server_core.h"
#include "src/obs/obs.h"
#include "src/obs/request_telemetry.h"

namespace spotcache::net {

struct NetServerConfig {
  std::string bind_host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; see NetServer::port() after Start()
  size_t max_connections = 1024;
  /// Slow-consumer cap on buffered unsent bytes before the connection drops.
  size_t max_output_buffer = 8 * 1024 * 1024;
  ServerCoreConfig core;

  /// Request-span / latency sampling. Setting both sample periods to 0
  /// disables the telemetry entirely (no per-request sampler step) — the
  /// configuration bench_net_loopback uses as its uninstrumented baseline.
  RequestTelemetryConfig telemetry;
  /// Prometheus scrape listener: -1 = off, 0 = ephemeral port (see
  /// metrics_port() after Start()), else the fixed port to bind.
  int metrics_port = -1;
  /// Flight-recorder dump target (JSONL, appended per dump). Empty skips
  /// the span dump (the in-memory ring still fills).
  std::string span_dump_path;
  /// Metrics snapshot dump target (Prometheus text, overwritten per dump).
  std::string metrics_dump_path;
};

class NetServer final : public EventLoop {
 public:
  NetServer(const NetServerConfig& config, SpotCacheSystem* system = nullptr,
            Obs* obs = nullptr);
  ~NetServer() override;

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds and listens (cache port unless a peer shard, + optional metrics
  /// port). Returns false (with errno intact) on failure.
  bool Start();
  /// The bound port (after Start(); useful with port = 0); 0 on a peer
  /// shard.
  uint16_t port() const { return port_; }
  /// The bound metrics port (0 when the scrape listener is off).
  uint16_t metrics_port() const { return metrics_port_; }

  /// Serves until Stop(). Returns false if the loop died on a fatal error.
  bool Run();
  /// Thread-safe shutdown request.
  void Stop();

  /// Requests a flight-recorder + metrics dump from loop context.
  /// Async-signal-safe (atomic store + eventfd write): signal handlers for
  /// SIGUSR1/SIGHUP call this directly.
  void RequestTelemetryDump();

  /// Substitutes `handler` for the built-in ServerCore on the single-threaded
  /// drain path (the proxy seam; see request_handler.h) and offers it this
  /// server's loop. Must be called before Run(); the handler must outlive
  /// the server.
  void SetHandler(RequestHandler* handler);

  // --- EventLoop (loop thread only; see event_loop.h). -------------------
  void AddClient(LoopClient* client) override;
  bool WatchFd(int fd, LoopClient* client, bool want_write) override;
  void SetWantWrite(int fd, bool want_write) override;
  void UnwatchFd(int fd) override;
  void CompleteParked(const ReplyTicket& ticket, std::string&& reply) override;

  /// Installs the loop-context reload callback RequestReload() triggers.
  /// Must be called before Run(); runs on the loop thread between batches.
  void SetReloadHandler(std::function<void()> on_reload);

  /// Requests a config reload from loop context. Async-signal-safe (atomic
  /// store + eventfd write): the SIGHUP handler calls this directly.
  void RequestReload();

  /// Unix-seconds clock used for expiry (defaults to the wall clock).
  void SetClock(std::function<int64_t()> now_unix);

  ServerCore& core() { return core_; }
  const ServerCore& core() const { return core_; }
  /// The serving-path telemetry, or nullptr when disabled by config.
  RequestTelemetry* telemetry() { return telemetry_.get(); }
  size_t connection_count() const { return conns_.size(); }

  // --- Sharded serving (wired by ShardedServer; see sharded_server.h). ---

  /// Makes this server shard ctx.self of ctx.count. Must run before Start().
  void ConfigureShard(const ShardContext& ctx);
  /// Shard 0's role: accept on behalf of every server in `shards` (itself
  /// included, at its shard index) and deal the accepted fds across them
  /// round-robin. Must be called before Run().
  void SetDispatcher(std::vector<NetServer*> shards) {
    dispatch_to_ = std::move(shards);
  }
  /// Queues an accepted fd for this server's loop to adopt and wakes it.
  /// Thread-safe; never waits for the loop. An fd still queued when the
  /// server exits is closed.
  void HandOff(int fd);
  /// Serializes flight-recorder dumps across shards (shared span file).
  void SetDumpMutex(std::mutex* mu) { dump_mu_ = mu; }
  /// Replaces the own-registry rendering of the scrape listener and the
  /// metrics dump. `render` runs on the loop thread, which holds its work
  /// mutex meanwhile. Must be called before Run().
  void SetMetricsRenderer(std::function<std::string()> render) {
    render_metrics_ = std::move(render);
  }
  /// The loop thread holds the work mutex from the return of each
  /// epoll_wait until the next call, and not while it waits. Another thread
  /// takes it with LockWork() to read obs()->registry between iterations; a
  /// loop that finds a LockWork() waiting lets it in before its next
  /// iteration, so the wait lasts about one iteration even under saturation.
  void LockWork();
  void UnlockWork();
  Obs* obs() const { return obs_; }

 private:
  /// One unanswered request of a parking handler's connection.
  struct ReplySlot {
    std::string reply;
    bool ready = false;
    bool barrier = false;  // parsing waits until this slot is answered
  };

  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    RequestParser parser;
    ResponseAssembler assembler;
    std::string pending_out;  // unsent bytes after a short write
    size_t pending_sent = 0;  // consumed prefix of pending_out
    uint32_t armed = 0;       // epoll interest currently registered
    bool close_after_flush = false;
    // Parking handlers only: replies owed, oldest first. A reply completed
    // while an older one is parked waits in its slot.
    std::deque<ReplySlot> slots;
    uint64_t slot_base = 0;  // request sequence number of slots.front()
    size_t parked = 0;       // slots the handler still owes
    bool completed = false;  // queued on completed_

    /// An unanswered barrier holds the rest of the stream (it is always the
    /// newest slot: nothing is parsed after it).
    bool holding() const {
      return !slots.empty() && slots.back().barrier && !slots.back().ready;
    }
    /// Metrics-scrape connection: bytes go through a tiny HTTP/1.0
    /// responder instead of the memcached parser.
    bool is_metrics = false;
    std::string http_in;  // request bytes until the blank line (metrics only)
    bool http_responded = false;
  };

  void AcceptReady(int listen_fd, bool metrics);
  void ConnReadable(Connection* conn);
  void MetricsReadable(Connection* conn);
  void ConnWritable(Connection* conn);
  /// The drain: Start() per buffered request, replies in order, then a
  /// flush. A synchronous handler never parks, so its replies go straight to
  /// the assembler.
  void DrainParked(Connection* conn);
  /// Moves a connection's answered head slots into its assembler, flushes,
  /// and resumes parsing once enough parked requests have been answered.
  void FlushCompleted(Connection* conn);
  /// epoll_wait timeout honoring the loop clients' deadlines (-1: none).
  int WaitTimeoutMs() const;
  /// End-of-batch flush with the span write-stamp bookkeeping.
  void FlushTimed(Connection* conn, RequestTelemetry* t);
  /// Registers an accepted/adopted fd as a live connection (nodelay, epoll,
  /// counters, traces).
  void RegisterConn(int fd, bool metrics);
  /// Registers an fd another shard accepted, within max_connections.
  void AdoptFd(int fd);
  /// Adopts every fd HandOff() queued.
  void AdoptHandedOff();
  /// Closes every fd HandOff() queued that was never adopted.
  void CloseHandedOff();
  /// Prometheus text for the scrape and the metrics dump.
  std::string RenderMetrics() const;
  /// writev the assembler + pending buffer; buffers any remainder.
  void Flush(Connection* conn);
  void CloseConn(Connection* conn, const char* reason);
  /// Re-registers the connection's epoll interest when it changed: EPOLLOUT
  /// while output is pending, EPOLLIN unless too many requests are parked.
  void UpdateInterest(Connection* conn);
  /// Opens one non-blocking listener on bind_host:port; returns the fd (or
  /// -1) and writes the bound port through `bound_port`.
  int OpenListener(uint16_t port, uint16_t* bound_port);
  /// Loop-context dump service: honors RequestTelemetryDump() immediately,
  /// slow-request auto-dumps behind a 1 s debounce.
  void MaybeDumpTelemetry();
  void DumpTelemetry(const char* reason);
  int64_t NowUnix() const;
  /// Microseconds since Run() began (event timestamps).
  int64_t LoopMicros() const;
  void Trace(const char* type,
             std::vector<std::pair<std::string, std::string>> fields);

  NetServerConfig config_;
  ServerCore core_;
  /// The active request executor: &core_ unless SetHandler() swapped in a
  /// different implementation (e.g. the proxy's fan-out core).
  RequestHandler* handler_ = nullptr;
  ResponseAssembler park_scratch_;  // replies queued behind a parked one
  /// Connections with newly answered slots, as (fd, id), flushed at the end
  /// of the loop iteration.
  std::vector<std::pair<int, uint64_t>> completed_;
  std::vector<LoopClient*> loop_clients_;
  std::unordered_map<int, LoopClient*> foreign_fds_;
  Obs* obs_;
  std::unique_ptr<RequestTelemetry> telemetry_;
  std::function<int64_t()> clock_;

  int listen_fd_ = -1;
  int metrics_listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  uint16_t port_ = 0;
  uint16_t metrics_port_ = 0;
  /// Sticky stop request: set by Stop() (possibly from a signal handler,
  /// possibly before Run() has even been entered) and only ever read by the
  /// loop — a stop can never be lost to the start-up race.
  std::atomic<bool> stop_requested_{false};
  uint64_t next_conn_id_ = 1;
  int64_t t0_us_ = 0;
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;
  size_t metrics_conns_ = 0;

  std::atomic<bool> dump_requested_{false};
  int64_t last_auto_dump_us_ = -1'000'000;
  std::atomic<bool> reload_requested_{false};
  std::function<void()> on_reload_;

  // Sharded-serving state (inert in the single-threaded server).
  ShardContext shard_ctx_;
  std::vector<NetServer*> dispatch_to_;  // empty unless multi-shard shard 0
  uint32_t dispatch_rr_ = 0;
  std::mutex handoff_mu_;
  std::vector<int> handoff_fds_;  // guarded by handoff_mu_
  std::mutex* dump_mu_ = nullptr;
  std::function<std::string()> render_metrics_;
  std::mutex work_mu_;
  std::atomic<int> work_waiters_{0};  // threads inside LockWork()

  // High-water marks mirrored into gauges (kept locally so the hot path
  // compares against a plain size_t, not a double).
  size_t pending_out_high_water_ = 0;
  size_t conns_high_water_ = 0;

  Counter* conns_opened_ = nullptr;
  Counter* conns_closed_ = nullptr;
  Counter* conns_rejected_ = nullptr;
  Counter* bytes_in_ = nullptr;
  Counter* bytes_out_ = nullptr;
  Counter* slow_closes_ = nullptr;
  Counter* loop_iterations_ = nullptr;
  Counter* loop_stalls_ = nullptr;
  Counter* metrics_scrapes_ = nullptr;
  Histogram* loop_wait_hist_ = nullptr;
  Histogram* loop_work_hist_ = nullptr;
  Gauge* pending_hw_gauge_ = nullptr;
  Gauge* conns_hw_gauge_ = nullptr;
};

}  // namespace spotcache::net
