#include "src/net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <ctime>
#include <fstream>
#include <thread>

#include "src/obs/exporters.h"
#include "src/util/logging.h"

namespace spotcache::net {

namespace {

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

constexpr int kListenBacklog = 512;
/// recv() chunk per readiness callback.
constexpr size_t kRecvChunk = 64 * 1024;

/// Concurrent scrape connections tolerated beyond max_connections: scrapes
/// must succeed while the cache listener is saturated, but stay bounded.
constexpr size_t kMaxMetricsConns = 32;

/// Parked requests one connection may have before the server stops reading
/// from it: enough to keep every upstream window full behind one pipelining
/// client, few enough to bound what a client can make the proxy hold.
constexpr size_t kMaxParkedPerConn = 1024;

/// A loop iteration whose work phase (everything between two epoll_waits)
/// takes longer than this counts as a stall: every other connection on the
/// loop waited at least that long for its next read.
constexpr int64_t kStallThresholdUs = 10'000;

}  // namespace

NetServer::NetServer(const NetServerConfig& config, SpotCacheSystem* system,
                     Obs* obs)
    : config_(config),
      core_(config.core, system, obs),
      handler_(&core_),
      obs_(obs),
      clock_([] { return static_cast<int64_t>(::time(nullptr)); }) {
  const RequestTelemetryConfig& tc = config_.telemetry;
  if (tc.span_sample_every != 0 || tc.latency_sample_every != 0) {
    telemetry_ = std::make_unique<RequestTelemetry>(tc, obs);
    core_.set_telemetry(telemetry_.get());
  }
  if (obs_ != nullptr) {
    conns_opened_ = obs_->registry.GetCounter("net/conns_opened");
    conns_closed_ = obs_->registry.GetCounter("net/conns_closed");
    conns_rejected_ = obs_->registry.GetCounter("net/conns_rejected");
    bytes_in_ = obs_->registry.GetCounter("net/bytes_in");
    bytes_out_ = obs_->registry.GetCounter("net/bytes_out");
    slow_closes_ = obs_->registry.GetCounter("net/slow_consumer_closes");
    loop_iterations_ = obs_->registry.GetCounter("net/loop/iterations");
    loop_stalls_ = obs_->registry.GetCounter("net/loop/stalls");
    metrics_scrapes_ = obs_->registry.GetCounter("net/metrics_scrapes");
    loop_wait_hist_ = obs_->registry.GetHistogram("net/loop/wait_s");
    loop_work_hist_ = obs_->registry.GetHistogram("net/loop/work_s");
    pending_hw_gauge_ =
        obs_->registry.GetGauge("net/pending_out_high_water_bytes");
    conns_hw_gauge_ = obs_->registry.GetGauge("net/conns_high_water");
  }
}

NetServer::~NetServer() {
  CloseHandedOff();
  for (auto& [fd, conn] : conns_) {
    ::close(fd);
    (void)conn;
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
  }
  if (metrics_listen_fd_ >= 0) {
    ::close(metrics_listen_fd_);
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
  }
}

void NetServer::SetClock(std::function<int64_t()> now_unix) {
  clock_ = std::move(now_unix);
}

int64_t NetServer::NowUnix() const { return clock_(); }

int64_t NetServer::LoopMicros() const {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration_cast<std::chrono::microseconds>(now).count() -
         t0_us_;
}

void NetServer::Trace(
    const char* type,
    std::vector<std::pair<std::string, std::string>> fields) {
  if (obs_ == nullptr || !obs_->tracer.enabled()) {
    return;
  }
  obs_->tracer.Custom(SimTime::FromMicros(LoopMicros()), type,
                      std::move(fields));
}

int NetServer::OpenListener(uint16_t port, uint16_t* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, config_.bind_host.c_str(), &addr.sin_addr) != 1 ||
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, kListenBacklog) != 0 || !SetNonBlocking(fd)) {
    ::close(fd);
    return -1;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return -1;
  }
  *bound_port = ntohs(addr.sin_port);
  return fd;
}

bool NetServer::Start() {
  // Only shard 0 listens; a peer serves what shard 0 hands it.
  if (shard_ctx_.self == 0) {
    listen_fd_ = OpenListener(config_.port, &port_);
    if (listen_fd_ < 0) {
      return false;
    }
  }
  if (config_.metrics_port >= 0) {
    metrics_listen_fd_ =
        OpenListener(static_cast<uint16_t>(config_.metrics_port),
                     &metrics_port_);
    if (metrics_listen_fd_ < 0) {
      return false;
    }
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  if (listen_fd_ >= 0) {
    ev.data.fd = listen_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
      return false;
    }
  }
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return false;
  }
  if (metrics_listen_fd_ >= 0) {
    ev.data.fd = metrics_listen_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, metrics_listen_fd_, &ev) != 0) {
      return false;
    }
  }
  return true;
}

bool NetServer::Run() {
  t0_us_ = 0;
  t0_us_ = LoopMicros();
  if (telemetry_ != nullptr) {
    // Span timestamps become "microseconds since Run() began" — the same
    // timeline Trace() stamps loop events with.
    telemetry_->SetOrigin(t0_us_);
  }
  const bool instrument = loop_iterations_ != nullptr;
  bool ok = true;
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  // Released only while the loop waits: see LockWork().
  std::unique_lock<std::mutex> work(work_mu_);
  while (!stop_requested_.load(std::memory_order_relaxed)) {
    int timeout_ms = -1;
    if (!completed_.empty()) {
      // Replies answered outside the flush pass (a reload re-routing legs)
      // must not wait for the next event.
      timeout_ms = 0;
    } else if (!loop_clients_.empty()) {
      timeout_ms = WaitTimeoutMs();
    }
    const int64_t t_wait0 = instrument ? RequestTelemetry::NowMicros() : 0;
    work.unlock();
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    // A busy loop would otherwise retake the mutex before a waiter wakes.
    while (work_waiters_.load(std::memory_order_acquire) > 0) {
      std::this_thread::yield();
    }
    work.lock();
    const int64_t t_work0 = instrument ? RequestTelemetry::NowMicros() : 0;
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      SPOTCACHE_LOG(kError) << "epoll_wait failed: " << strerror(errno);
      ok = false;
      break;
    }
    for (int i = 0;
         i < n && !stop_requested_.load(std::memory_order_relaxed); ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        AcceptReady(listen_fd_, /*metrics=*/false);
        continue;
      }
      if (fd == metrics_listen_fd_) {
        AcceptReady(metrics_listen_fd_, /*metrics=*/true);
        continue;
      }
      if (fd == wake_fd_) {
        uint64_t tick = 0;
        (void)!::read(wake_fd_, &tick, sizeof(tick));
        AdoptHandedOff();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) {
        // A loop client's socket, or a connection closed earlier in this
        // batch.
        const auto foreign = foreign_fds_.find(fd);
        if (foreign != foreign_fds_.end()) {
          foreign->second->OnFdReady(fd, events[i].events);
        }
        continue;
      }
      Connection* conn = it->second.get();
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConn(conn, "hangup");
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) {
        ConnReadable(conn);
        // The connection may be gone now; re-check before write handling.
        if (conns_.find(fd) == conns_.end()) {
          continue;
        }
      }
      if ((events[i].events & EPOLLOUT) != 0) {
        ConnWritable(conn);
      }
    }
    if (!loop_clients_.empty()) {
      const int64_t now_us = RequestTelemetry::NowMicros();
      for (LoopClient* client : loop_clients_) {
        client->Tick(now_us);
      }
    }
    // Flush replies answered during this iteration. FlushCompleted may
    // resume parsing and answer (or queue) more, so iterate by index.
    for (size_t i = 0; i < completed_.size(); ++i) {
      const auto [fd, id] = completed_[i];
      const auto it = conns_.find(fd);
      if (it != conns_.end() && it->second->id == id) {
        FlushCompleted(it->second.get());
      }
    }
    completed_.clear();
    if (reload_requested_.load(std::memory_order_relaxed)) {
      reload_requested_.store(false, std::memory_order_relaxed);
      if (on_reload_) {
        on_reload_();  // loop context: safe to touch handler state
      }
    }
    MaybeDumpTelemetry();
    if (instrument) {
      const int64_t t_end = RequestTelemetry::NowMicros();
      loop_wait_hist_->Record(static_cast<double>(t_work0 - t_wait0) * 1e-6);
      loop_work_hist_->Record(static_cast<double>(t_end - t_work0) * 1e-6);
      loop_iterations_->Increment();
      if (t_end - t_work0 > kStallThresholdUs) {
        loop_stalls_->Increment();
        Trace("loop_stall",
              {{"work_us", EventTracer::JsonNumber(t_end - t_work0)},
               {"events", EventTracer::JsonNumber(static_cast<int64_t>(n))}});
      }
    }
  }
  CloseHandedOff();
  return ok;
}

void NetServer::Stop() {
  // Async-signal-safe: one relaxed atomic store + one write(2). Sticky, so a
  // SIGTERM arriving between the readiness line and Run() entry still stops
  // the loop (the fleet supervisor terminates fast enough to hit that
  // window).
  stop_requested_.store(true, std::memory_order_relaxed);
  if (wake_fd_ >= 0) {
    const uint64_t one = 1;
    (void)!::write(wake_fd_, &one, sizeof(one));
  }
}

void NetServer::RequestTelemetryDump() {
  // Async-signal-safe: one relaxed atomic store + one write(2).
  dump_requested_.store(true, std::memory_order_relaxed);
  if (wake_fd_ >= 0) {
    const uint64_t one = 1;
    (void)!::write(wake_fd_, &one, sizeof(one));
  }
}

void NetServer::SetHandler(RequestHandler* handler) {
  handler_ = handler != nullptr ? handler : &core_;
  handler_->set_telemetry(telemetry_.get());
  handler_->AttachLoop(this);
}

int NetServer::WaitTimeoutMs() const {
  int64_t deadline = LoopClient::kNoDeadline;
  for (const LoopClient* client : loop_clients_) {
    deadline = std::min(deadline, client->NextDeadlineUs());
  }
  if (deadline == LoopClient::kNoDeadline) {
    return -1;
  }
  const int64_t left_us = deadline - RequestTelemetry::NowMicros();
  if (left_us <= 0) {
    return 0;
  }
  // Round up: waking a hair early would only spin through one more wait.
  return static_cast<int>(
      std::min<int64_t>((left_us + 999) / 1000, INT_MAX));
}

void NetServer::AddClient(LoopClient* client) {
  loop_clients_.push_back(client);
}

bool NetServer::WatchFd(int fd, LoopClient* client, bool want_write) {
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  if (epoll_fd_ < 0 || ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return false;
  }
  foreign_fds_[fd] = client;
  return true;
}

void NetServer::SetWantWrite(int fd, bool want_write) {
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

void NetServer::UnwatchFd(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  foreign_fds_.erase(fd);
}

void NetServer::CompleteParked(const ReplyTicket& ticket,
                               std::string&& reply) {
  const auto it = conns_.find(ticket.fd);
  if (it == conns_.end() || it->second->id != ticket.conn) {
    return;  // the client left; nobody is owed this reply any more
  }
  Connection* conn = it->second.get();
  if (ticket.seq < conn->slot_base ||
      ticket.seq - conn->slot_base >= conn->slots.size()) {
    return;
  }
  ReplySlot& slot = conn->slots[ticket.seq - conn->slot_base];
  if (slot.ready) {
    return;
  }
  slot.reply = std::move(reply);
  slot.ready = true;
  --conn->parked;
  if (!conn->completed) {
    conn->completed = true;
    completed_.emplace_back(ticket.fd, ticket.conn);
  }
}

void NetServer::SetReloadHandler(std::function<void()> on_reload) {
  on_reload_ = std::move(on_reload);
}

void NetServer::RequestReload() {
  // Async-signal-safe: one relaxed atomic store + one write(2).
  reload_requested_.store(true, std::memory_order_relaxed);
  if (wake_fd_ >= 0) {
    const uint64_t one = 1;
    (void)!::write(wake_fd_, &one, sizeof(one));
  }
}

void NetServer::MaybeDumpTelemetry() {
  const bool requested = dump_requested_.load(std::memory_order_relaxed);
  const bool slow = telemetry_ != nullptr && telemetry_->dump_pending();
  if (!requested && !slow) {
    return;
  }
  const int64_t now = LoopMicros();
  if (!requested && now - last_auto_dump_us_ < 1'000'000) {
    return;  // debounced; dump_pending stays set and retries next iteration
  }
  dump_requested_.store(false, std::memory_order_relaxed);
  last_auto_dump_us_ = now;
  if (telemetry_ != nullptr) {
    telemetry_->clear_dump_pending();
  }
  DumpTelemetry(requested ? "signal" : "slow_request");
}

void NetServer::DumpTelemetry(const char* reason) {
  size_t spans = 0;
  if (telemetry_ != nullptr && !config_.span_dump_path.empty()) {
    // Shards append to one shared span file; the dump mutex keeps each
    // dump's JSONL lines contiguous. The metrics render below runs outside
    // it: it may wait for a peer's work mutex, and that peer may be waiting
    // here.
    std::unique_lock<std::mutex> dump_lock;
    if (dump_mu_ != nullptr) {
      dump_lock = std::unique_lock<std::mutex>(*dump_mu_);
    }
    spans = telemetry_->ring_size();
    std::ofstream out(config_.span_dump_path, std::ios::app);
    if (out) {
      out << telemetry_->RenderFlightRecorderJsonl();
    } else {
      SPOTCACHE_LOG(kWarn) << "flight-recorder dump failed: "
                           << config_.span_dump_path;
    }
  }
  if (!config_.metrics_dump_path.empty() && obs_ != nullptr) {
    WriteStringToFile(config_.metrics_dump_path, RenderMetrics());
  }
  SPOTCACHE_LOG(kInfo) << "telemetry dump (" << reason << "): " << spans
                       << " spans";
  Trace("telemetry_dump",
        {{"reason", EventTracer::JsonString(reason)},
         {"spans", EventTracer::JsonNumber(static_cast<int64_t>(spans))}});
}

void NetServer::AcceptReady(int listen_fd, bool metrics) {
  for (;;) {
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      return;  // EAGAIN or transient accept error: wait for the next event
    }
    // Shard 0 of a multi-shard server accepts for everyone and deals the
    // fds round-robin, its own turn included.
    if (!metrics && !dispatch_to_.empty()) {
      NetServer* target = dispatch_to_[dispatch_rr_++ % dispatch_to_.size()];
      if (target != this) {
        target->HandOff(fd);
        continue;
      }
    }
    // Scrape connections have their own small cap so metrics stay reachable
    // even when the cache listener is at max_connections, and vice versa.
    const bool over_limit = metrics
                                ? metrics_conns_ >= kMaxMetricsConns
                                : conns_.size() - metrics_conns_ >=
                                      config_.max_connections;
    if (over_limit) {
      if (!metrics && conns_rejected_ != nullptr) {
        conns_rejected_->Increment();
      }
      ::close(fd);
      continue;
    }
    RegisterConn(fd, metrics);
  }
}

void NetServer::RegisterConn(int fd, bool metrics) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  auto conn = std::make_unique<Connection>();
  conn->fd = fd;
  conn->id = next_conn_id_++;
  conn->is_metrics = metrics;
  conn->armed = EPOLLIN;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    return;
  }
  if (metrics) {
    ++metrics_conns_;
  } else {
    if (conns_opened_ != nullptr) {
      conns_opened_->Increment();
    }
    Trace("conn_open", {{"conn", EventTracer::JsonNumber(
                                     static_cast<int64_t>(conn->id))}});
  }
  conns_.emplace(fd, std::move(conn));
  // Peak client connections: scrape connections do not count.
  const size_t clients = conns_.size() - metrics_conns_;
  if (clients > conns_high_water_) {
    conns_high_water_ = clients;
    if (conns_hw_gauge_ != nullptr) {
      conns_hw_gauge_->Set(static_cast<double>(conns_high_water_));
    }
  }
}

void NetServer::AdoptFd(int fd) {
  if (conns_.size() - metrics_conns_ >= config_.max_connections) {
    if (conns_rejected_ != nullptr) {
      conns_rejected_->Increment();
    }
    ::close(fd);
    return;
  }
  RegisterConn(fd, /*metrics=*/false);
}

void NetServer::HandOff(int fd) {
  {
    std::lock_guard<std::mutex> lock(handoff_mu_);
    handoff_fds_.push_back(fd);
  }
  const uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof(one));
}

void NetServer::AdoptHandedOff() {
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lock(handoff_mu_);
    fds.swap(handoff_fds_);
  }
  for (const int fd : fds) {
    AdoptFd(fd);
  }
}

void NetServer::CloseHandedOff() {
  std::lock_guard<std::mutex> lock(handoff_mu_);
  for (const int fd : handoff_fds_) {
    ::close(fd);
  }
  handoff_fds_.clear();
}

void NetServer::ConfigureShard(const ShardContext& ctx) {
  shard_ctx_ = ctx;
  core_.ConfigureShard(ctx);
}

void NetServer::LockWork() {
  work_waiters_.fetch_add(1, std::memory_order_acq_rel);
  work_mu_.lock();
}

void NetServer::UnlockWork() {
  work_mu_.unlock();
  work_waiters_.fetch_sub(1, std::memory_order_acq_rel);
}

std::string NetServer::RenderMetrics() const {
  if (render_metrics_) {
    return render_metrics_();
  }
  return obs_ != nullptr ? ToPrometheusText(obs_->registry) : std::string();
}

void NetServer::ConnReadable(Connection* conn) {
  if (conn->is_metrics) {
    MetricsReadable(conn);
    return;
  }
  for (;;) {
    char* dst = conn->parser.WritePtr(kRecvChunk);
    const ssize_t n = ::recv(conn->fd, dst, kRecvChunk, 0);
    if (n > 0) {
      conn->parser.Commit(static_cast<size_t>(n));
      if (bytes_in_ != nullptr) {
        bytes_in_->Increment(n);
      }
      if (static_cast<size_t>(n) < kRecvChunk) {
        break;  // drained the socket
      }
      continue;
    }
    if (n == 0) {
      CloseConn(conn, "eof");
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    if (errno == EINTR) {
      continue;
    }
    CloseConn(conn, "read_error");
    return;
  }
  DrainParked(conn);
}

void NetServer::MetricsReadable(Connection* conn) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->http_in.append(buf, static_cast<size_t>(n));
      if (conn->http_in.size() > 16 * 1024) {
        CloseConn(conn, "metrics_overflow");
        return;
      }
      continue;
    }
    if (n == 0) {
      CloseConn(conn, "eof");
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    if (errno == EINTR) {
      continue;
    }
    CloseConn(conn, "read_error");
    return;
  }
  // Any complete HTTP request header gets the metrics snapshot; the path is
  // ignored (the endpoint serves exactly one document).
  if (conn->http_responded ||
      conn->http_in.find("\r\n\r\n") == std::string::npos) {
    return;
  }
  conn->http_responded = true;
  if (metrics_scrapes_ != nullptr) {
    metrics_scrapes_->Increment();
  }
  const std::string body = RenderMetrics();
  char header[160];
  const int header_len = snprintf(
      header, sizeof(header),
      "HTTP/1.0 200 OK\r\n"
      "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
      "Content-Length: %zu\r\n"
      "Connection: close\r\n\r\n",
      body.size());
  conn->pending_out.append(header, static_cast<size_t>(header_len));
  conn->pending_out.append(body);
  conn->close_after_flush = true;
  Flush(conn);
}

void NetServer::DrainParked(Connection* conn) {
  const int64_t now = NowUnix();
  RequestTelemetry* t = telemetry_.get();
  if (t != nullptr) {
    t->BeginBatch(conn->id);
  }
  while (conn->parked < kMaxParkedPerConn && !conn->close_after_flush &&
         !conn->holding()) {
    if (t != nullptr) {
      t->BeginRequest();
    }
    const ParseStatus st = conn->parser.Next();
    if (st == ParseStatus::kNeedMore) {
      if (t != nullptr) {
        t->OnAbandoned();
      }
      break;
    }
    // Only a reply with nothing older still owed may go straight out.
    const bool in_order = conn->slots.empty();
    ResponseAssembler* out = in_order ? &conn->assembler : &park_scratch_;
    RequestHandler::Started started = RequestHandler::Started::kDone;
    if (st == ParseStatus::kError) {
      if (t != nullptr) {
        t->OnParsed(TelemetryOp::kOther, 0);
      }
      handler_->HandleParseError(conn->parser.error(), out);
      if (t != nullptr) {
        t->OnExecuted(RequestOutcome::kError, 0);
      }
      Trace("protocol_error",
            {{"conn",
              EventTracer::JsonNumber(static_cast<int64_t>(conn->id))},
             {"kind",
              EventTracer::JsonString(ToString(conn->parser.error()))}});
    } else {
      const ReplyTicket ticket{conn->fd, conn->id,
                               conn->slot_base + conn->slots.size()};
      started = handler_->Start(conn->parser.request(), now, out, ticket);
    }
    if (started == RequestHandler::Started::kParked ||
        started == RequestHandler::Started::kParkedBarrier) {
      conn->slots.emplace_back().barrier =
          started == RequestHandler::Started::kParkedBarrier;
      ++conn->parked;
    } else if (!in_order) {
      ReplySlot& slot = conn->slots.emplace_back();
      slot.reply = park_scratch_.Flatten();
      slot.ready = true;
      park_scratch_.Clear();
    }
    if (started == RequestHandler::Started::kClose) {
      conn->close_after_flush = true;
    }
  }
  FlushTimed(conn, t);
}

void NetServer::FlushCompleted(Connection* conn) {
  conn->completed = false;
  while (!conn->slots.empty() && conn->slots.front().ready) {
    conn->assembler.Append(conn->slots.front().reply);
    conn->slots.pop_front();
    ++conn->slot_base;
  }
  const int fd = conn->fd;
  Flush(conn);
  if (conns_.find(fd) == conns_.end()) {
    return;  // closed by the flush (quit, write error, slow consumer)
  }
  // Requests left buffered by the parked cap or a barrier can go now.
  if ((conn->armed & EPOLLIN) != 0 && !conn->holding() &&
      conn->parser.buffered() > 0) {
    DrainParked(conn);
  }
}

void NetServer::FlushTimed(Connection* conn, RequestTelemetry* t) {
  // Time the flush only when spans are waiting for their write stamp —
  // unsampled batches skip both clock reads.
  if (t != nullptr && t->batch_has_spans()) {
    const int64_t w0 = RequestTelemetry::NowMicros();
    Flush(conn);
    t->EndBatch(RequestTelemetry::NowMicros() - w0);
  } else {
    Flush(conn);
    if (t != nullptr) {
      t->EndBatch(0);
    }
  }
}

void NetServer::Flush(Connection* conn) {
  // Scrape responses are not cache replies: net/bytes_out skips them.
  Counter* const bytes_out = conn->is_metrics ? nullptr : bytes_out_;
  // Drain any previously buffered bytes first to preserve ordering.
  while (conn->pending_sent < conn->pending_out.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->pending_out.data() + conn->pending_sent,
               conn->pending_out.size() - conn->pending_sent, MSG_NOSIGNAL);
    if (n > 0) {
      conn->pending_sent += static_cast<size_t>(n);
      if (bytes_out != nullptr) {
        bytes_out->Increment(n);
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    CloseConn(conn, "write_error");
    return;
  }
  if (conn->pending_sent == conn->pending_out.size()) {
    conn->pending_out.clear();
    conn->pending_sent = 0;
  }

  const auto& iov = conn->assembler.iovecs();
  size_t iov_index = 0;
  size_t iov_offset = 0;
  if (conn->pending_out.empty()) {
    while (iov_index < iov.size()) {
      // writev caps at IOV_MAX vectors per call; loop in windows.
      iovec local[64];
      int cnt = 0;
      for (size_t i = iov_index; i < iov.size() && cnt < 64; ++i, ++cnt) {
        local[cnt] = iov[i];
        if (cnt == 0 && iov_offset > 0) {
          local[0].iov_base = static_cast<char*>(local[0].iov_base) + iov_offset;
          local[0].iov_len -= iov_offset;
        }
      }
      const ssize_t n = ::writev(conn->fd, local, cnt);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          break;
        }
        CloseConn(conn, "write_error");
        return;
      }
      if (bytes_out != nullptr) {
        bytes_out->Increment(n);
      }
      size_t left = static_cast<size_t>(n);
      while (left > 0 && iov_index < iov.size()) {
        const size_t avail = iov[iov_index].iov_len - iov_offset;
        if (left >= avail) {
          left -= avail;
          ++iov_index;
          iov_offset = 0;
        } else {
          iov_offset += left;
          left = 0;
        }
      }
    }
  }
  // Anything unsent gets copied out of the assembler (whose pins die on
  // Clear) into the pending buffer.
  for (size_t i = iov_index; i < iov.size(); ++i) {
    const char* base = static_cast<const char*>(iov[i].iov_base);
    size_t len = iov[i].iov_len;
    if (i == iov_index && iov_offset > 0) {
      base += iov_offset;
      len -= iov_offset;
    }
    conn->pending_out.append(base, len);
  }
  conn->assembler.Clear();

  const size_t backlog = conn->pending_out.size() - conn->pending_sent;
  if (backlog > pending_out_high_water_) {
    pending_out_high_water_ = backlog;
    if (pending_hw_gauge_ != nullptr) {
      pending_hw_gauge_->Set(static_cast<double>(backlog));
    }
  }
  if (backlog > config_.max_output_buffer) {
    if (slow_closes_ != nullptr) {
      slow_closes_->Increment();
    }
    CloseConn(conn, "slow_consumer");
    return;
  }
  if (conn->pending_out.empty() && conn->close_after_flush &&
      conn->slots.empty()) {
    CloseConn(conn, "quit");
    return;
  }
  UpdateInterest(conn);
}

void NetServer::ConnWritable(Connection* conn) { Flush(conn); }

void NetServer::UpdateInterest(Connection* conn) {
  // Hysteresis: stop reading at the parked cap, resume at half of it, so a
  // client pipelining past the cap does not flip epoll per reply.
  uint32_t want = conn->armed & EPOLLIN;
  if (conn->parked >= kMaxParkedPerConn) {
    want = 0;
  } else if (conn->parked <= kMaxParkedPerConn / 2) {
    want = EPOLLIN;
  }
  if (!conn->pending_out.empty()) {
    want |= EPOLLOUT;
  }
  if (want == conn->armed) {
    return;
  }
  conn->armed = want;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void NetServer::CloseConn(Connection* conn, const char* reason) {
  if (conn->is_metrics) {
    --metrics_conns_;
  } else {
    Trace("conn_close",
          {{"conn", EventTracer::JsonNumber(static_cast<int64_t>(conn->id))},
           {"reason", EventTracer::JsonString(reason)}});
    if (conns_closed_ != nullptr) {
      conns_closed_->Increment();
    }
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conns_.erase(conn->fd);
}

}  // namespace spotcache::net
