#include "src/proxy/upstream_pool.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <climits>

namespace spotcache::proxy {

namespace {

constexpr uint64_t kBackupSlot = ~0ULL;
/// Seed of the breakers' probe jitter (each breaker also mixes in its slot).
constexpr uint64_t kBreakerSeed = 0;
constexpr size_t kReadChunk = 64 * 1024;

int64_t WallUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t EpollBits(short revents) {
  uint32_t events = 0;
  events |= (revents & POLLIN) != 0 ? EPOLLIN : 0u;
  events |= (revents & POLLOUT) != 0 ? EPOLLOUT : 0u;
  events |= (revents & POLLERR) != 0 ? EPOLLERR : 0u;
  events |= (revents & POLLHUP) != 0 ? EPOLLHUP : 0u;
  return events;
}

}  // namespace

void UpstreamOp::SetGet(std::vector<std::string> keys, bool with_cas) {
  kind_ = Kind::kGet;
  with_cas_ = with_cas;
  keys_ = std::move(keys);
  fetches_.assign(keys_.size(), KeyFetch{});
}

void UpstreamOp::SetLine(std::string key, std::string wire) {
  kind_ = Kind::kLine;
  keys_.assign(1, std::move(key));
  wire_ = std::move(wire);
  forward_ = ForwardResult{};
}

void UpstreamOp::SetFlush(int64_t delay_s) {
  kind_ = Kind::kFlush;
  wire_ = "flush_all";
  if (delay_s > 0) {
    wire_ += ' ';
    wire_ += std::to_string(delay_s);
  }
  wire_ += "\r\n";
  acked_ = 0;
}

UpstreamPool::UpstreamPool(const UpstreamPoolConfig& config,
                           EventTracer* tracer, MetricsRegistry* registry)
    : config_(config), tracer_(tracer), epoch_us_(WallUs()) {
  MetricsRegistry& reg = registry != nullptr ? *registry : own_registry_;
  absorbed_failures_ = reg.GetCounter("proxy/absorbed_failures");
  reconnects_ = reg.GetCounter("proxy/reconnects");
  breaker_skips_ = reg.GetCounter("proxy/breaker_skips");
  backup_served_ = reg.GetCounter("proxy/backup_served");
  unreachable_ = reg.GetCounter("proxy/unreachable");
}

UpstreamPoolStats UpstreamPool::stats() const {
  return {static_cast<uint64_t>(absorbed_failures_->value()),
          static_cast<uint64_t>(reconnects_->value()),
          static_cast<uint64_t>(breaker_skips_->value()),
          static_cast<uint64_t>(backup_served_->value()),
          static_cast<uint64_t>(unreachable_->value())};
}

UpstreamPool::~UpstreamPool() {
  // The loop may already be gone: close without deregistering (closing an
  // fd drops it from any epoll set).
  for (auto& [slot, node] : nodes_) {
    if (node.fd >= 0) {
      ::close(node.fd);
    }
  }
  if (backup_ != nullptr && backup_->fd >= 0) {
    ::close(backup_->fd);
  }
}

SimTime UpstreamPool::Now() const {
  return SimTime::FromMicros(WallUs() - epoch_us_);
}

template <typename Fn>
void UpstreamPool::ForEachNode(Fn&& fn) {
  for (auto& [slot, node] : nodes_) {
    fn(node);
  }
  if (backup_ != nullptr) {
    fn(*backup_);
  }
}

template <typename Fn>
void UpstreamPool::ForEachNode(Fn&& fn) const {
  for (const auto& [slot, node] : nodes_) {
    fn(node);
  }
  if (backup_ != nullptr) {
    fn(*backup_);
  }
}

// --- Membership. ------------------------------------------------------------

void UpstreamPool::SetNode(uint64_t slot, const std::string& host,
                           uint16_t port) {
  Node& node = nodes_[slot];
  if (node.breaker != nullptr && !node.dead && node.host == host &&
      node.port == port) {
    return;  // unchanged endpoint: keep the connection and breaker history
  }
  ResetNode(node);
  node.slot = slot;
  node.host = host;
  node.port = port;
  node.dead = false;
  node.redial = false;
  // A replacement is a fresh process: it earns a fresh breaker.
  node.breaker =
      std::make_unique<CircuitBreaker>(config_.breaker, kBreakerSeed, slot);
  ring_.Add(slot);
}

void UpstreamPool::SetBackup(const std::string& host, uint16_t port) {
  if (backup_ != nullptr && backup_->host == host && backup_->port == port) {
    return;
  }
  if (backup_ != nullptr) {
    ResetNode(*backup_);
  }
  backup_ = std::make_unique<Node>();
  backup_->slot = kBackupSlot;
  backup_->host = host;
  backup_->port = port;
  // Slot id ~0 keeps the backup's breaker jitter decorrelated from primaries.
  backup_->breaker = std::make_unique<CircuitBreaker>(
      config_.breaker, kBreakerSeed, kBackupSlot);
}

void UpstreamPool::MarkDead(uint64_t slot) {
  auto it = nodes_.find(slot);
  if (it == nodes_.end()) {
    // An unknown-but-dead slot still owns ring range; keys homed there must
    // degrade to the backup instead of rehashing onto live primaries.
    Node& node = nodes_[slot];
    node.slot = slot;
    node.breaker =
        std::make_unique<CircuitBreaker>(config_.breaker, kBreakerSeed, slot);
    node.dead = true;
    ring_.Add(slot);
    return;
  }
  Node& node = it->second;
  node.dead = true;
  ResetNode(node);
  const SimTime now = Now();
  const BreakerState before = node.breaker->state(now);
  for (int i = 0; i < config_.breaker.failure_threshold; ++i) {
    node.breaker->RecordFailure(now);
  }
  TraceBreaker(slot, before, node.breaker->state(now));
}

void UpstreamPool::RemoveNode(uint64_t slot) {
  auto it = nodes_.find(slot);
  if (it == nodes_.end()) {
    return;
  }
  ResetNode(it->second);
  nodes_.erase(it);
  ring_.Remove(slot);
}

void UpstreamPool::ApplyMembership(const FleetMembership& m) {
  if (m.backup.has_value()) {
    SetBackup(m.backup->host, m.backup->port);
  } else if (backup_ != nullptr) {
    ResetNode(*backup_);
    backup_.reset();
  }
  // Drop slots the document no longer names.
  std::vector<uint64_t> stale;
  for (const auto& [slot, node] : nodes_) {
    bool named = false;
    for (const MemberNode& n : m.nodes) {
      if (n.slot == slot) {
        named = true;
        break;
      }
    }
    if (!named) {
      stale.push_back(slot);
    }
  }
  for (const uint64_t slot : stale) {
    RemoveNode(slot);
  }
  for (const MemberNode& n : m.nodes) {
    if (n.dead()) {
      MarkDead(n.slot);
    } else {
      SetNode(n.slot, n.host, n.port);
    }
  }
  generation_ = m.generation;
}

std::optional<uint64_t> UpstreamPool::OwnerOf(std::string_view key) const {
  return ring_.OwnerOf(key);
}

void UpstreamPool::AttachLoop(net::EventLoop* loop) {
  loop_ = loop;
  loop_->AddClient(this);
}

// --- Breakers. --------------------------------------------------------------

void UpstreamPool::TraceBreaker(uint64_t slot, BreakerState before,
                                BreakerState after) {
  if (tracer_ != nullptr && before != after) {
    tracer_->BreakerTransition(Now(), slot, ToString(before), ToString(after));
  }
}

void UpstreamPool::RecordSuccess(Node& node) {
  const SimTime now = Now();
  const BreakerState before = node.breaker->state(now);
  node.breaker->RecordSuccess(now);
  TraceBreaker(node.slot, before, node.breaker->state(now));
}

// --- Ops and legs. ----------------------------------------------------------

void UpstreamPool::Start(UpstreamOp* op, OpListener* listener) {
  op->done_ = false;
  op->listener_ = nullptr;  // nothing is reported before Start returns
  op->unreachable_ = 0;
  op->legs_left_ = 1;  // held until every leg is dispatched
  const SimTime now = Now();
  switch (op->kind_) {
    case UpstreamOp::Kind::kGet: {
      // One breaker decision per owning slot, as for one pipelined fetch.
      std::vector<std::pair<uint64_t, Node*>> decided;
      for (size_t i = 0; i < op->keys_.size(); ++i) {
        ++op->legs_left_;
        const auto owner = ring_.OwnerOf(op->keys_[i]);
        if (!owner.has_value()) {
          ToBackup(op, static_cast<uint32_t>(i));
          continue;
        }
        auto seen = std::find_if(
            decided.begin(), decided.end(),
            [&owner](const auto& d) { return d.first == *owner; });
        if (seen == decided.end()) {
          auto it = nodes_.find(*owner);
          Node* node = it != nodes_.end() ? &it->second : nullptr;
          const bool open =
              node != nullptr && !node->dead && node->breaker->Allow(now);
          if (node != nullptr && !open) {
            breaker_skips_->Increment();
          }
          seen = decided.emplace(decided.end(), *owner,
                                 open ? node : nullptr);
        }
        if (seen->second != nullptr) {
          Enqueue(*seen->second,
                  Leg{op, static_cast<uint32_t>(i), ServedRung::kPrimary, 0});
        } else {
          ToBackup(op, static_cast<uint32_t>(i));
        }
      }
      break;
    }
    case UpstreamOp::Kind::kLine: {
      ++op->legs_left_;
      const auto owner = ring_.OwnerOf(op->keys_[0]);
      auto it = owner.has_value() ? nodes_.find(*owner) : nodes_.end();
      if (it != nodes_.end() && !it->second.dead &&
          it->second.breaker->Allow(now)) {
        Enqueue(it->second, Leg{op, 0, ServedRung::kPrimary, 0});
      } else {
        if (it != nodes_.end()) {
          breaker_skips_->Increment();
        }
        // Degraded leg: land the command on the backup so warm-up (and
        // backup fall-through reads) see fresh data.
        ToBackup(op, 0);
      }
      break;
    }
    case UpstreamOp::Kind::kFlush:
      ForEachNode([&](Node& node) {
        if (!node.dead && node.breaker->Allow(now)) {
          ++op->legs_left_;
          Enqueue(node, Leg{op, 0,
                            node.slot == kBackupSlot ? ServedRung::kBackup
                                                     : ServedRung::kPrimary,
                            0});
        }
      });
      break;
  }
  LegDone(op);
  if (!op->done_) {
    op->listener_ = listener;
  }
}

void UpstreamPool::ToBackup(UpstreamOp* op, uint32_t index) {
  if (backup_ != nullptr && backup_->breaker->Allow(Now())) {
    Enqueue(*backup_, Leg{op, index, ServedRung::kBackup, 0});
  } else {
    ResolveUnreachable(op);
  }
}

void UpstreamPool::ResolveUnreachable(UpstreamOp* op) {
  // The op's result stays at its zero state: a miss on the kNone rung for a
  // get (absorbed, never an error), no line for a write.
  unreachable_->Increment();
  ++op->unreachable_;
  LegDone(op);
}

void UpstreamPool::LegDone(UpstreamOp* op) {
  if (--op->legs_left_ > 0) {
    return;
  }
  op->done_ = true;
  if (tracer_ != nullptr && op->unreachable_ > 0) {
    tracer_->Shed(Now(), "proxy_pool", static_cast<double>(op->unreachable_));
  }
  if (op->listener_ != nullptr) {
    op->listener_->OnOpDone(op);  // may free the op: touch nothing after
  }
}

void UpstreamPool::Reroute(const Leg& leg) {
  if (leg.op->kind_ == UpstreamOp::Kind::kFlush) {
    LegDone(leg.op);  // an unacknowledged flush leg
  } else if (leg.rung == ServedRung::kPrimary) {
    ToBackup(leg.op, leg.index);
  } else {
    ResolveUnreachable(leg.op);
  }
}

bool UpstreamPool::Deliver(Node& node, const net::ReplyReader::Reply& reply) {
  if (node.inflight.empty()) {
    return false;
  }
  const Leg leg = node.inflight.front();
  UpstreamOp* op = leg.op;
  switch (op->kind_) {
    case UpstreamOp::Kind::kGet: {
      if (reply.status == net::ReplyReader::Status::kError) {
        return false;  // an error line for a get: the upstream is confused
      }
      KeyFetch& fetch = op->fetches_[leg.index];
      fetch.rung = leg.rung;
      fetch.found = reply.status == net::ReplyReader::Status::kHit;
      if (fetch.found) {
        fetch.flags = reply.flags;
        fetch.cas = reply.cas;
        fetch.data.assign(reply.data);
      }
      break;
    }
    case UpstreamOp::Kind::kLine:
      op->forward_.line.emplace(reply.line);
      op->forward_.rung = leg.rung;
      break;
    case UpstreamOp::Kind::kFlush:
      if (reply.line == "OK") {
        ++op->acked_;
      }
      break;
  }
  if (leg.rung == ServedRung::kBackup &&
      op->kind_ != UpstreamOp::Kind::kFlush) {
    backup_served_->Increment();
  }
  node.inflight.pop_front();
  LegDone(op);
  return true;
}

// --- Connections. -----------------------------------------------------------

void UpstreamPool::Enqueue(Node& node, Leg leg) {
  const int64_t now_us = WallUs();
  if (node.state == LinkState::kClosed) {
    Connect(node, now_us);
  }
  node.queued.push_back(leg);
  Admit(node, now_us);
}

void UpstreamPool::Admit(Node& node, int64_t now_us) {
  const size_t window =
      config_.window > 0 ? static_cast<size_t>(config_.window) : 1;
  const int64_t deadline_us =
      now_us + static_cast<int64_t>(config_.op_timeout_ms) * 1000;
  while (!node.queued.empty() && node.inflight.size() < window) {
    Leg leg = node.queued.front();
    node.queued.pop_front();
    const UpstreamOp* op = leg.op;
    if (op->kind_ == UpstreamOp::Kind::kGet) {
      node.out += op->with_cas_ ? "gets " : "get ";
      node.out += op->keys_[leg.index];
      node.out += "\r\n";
      node.reader.Push(net::ReplyReader::Expect::kRetrieval);
    } else {
      node.out += op->wire_;
      node.reader.Push(net::ReplyReader::Expect::kLine);
    }
    leg.deadline_us = deadline_us;
    node.inflight.push_back(leg);
  }
}

void UpstreamPool::Connect(Node& node, int64_t now_us) {
  node.connect_deadline_us =
      now_us + static_cast<int64_t>(config_.op_timeout_ms) * 1000;
  // Failures are never handled here (the caller may be mid-dispatch): the
  // node goes to kFailed and the next deadline check fails it.
  node.state = LinkState::kFailed;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(node.port);
  if (::inet_pton(AF_INET, node.host.c_str(), &addr.sin_addr) != 1) {
    return;
  }
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int rc =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    return;
  }
  const bool connecting = rc != 0;
  if (loop_ != nullptr && !loop_->WatchFd(fd, this, connecting)) {
    ::close(fd);
    return;
  }
  node.fd = fd;
  node.want_write = connecting;
  if (connecting) {
    node.state = LinkState::kConnecting;
  } else {
    MarkUp(node);
  }
}

void UpstreamPool::MarkUp(Node& node) {
  node.state = LinkState::kUp;
  if (node.redial) {
    reconnects_->Increment();
    node.redial = false;
  }
}

void UpstreamPool::SetWantWrite(Node& node, bool want) {
  if (node.want_write == want) {
    return;
  }
  node.want_write = want;
  if (loop_ != nullptr && node.fd >= 0) {
    loop_->SetWantWrite(node.fd, want);
  }
}

void UpstreamPool::Pump() {
  ForEachNode([this](Node& node) {
    if (node.state == LinkState::kUp && !node.want_write &&
        node.out_sent < node.out.size()) {
      WriteOut(node);
    }
  });
}

void UpstreamPool::WriteOut(Node& node) {
  while (node.out_sent < node.out.size()) {
    const ssize_t n =
        ::send(node.fd, node.out.data() + node.out_sent,
               node.out.size() - node.out_sent, MSG_NOSIGNAL);
    if (n > 0) {
      node.out_sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      SetWantWrite(node, true);  // short write: finish on EPOLLOUT
      return;
    }
    FailNode(node);
    return;
  }
  node.out.clear();
  node.out_sent = 0;
  SetWantWrite(node, false);
}

void UpstreamPool::ReadIn(Node& node) {
  read_buf_.resize(kReadChunk);
  bool answered = false;
  bool failed = false;
  for (;;) {
    const ssize_t n = ::recv(node.fd, read_buf_.data(), kReadChunk, 0);
    if (n > 0) {
      bool lost_sync = false;
      const bool parsed = node.reader.FeedReplies(
          std::string_view(read_buf_.data(), static_cast<size_t>(n)),
          [&](const net::ReplyReader::Reply& reply) {
            if (lost_sync) {
              return;
            }
            if (Deliver(node, reply)) {
              answered = true;
            } else {
              lost_sync = true;
            }
          });
      // A torn or garbage reply (half a VALUE block before a kill, a status
      // line outside the vocabulary) means the stream lost protocol sync:
      // the socket is as good as dead, and nothing of it is relayed.
      failed = !parsed || lost_sync;
      if (failed || static_cast<size_t>(n) < kReadChunk) {
        break;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    // EOF or a hard error fails the upstream, even with nothing in flight:
    // memcached does not hang up on live clients.
    failed = !(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
    break;
  }
  if (answered) {
    RecordSuccess(node);
  }
  if (failed) {
    FailNode(node);
    return;
  }
  Admit(node, WallUs());
}

void UpstreamPool::HandleReady(Node& node, uint32_t events) {
  if (node.state == LinkState::kConnecting) {
    if ((events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) == 0) {
      return;
    }
    // Readiness can be stale (reported for an fd number this pool has since
    // closed and reused): confirm the connect really finished.
    pollfd p{node.fd, POLLOUT, 0};
    if (::poll(&p, 1, 0) <= 0) {
      return;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(node.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0 || (p.revents & (POLLERR | POLLHUP)) != 0) {
      FailNode(node);
      return;
    }
    MarkUp(node);
    WriteOut(node);
    return;
  }
  if (node.state != LinkState::kUp) {
    return;
  }
  // Errors and hangups go through the read path too: replies that arrived
  // before a reset are still queued, and they stand (resolved prefix).
  if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
    ReadIn(node);
    if (node.state != LinkState::kUp) {
      return;
    }
  }
  if ((events & EPOLLOUT) != 0 && node.want_write) {
    WriteOut(node);
  }
}

void UpstreamPool::FailNode(Node& node) {
  const SimTime now = Now();
  const BreakerState before = node.breaker->state(now);
  node.breaker->RecordFailure(now);
  absorbed_failures_->Increment();
  TraceBreaker(node.slot, before, node.breaker->state(now));
  ResetNode(node);
  node.redial = true;
}

void UpstreamPool::ResetNode(Node& node) {
  if (node.fd >= 0) {
    if (loop_ != nullptr) {
      loop_->UnwatchFd(node.fd);
    }
    ::close(node.fd);
    node.fd = -1;
  }
  node.state = LinkState::kClosed;
  node.want_write = false;
  node.out.clear();
  node.out_sent = 0;
  node.reader = net::ReplyReader();
  // Unresolved legs, oldest first, go one rung down. Never back onto this
  // node, so the deques can be swapped out before re-routing.
  std::deque<Leg> legs;
  legs.swap(node.inflight);
  legs.insert(legs.end(), node.queued.begin(), node.queued.end());
  node.queued.clear();
  for (const Leg& leg : legs) {
    Reroute(leg);
  }
}

void UpstreamPool::CheckDeadlines(int64_t now_us) {
  ForEachNode([&](Node& node) {
    const bool expired =
        node.state == LinkState::kFailed ||
        (node.state == LinkState::kConnecting &&
         now_us >= node.connect_deadline_us) ||
        (!node.inflight.empty() && now_us >= node.inflight.front().deadline_us);
    if (expired) {
      FailNode(node);
    }
  });
}

UpstreamPool::Node* UpstreamPool::NodeForFd(int fd) {
  Node* found = nullptr;
  ForEachNode([&](Node& node) {
    if (node.fd == fd) {
      found = &node;
    }
  });
  return found;
}

// --- Driving. ---------------------------------------------------------------

void UpstreamPool::OnFdReady(int fd, uint32_t events) {
  if (Node* node = NodeForFd(fd); node != nullptr) {
    HandleReady(*node, events);
  }
}

void UpstreamPool::Tick(int64_t now_us) {
  CheckDeadlines(now_us);
  Pump();
}

int64_t UpstreamPool::NextDeadlineUs() const {
  int64_t deadline = kNoDeadline;
  ForEachNode([&](const Node& node) {
    if (node.state == LinkState::kFailed ||
        (node.state == LinkState::kUp && !node.want_write &&
         node.out_sent < node.out.size())) {
      deadline = 0;  // a failure to process or commands to write: now
    } else if (node.state == LinkState::kConnecting) {
      deadline = std::min(deadline, node.connect_deadline_us);
    }
    if (!node.inflight.empty()) {
      deadline = std::min(deadline, node.inflight.front().deadline_us);
    }
  });
  return deadline;
}

void UpstreamPool::Run(UpstreamOp* op) {
  Start(op, nullptr);
  std::vector<pollfd> fds;
  std::vector<Node*> owners;
  for (;;) {
    CheckDeadlines(WallUs());
    Pump();
    if (op->done_) {
      return;
    }
    fds.clear();
    owners.clear();
    ForEachNode([&](Node& node) {
      if (node.fd >= 0) {
        const short events =
            static_cast<short>(POLLIN | (node.want_write ? POLLOUT : 0));
        fds.push_back({node.fd, events, 0});
        owners.push_back(&node);
      }
    });
    const int64_t deadline = NextDeadlineUs();
    int timeout_ms = -1;
    if (deadline != kNoDeadline) {
      const int64_t left_us = deadline - WallUs();
      timeout_ms = left_us <= 0 ? 0
                                : static_cast<int>(std::min<int64_t>(
                                      (left_us + 999) / 1000, INT_MAX));
    }
    if (fds.empty() && timeout_ms < 0) {
      return;  // nothing left that could finish the op (never expected)
    }
    if (::poll(fds.data(), fds.size(), timeout_ms) < 0 && errno != EINTR) {
      return;
    }
    for (size_t i = 0; i < fds.size(); ++i) {
      // An earlier handler may have closed this node's socket.
      if (fds[i].revents != 0 && owners[i]->fd == fds[i].fd) {
        HandleReady(*owners[i], EpollBits(fds[i].revents));
      }
    }
  }
}

void UpstreamPool::MultiGet(const std::vector<std::string_view>& keys,
                            bool with_cas, std::vector<KeyFetch>* out) {
  UpstreamOp op;
  op.SetGet(std::vector<std::string>(keys.begin(), keys.end()), with_cas);
  Run(&op);
  *out = std::move(op.fetches_);
}

ForwardResult UpstreamPool::ForwardLineCommand(std::string_view key,
                                               const std::string& wire) {
  UpstreamOp op;
  op.SetLine(std::string(key), wire);
  Run(&op);
  return std::move(op.forward_);
}

size_t UpstreamPool::BroadcastFlush(int64_t delay_s) {
  UpstreamOp op;
  op.SetFlush(delay_s);
  Run(&op);
  return op.acked_;
}

}  // namespace spotcache::proxy
