// UpstreamPool: the proxy's server-side fan-out to the cache fleet.
//
// This is the one router on the wire: it owns ring placement, the breakers
// and the degradation ladder. Keys are homed on consistent-hash slots
// (SlotRing, membership.h; MembershipPublisher mirrors the same ring to pick
// warm-up keys), and each slot is fronted by a
// src/resilience CircuitBreaker. The absorption contract: no transport
// failure ever surfaces to the proxy's client — gets degrade primary →
// backup → miss, writes degrade primary → backup → unavailable, and a
// failed upstream records a breaker failure and is redialled on its next
// use.
//
// The engine is non-blocking. Each upstream (every slot and the backup) has
// one non-blocking socket and one pipeline shared by every request: a
// request becomes an UpstreamOp whose legs — one command per key, one per
// write, one per upstream for flush_all — queue on their upstreams, at most
// `window` commands in flight on each, and the op finishes when its last leg
// resolves. Replies are parsed incrementally by net::ReplyReader and matched
// to legs in FIFO order, so a multiget across nodes costs max-over-nodes
// round trips and concurrent requests share them. A leg resolves when:
//
//   * its reply arrives (the upstream's answer, on the rung that sent it);
//   * its upstream fails — refused or timed-out connect, reset, EOF or a
//     torn/unparseable reply mid-pipeline, or the oldest command in flight
//     outliving `op_timeout_ms` — which records one breaker failure and
//     moves every unresolved leg on that upstream one rung down: primary
//     legs to the backup (if its breaker allows), backup legs to kNone.
//     Legs answered before the failure keep their answers (resolved-prefix
//     semantics).
//
// Who drives the sockets:
//
//   * Attached to a loop (AttachLoop — ProxyCore does this when NetServer
//     offers its epoll loop), the sockets sit on that loop: EPOLLIN always,
//     EPOLLOUT only while a write is short or a connect is pending, and the
//     loop's Tick flushes queued commands and enforces deadlines. Start()
//     returns at once and the op's listener hears when it finishes.
//   * The synchronous calls (MultiGet, ForwardLineCommand, BroadcastFlush)
//     start the same op and drive the same engine with poll(2) over the
//     pool's own sockets until it finishes. They work with or without a
//     loop.
//
// Membership is applied as whole documents (see membership.h): endpoints
// that did not change keep their connection and breaker history; changed or
// dead slots reset, and their unresolved legs move to the backup. The pool
// is single-threaded — no internal locking, by design (it lives inside
// ProxyCore, which NetServer drives from its single event loop).

#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/net/event_loop.h"
#include "src/net/reply_reader.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/proxy/membership.h"
#include "src/resilience/circuit_breaker.h"
#include "src/util/time.h"

namespace spotcache::proxy {

struct UpstreamPoolConfig {
  CircuitBreakerConfig breaker{
      .failure_threshold = 2,
      .open_base = Duration::Millis(100),
      .open_backoff = 2.0,
      .open_max = Duration::Seconds(2),
      .half_open_successes = 1,
      .probe_jitter = 0.25,
  };
  /// Deadline for a connect, and for the oldest command in flight on an
  /// upstream, before that upstream counts as failed.
  int op_timeout_ms = 250;
  /// Per-upstream bound on commands in flight (sent, reply not yet read).
  int window = 32;
};

/// Which rung of the degradation ladder served one key (or one write).
enum class ServedRung : uint8_t {
  kPrimary,  // the owning slot answered
  kBackup,   // primary unreachable / breaker open; the backup answered
  kNone,     // nothing reachable: a get becomes a miss, a write is lost
};

/// Per-key result of a MultiGet, in request-key order.
struct KeyFetch {
  bool found = false;
  ServedRung rung = ServedRung::kNone;
  uint32_t flags = 0;
  uint64_t cas = 0;
  std::string data;
};

/// Result of forwarding a single status-line command (storage / delete /
/// touch): the upstream's reply line (CRLF stripped), or nullopt when no
/// rung was reachable.
struct ForwardResult {
  std::optional<std::string> line;
  ServedRung rung = ServedRung::kNone;
};

/// A by-value view of the pool's counts (the counters themselves live in a
/// registry under proxy/*).
struct UpstreamPoolStats {
  uint64_t absorbed_failures = 0;  // transport failures hidden by degradation
  uint64_t reconnects = 0;         // successful redials after a failure
  uint64_t breaker_skips = 0;  // upstream legs skipped while a breaker is open
  uint64_t backup_served = 0;  // keys/writes that landed on the backup rung
  uint64_t unreachable = 0;    // keys/writes no rung could serve
};

class UpstreamOp;

/// Hears about ops that finish after Start() returned.
class OpListener {
 public:
  virtual ~OpListener() = default;
  virtual void OnOpDone(UpstreamOp* op) = 0;
};

/// One client request's upstream work. The caller owns it and must keep it
/// at a fixed address until done() (the pool's legs point at it).
class UpstreamOp {
 public:
  enum class Kind : uint8_t {
    kGet,    // keys -> fetches
    kLine,   // wire (one status-line command homed on keys[0]) -> forward
    kFlush,  // wire (flush_all) to every upstream -> acked
  };

  /// A retrieval of `keys` (gets when `with_cas`).
  void SetGet(std::vector<std::string> keys, bool with_cas);
  /// A status-line command homed on `key`.
  void SetLine(std::string key, std::string wire);
  /// flush_all (with an optional delay) for every upstream.
  void SetFlush(int64_t delay_s);

  Kind kind() const { return kind_; }
  bool done() const { return done_; }
  const std::vector<std::string>& keys() const { return keys_; }
  /// kGet: per-key results, request-key order.
  const std::vector<KeyFetch>& fetches() const { return fetches_; }
  /// kLine: the relayed status line and its rung.
  const ForwardResult& forward() const { return forward_; }

 private:
  friend class UpstreamPool;

  Kind kind_ = Kind::kGet;
  bool with_cas_ = false;
  bool done_ = false;
  std::vector<std::string> keys_;
  std::string wire_;
  std::vector<KeyFetch> fetches_;
  ForwardResult forward_;
  size_t acked_ = 0;  // kFlush: upstreams that answered OK
  size_t legs_left_ = 0;
  size_t unreachable_ = 0;  // legs that ended on the kNone rung
  OpListener* listener_ = nullptr;
};

class UpstreamPool final : public net::LoopClient {
 public:
  /// Counts land in `registry` under proxy/* (the pool's own registry when
  /// null); it must outlive the pool.
  explicit UpstreamPool(const UpstreamPoolConfig& config,
                        EventTracer* tracer = nullptr,
                        MetricsRegistry* registry = nullptr);
  ~UpstreamPool() override;

  UpstreamPool(const UpstreamPool&) = delete;
  UpstreamPool& operator=(const UpstreamPool&) = delete;

  /// Adds slot `slot` to the ring or re-points it. A changed endpoint resets
  /// the slot's connection and breaker; an identical endpoint is a no-op.
  void SetNode(uint64_t slot, const std::string& host, uint16_t port);
  /// The off-ring backup (hot copies; read/write fallback).
  void SetBackup(const std::string& host, uint16_t port);
  /// Trips the slot's breaker open without waiting for traffic to find the
  /// corpse (the membership file said `dead`).
  void MarkDead(uint64_t slot);
  /// Removes the slot from the ring entirely.
  void RemoveNode(uint64_t slot);

  /// Applies a whole membership document: unchanged endpoints keep their
  /// breaker and connection, changed ones reset, absent slots are removed,
  /// `dead` slots are marked. Records the document's generation.
  void ApplyMembership(const FleetMembership& m);

  /// Puts the upstream sockets on `loop` (call before any traffic).
  void AttachLoop(net::EventLoop* loop);

  /// Dispatches `op`'s legs. If every leg resolves without I/O, the op is
  /// done() on return and `listener` is never called; otherwise the
  /// listener hears once when it finishes.
  void Start(UpstreamOp* op, OpListener* listener);
  /// Start() then drive the engine until `op` is done.
  void Run(UpstreamOp* op);

  /// Fetches `keys` (with cas values when `with_cas`), filling `out` in
  /// request-key order. Never fails: every key resolves to found / miss /
  /// unreachable-miss via the degradation ladder.
  void MultiGet(const std::vector<std::string_view>& keys, bool with_cas,
                std::vector<KeyFetch>* out);

  /// Forwards one command whose reply is a single status line (set / add /
  /// replace / delete / touch). `wire` is the full request bytes including
  /// payload and CRLFs; `key` homes it on the ring.
  ForwardResult ForwardLineCommand(std::string_view key,
                                   const std::string& wire);

  /// Broadcasts flush_all (with optional delay) to every node + the backup.
  /// Returns how many upstreams acknowledged with OK.
  size_t BroadcastFlush(int64_t delay_s);

  // net::LoopClient
  void OnFdReady(int fd, uint32_t events) override;
  void Tick(int64_t now_us) override;
  int64_t NextDeadlineUs() const override;

  UpstreamPoolStats stats() const;
  uint64_t generation() const { return generation_; }
  size_t node_count() const { return nodes_.size(); }
  bool has_backup() const { return backup_ != nullptr; }
  /// The slot owning `key` (for tests).
  std::optional<uint64_t> OwnerOf(std::string_view key) const;

 private:
  /// One command of an op on one upstream.
  struct Leg {
    UpstreamOp* op = nullptr;
    uint32_t index = 0;       // key index (kGet)
    ServedRung rung = ServedRung::kPrimary;
    int64_t deadline_us = 0;  // set when the command enters the window
  };

  enum class LinkState : uint8_t { kClosed, kConnecting, kUp, kFailed };

  /// One upstream: endpoint, breaker and its pipelined connection.
  struct Node {
    uint64_t slot = 0;  // ~0 for the backup
    std::string host;
    uint16_t port = 0;
    std::unique_ptr<CircuitBreaker> breaker;
    bool dead = false;  // membership said so; breaker held open via MarkDead

    LinkState state = LinkState::kClosed;
    int fd = -1;
    bool want_write = false;      // EPOLLOUT armed: connect or short write
    bool redial = false;          // the next successful connect is a reconnect
    int64_t connect_deadline_us = 0;
    std::string out;              // commands not yet written
    size_t out_sent = 0;
    std::deque<Leg> inflight;     // in the window, awaiting replies (FIFO)
    std::deque<Leg> queued;       // waiting for window space
    net::ReplyReader reader;
  };

  SimTime Now() const;
  /// Calls `fn` on every primary, then the backup.
  template <typename Fn>
  void ForEachNode(Fn&& fn);
  template <typename Fn>
  void ForEachNode(Fn&& fn) const;
  Node* NodeForFd(int fd);
  void TraceBreaker(uint64_t slot, BreakerState before, BreakerState after);
  void RecordSuccess(Node& node);

  /// Queues a leg on `node` (dialling it if needed).
  void Enqueue(Node& node, Leg leg);
  /// Moves queued legs into the window while it has room.
  void Admit(Node& node, int64_t now_us);
  void Connect(Node& node, int64_t now_us);
  /// The connection is established (counts a redial as a reconnect).
  void MarkUp(Node& node);
  void SetWantWrite(Node& node, bool want);
  /// Writes pending commands on every writable upstream.
  void Pump();
  void WriteOut(Node& node);
  void ReadIn(Node& node);
  void HandleReady(Node& node, uint32_t events);
  void CheckDeadlines(int64_t now_us);
  /// A transport failure: breaker failure, absorbed count, legs re-routed.
  void FailNode(Node& node);
  /// Closes the socket and re-routes its legs one rung down. No breaker
  /// accounting (membership changes call this directly).
  void ResetNode(Node& node);
  /// Sends a leg one rung down after its upstream failed.
  void Reroute(const Leg& leg);
  /// Places a kGet / kLine leg on the backup, or resolves it unreachable.
  void ToBackup(UpstreamOp* op, uint32_t index);
  void ResolveUnreachable(UpstreamOp* op);
  void LegDone(UpstreamOp* op);
  /// Applies one upstream reply to the oldest leg in flight on `node`.
  /// Returns false when the reply shows the upstream lost protocol sync.
  bool Deliver(Node& node, const net::ReplyReader::Reply& reply);

  UpstreamPoolConfig config_;
  EventTracer* tracer_;
  net::EventLoop* loop_ = nullptr;

  SlotRing ring_;
  std::map<uint64_t, Node> nodes_;
  std::unique_ptr<Node> backup_;
  /// The counts' home when no registry was given.
  MetricsRegistry own_registry_;
  Counter* absorbed_failures_;
  Counter* reconnects_;
  Counter* breaker_skips_;
  Counter* backup_served_;
  Counter* unreachable_;
  uint64_t generation_ = 0;
  /// Wall anchor for the breakers' SimTime clock (proxy-relative micros).
  int64_t epoch_us_ = 0;
  std::string read_buf_;
};

}  // namespace spotcache::proxy
