// ProxyCore: the memcached-speaking front of the proxy tier.
//
// Plugs into NetServer through the RequestHandler seam (request_handler.h),
// so the proxy binary reuses the entire src/net serving surface — epoll
// loop, zero-copy parser, writev assembly, backpressure, metrics scrape,
// flight recorder — and only the execution step changes: instead of an
// ItemStore lookup, every request fans out to the fleet through an
// UpstreamPool.
//
// Wire semantics are pinned byte-for-byte against direct serving by the
// conformance suite's proxy transport:
//
//   * get/gets scatter across owning upstreams (pipelined, bounded window)
//     and reassemble VALUE blocks in request-key order; unreachable keys
//     degrade to backup copies and finally to plain misses — a client can
//     see a miss where direct serving would hit, but never an error;
//   * storage/delete/touch forward to the owner and relay its status line
//     verbatim (noreply suppresses the relay, but the round trip still
//     happens so upstream cas numbering stays in lockstep);
//   * version and stats answer locally — stats is the proxy's own
//     deterministic counter block (proxy_* lines), not an upstream's;
//   * flush_all broadcasts to every upstream plus the backup;
//   * parse errors never touch an upstream: the reply comes from the same
//     ErrorReply table the server uses.
//
// Requests that need upstreams never block the loop. Behind NetServer
// (SetHandler offers the loop; AttachLoop accepts it) each one becomes an
// UpstreamOp on the pool's shared pipelines and is parked: the server keeps
// serving everything else, and the reply is delivered in request order when
// the op's legs resolve — at worst one op timeout per rung after dispatch,
// and only for the keys homed on a stalled upstream. `stats` parks as a
// barrier: it answers once every earlier request has, and its connection
// sends nothing newer meanwhile, so the block counts exactly the requests
// before it. Handle(), the synchronous entry (a wrapping RequestHandler that
// does not forward AttachLoop), runs the same op to completion on the pool's
// own sockets.
//
// Counts: every count lives in one registry Counter under proxy/* — the
// Obs's registry, or the core's own without one — and the pool counts its
// failures into the same registry. The `stats` block and the scrape both
// render those counters; `stats` line proxy_X is series proxy/X.

#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "src/net/request_handler.h"
#include "src/obs/obs.h"
#include "src/proxy/membership.h"
#include "src/proxy/upstream_pool.h"

namespace spotcache::proxy {

struct ProxyCoreConfig {
  UpstreamPoolConfig upstreams;
};

class ProxyCore final : public net::RequestHandler, private OpListener {
 public:
  explicit ProxyCore(const ProxyCoreConfig& config, Obs* obs = nullptr,
                     EventTracer* tracer = nullptr);

  bool Handle(const net::TextRequest& req, int64_t now,
              net::ResponseAssembler* out) override;
  void HandleParseError(net::ParseErrorKind kind,
                        net::ResponseAssembler* out) override;
  void set_telemetry(RequestTelemetry* telemetry) override {
    telemetry_ = telemetry;
  }
  /// Puts the pool's upstream sockets on `loop`, so Start() parks.
  void AttachLoop(net::EventLoop* loop) override;
  Started Start(const net::TextRequest& req, int64_t now,
                net::ResponseAssembler* out,
                const net::ReplyTicket& ticket) override;

  /// Re-reads `path` and applies it to the pool (loop context only — wire
  /// this behind NetServer::SetReloadHandler). Returns false (keeping the
  /// previous fleet view) when the file is unreadable or malformed.
  bool ReloadMembership(const std::string& path);

  UpstreamPool& pool() { return pool_; }
  const UpstreamPool& pool() const { return pool_; }
  /// Where the proxy/* counts live (the attached Obs's registry, or the
  /// core's own).
  const MetricsRegistry& registry() const { return *registry_; }

 private:
  /// One request's upstream op plus what its reply needs.
  struct Request : UpstreamOp {
    net::Verb verb = net::Verb::kGet;
    bool noreply = false;
    bool answered = false;  // parked: the reply has been delivered
    net::ReplyTicket ticket;
  };

  /// Counts the request and fills `r` with its upstream op. False for the
  /// requests the proxy answers itself (stats, version, quit).
  bool Prepare(const net::TextRequest& req, Request* r);
  /// Appends a finished request's reply and counts its outcome.
  RequestOutcome Render(const Request& r, net::ResponseAssembler* out,
                        uint32_t* value_bytes);
  RequestOutcome RenderRetrieve(const Request& r, net::ResponseAssembler* out,
                                uint32_t* value_bytes);
  RequestOutcome RenderForwarded(const Request& r,
                                 net::ResponseAssembler* out);
  /// The requests that touch no upstream. Returns false on quit.
  bool AnswerLocally(const net::TextRequest& req, net::ResponseAssembler* out);
  void AppendStats(net::ResponseAssembler* out);
  /// Rebuilds the forwarded wire bytes for one request (storage payload and
  /// flags included, noreply stripped).
  std::string RebuildWire(const net::TextRequest& req) const;

  /// Delivers a parked request's reply, then retires answered requests from
  /// the front of parked_, answering stats barriers that reach it.
  void OnOpDone(UpstreamOp* op) override;
  void Deliver(const net::ReplyTicket& ticket);
  void BeginRequest(const net::TextRequest& req);
  void EndRequest(RequestOutcome outcome, uint32_t value_bytes);

  /// The counts' home when no Obs is attached. Declared before pool_, which
  /// counts into it.
  MetricsRegistry own_registry_;
  MetricsRegistry* registry_;
  UpstreamPool pool_;
  net::EventLoop* loop_ = nullptr;
  RequestTelemetry* telemetry_ = nullptr;

  /// Parked requests, oldest first (stable addresses: the pool points at
  /// them until they finish).
  std::deque<Request> parked_;
  net::ResponseAssembler reply_;  // a parked reply being rendered

  // proxy/* counters, all written on the loop thread.
  Counter* requests_;
  Counter* gets_;         // get/gets commands
  Counter* get_keys_;     // keys across those commands
  Counter* get_hits_;     // keys served by their owning primary
  Counter* backup_hits_;  // keys served by the backup rung
  Counter* get_misses_;   // keys a live rung definitively missed
  Counter* sheds_;        // get keys no rung could serve (reported as misses)
  Counter* sets_;         // set/add/replace commands
  Counter* set_primary_;
  Counter* set_backup_;
  Counter* set_failures_;  // SERVER_ERROR relayed: no rung reachable
  Counter* deletes_;
  Counter* touches_;
  Counter* flushes_;
  Counter* reloads_;
  Counter* reload_failures_;
  Counter* protocol_errors_;
};

}  // namespace spotcache::proxy
