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
// own sockets. Counters land in the obs registry under proxy/*.

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
  std::string version = "spotcache-1.6.0";
  UpstreamPoolConfig upstreams;
};

/// Monotonic request counters, mirrored into proxy/* obs counters when an
/// Obs is attached. All loop-thread-only.
struct ProxyStats {
  uint64_t requests = 0;
  uint64_t gets = 0;        // get/gets commands
  uint64_t get_keys = 0;    // keys across those commands
  uint64_t get_hits = 0;    // keys served by their owning primary
  uint64_t backup_hits = 0; // keys served by the backup rung
  uint64_t misses = 0;      // keys a live rung definitively missed
  uint64_t sheds = 0;       // keys no rung could serve (reported as misses)
  uint64_t sets = 0;        // set/add/replace commands
  uint64_t set_primary = 0;
  uint64_t set_backup = 0;
  uint64_t set_failures = 0;  // SERVER_ERROR relayed: no rung reachable
  uint64_t deletes = 0;
  uint64_t touches = 0;
  uint64_t flushes = 0;
  uint64_t reloads = 0;
  uint64_t reload_failures = 0;
  uint64_t protocol_errors = 0;
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
  const ProxyStats& stats() const { return stats_; }

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
  /// Adds the pool's failure counters' growth to the obs registry.
  void MirrorPoolCounters();
  void BeginRequest(const net::TextRequest& req);
  void EndRequest(RequestOutcome outcome, uint32_t value_bytes);

  ProxyCoreConfig config_;
  UpstreamPool pool_;
  net::EventLoop* loop_ = nullptr;
  RequestTelemetry* telemetry_ = nullptr;
  ProxyStats stats_;

  /// Parked requests, oldest first (stable addresses: the pool points at
  /// them until they finish).
  std::deque<Request> parked_;
  net::ResponseAssembler reply_;  // a parked reply being rendered
  uint64_t mirrored_absorbed_ = 0;
  uint64_t mirrored_reconnects_ = 0;

  // proxy/* obs counters (null when obs is detached).
  Counter* obs_requests_ = nullptr;
  Counter* obs_get_hits_ = nullptr;
  Counter* obs_backup_hits_ = nullptr;
  Counter* obs_misses_ = nullptr;
  Counter* obs_sheds_ = nullptr;
  Counter* obs_sets_ = nullptr;
  Counter* obs_absorbed_ = nullptr;
  Counter* obs_reconnects_ = nullptr;
  Counter* obs_reloads_ = nullptr;
  Counter* obs_protocol_errors_ = nullptr;
};

}  // namespace spotcache::proxy
