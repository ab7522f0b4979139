// The request-execution seam between NetServer's transport loop and whoever
// answers the protocol.
//
// NetServer parses bytes into TextRequests and hands each one to a
// RequestHandler; ServerCore (the local cache) is the default
// implementation, and ProxyCore (src/proxy) substitutes a fan-out to a fleet
// of upstreams behind the identical wire surface. The contract mirrors
// ServerCore exactly:
//
//   * Handle() appends the complete reply bytes for one request (noreply
//     suppression is the handler's job) and returns false when the
//     connection should close (quit).
//   * HandleParseError() appends the error reply for a malformed command —
//     always sent, even under noreply.
//   * set_telemetry() receives the server's RequestTelemetry so the handler
//     can classify (op, outcome) per request; handlers may ignore it.
//
// Handlers run on the server's loop thread only — no locking required. A
// synchronous Handle() has the loop to itself until it returns, so it must
// not wait on the network. A handler that does (the proxy) parks instead:
// the server offers it the loop through AttachLoop() and runs every request
// through Start(), which may return kParked and deliver the reply later
// through the loop (event_loop.h) while the server keeps serving every other
// request. Both hooks are defaulted — AttachLoop() ignores the loop and
// Start() calls Handle() — so a handler that only overrides Handle(), or
// wraps another handler as a plain RequestHandler*, stays synchronous.

#pragma once

#include <cstdint>

#include "src/net/event_loop.h"
#include "src/net/protocol.h"
#include "src/net/response.h"
#include "src/obs/request_telemetry.h"

namespace spotcache::net {

class RequestHandler {
 public:
  /// How Start() left a request.
  enum class Started : uint8_t {
    kDone,    // reply appended to `out`
    kClose,   // reply appended; close the connection after flushing (quit)
    kParked,  // nothing appended; the reply arrives via CompleteParked
    /// kParked, and the connection's later requests wait until this one is
    /// answered: for replies that must reflect everything before them and
    /// nothing after (the proxy's stats).
    kParkedBarrier,
  };

  virtual ~RequestHandler() = default;

  /// Executes one request at unix-seconds `now`, appending the reply to
  /// `out`. Returns false when the connection should close (quit).
  virtual bool Handle(const TextRequest& req, int64_t now,
                      ResponseAssembler* out) = 0;

  /// Appends the reply for a parse error (always sent, even on noreply).
  virtual void HandleParseError(ParseErrorKind kind,
                                ResponseAssembler* out) = 0;

  /// Attaches the serving-path telemetry (non-owning; may be null).
  virtual void set_telemetry(RequestTelemetry* telemetry) { (void)telemetry; }

  /// Offers the server's loop (called by NetServer::SetHandler). The
  /// default ignores it.
  virtual void AttachLoop(EventLoop* loop) { (void)loop; }

  /// Begins one request; the default runs Handle(). The request's views die
  /// when Start returns; a parked request copies what it needs and later
  /// calls loop->CompleteParked(ticket, reply).
  virtual Started Start(const TextRequest& req, int64_t now,
                        ResponseAssembler* out, const ReplyTicket& ticket) {
    (void)ticket;
    return Handle(req, now, out) ? Started::kDone : Started::kClose;
  }
};

}  // namespace spotcache::net
