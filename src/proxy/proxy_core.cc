#include "src/proxy/proxy_core.h"

#include <inttypes.h>

namespace spotcache::proxy {

namespace {

TelemetryOp OpFor(net::Verb verb) {
  switch (verb) {
    case net::Verb::kGet:
    case net::Verb::kGets:
      return TelemetryOp::kGet;
    case net::Verb::kSet:
    case net::Verb::kAdd:
    case net::Verb::kReplace:
      return TelemetryOp::kSet;
    case net::Verb::kDelete:
      return TelemetryOp::kDelete;
    case net::Verb::kTouch:
      return TelemetryOp::kTouch;
    default:
      return TelemetryOp::kOther;
  }
}

/// Worst-first merge for multi-key retrievals, matching the server's
/// convention (error > shed > backup > miss > hit).
RequestOutcome Worse(RequestOutcome a, RequestOutcome b) {
  const auto rank = [](RequestOutcome o) {
    switch (o) {
      case RequestOutcome::kError:
        return 4;
      case RequestOutcome::kShed:
        return 3;
      case RequestOutcome::kBackup:
        return 2;
      case RequestOutcome::kMiss:
        return 1;
      default:
        return 0;
    }
  };
  return rank(a) >= rank(b) ? a : b;
}

}  // namespace

ProxyCore::ProxyCore(const ProxyCoreConfig& config, Obs* obs,
                     EventTracer* tracer)
    : registry_(obs != nullptr ? &obs->registry : &own_registry_),
      pool_(config.upstreams, tracer, registry_) {
  const auto counter = [this](const char* name) {
    return registry_->GetCounter(std::string("proxy/") + name);
  };
  requests_ = counter("requests");
  gets_ = counter("gets");
  get_keys_ = counter("get_keys");
  get_hits_ = counter("get_hits");
  backup_hits_ = counter("backup_hits");
  get_misses_ = counter("get_misses");
  sheds_ = counter("sheds");
  sets_ = counter("sets");
  set_primary_ = counter("set_primary");
  set_backup_ = counter("set_backup");
  set_failures_ = counter("set_failures");
  deletes_ = counter("deletes");
  touches_ = counter("touches");
  flushes_ = counter("flushes");
  reloads_ = counter("reloads");
  reload_failures_ = counter("reload_failures");
  protocol_errors_ = counter("protocol_errors");
}

bool ProxyCore::ReloadMembership(const std::string& path) {
  std::string error;
  const auto m = LoadMembership(path, &error);
  if (!m.has_value()) {
    reload_failures_->Increment();
    return false;
  }
  pool_.ApplyMembership(*m);
  reloads_->Increment();
  return true;
}

void ProxyCore::AttachLoop(net::EventLoop* loop) {
  loop_ = loop;
  pool_.AttachLoop(loop);
}

bool ProxyCore::Prepare(const net::TextRequest& req, Request* r) {
  switch (req.verb) {
    case net::Verb::kGet:
    case net::Verb::kGets:
      gets_->Increment();
      get_keys_->Increment(static_cast<int64_t>(req.keys.size()));
      r->SetGet(std::vector<std::string>(req.keys.begin(), req.keys.end()),
                req.verb == net::Verb::kGets);
      break;
    case net::Verb::kSet:
    case net::Verb::kAdd:
    case net::Verb::kReplace:
    case net::Verb::kDelete:
    case net::Verb::kTouch:
      if (req.verb == net::Verb::kDelete) {
        deletes_->Increment();
      } else if (req.verb == net::Verb::kTouch) {
        touches_->Increment();
      } else {
        sets_->Increment();
      }
      // Forwarded WITHOUT noreply, and the status line is awaited even when
      // the client asked for silence: the upstream round trip keeps cas
      // numbering and command ordering in lockstep with direct serving.
      r->SetLine(std::string(req.keys[0]), RebuildWire(req));
      break;
    case net::Verb::kFlushAll:
      flushes_->Increment();
      r->SetFlush(req.delay_s);
      break;
    case net::Verb::kStats:
    case net::Verb::kVersion:
    case net::Verb::kQuit:
      return false;
  }
  r->verb = req.verb;
  r->noreply = req.noreply;
  return true;
}

RequestOutcome ProxyCore::Render(const Request& r, net::ResponseAssembler* out,
                                 uint32_t* value_bytes) {
  switch (r.kind()) {
    case UpstreamOp::Kind::kGet:
      return RenderRetrieve(r, out, value_bytes);
    case UpstreamOp::Kind::kLine:
      return RenderForwarded(r, out);
    case UpstreamOp::Kind::kFlush:
      if (!r.noreply) {
        out->Append("OK\r\n");
      }
      break;
  }
  return RequestOutcome::kOther;
}

RequestOutcome ProxyCore::RenderRetrieve(const Request& r,
                                         net::ResponseAssembler* out,
                                         uint32_t* value_bytes) {
  const bool with_cas = r.verb == net::Verb::kGets;
  RequestOutcome outcome = RequestOutcome::kHit;
  for (size_t i = 0; i < r.fetches().size(); ++i) {
    const KeyFetch& fetch = r.fetches()[i];
    if (fetch.found) {
      // Byte-identical to ServerCore's VALUE block formatting.
      const std::string& key = r.keys()[i];
      if (with_cas) {
        out->Appendf("VALUE %.*s %u %zu %" PRIu64 "\r\n",
                     static_cast<int>(key.size()), key.data(), fetch.flags,
                     fetch.data.size(), fetch.cas);
      } else {
        out->Appendf("VALUE %.*s %u %zu\r\n", static_cast<int>(key.size()),
                     key.data(), fetch.flags, fetch.data.size());
      }
      out->Append(fetch.data);
      out->Append("\r\n");
      *value_bytes += static_cast<uint32_t>(fetch.data.size());
      if (fetch.rung == ServedRung::kBackup) {
        backup_hits_->Increment();
        outcome = Worse(outcome, RequestOutcome::kBackup);
      } else {
        get_hits_->Increment();
      }
    } else if (fetch.rung == ServedRung::kNone) {
      // Nothing reachable: absorbed as a shed, reported as a plain miss.
      sheds_->Increment();
      outcome = Worse(outcome, RequestOutcome::kShed);
    } else {
      get_misses_->Increment();
      outcome = Worse(outcome, RequestOutcome::kMiss);
    }
  }
  out->Append("END\r\n");
  return outcome;
}

std::string ProxyCore::RebuildWire(const net::TextRequest& req) const {
  std::string wire;
  switch (req.verb) {
    case net::Verb::kSet:
    case net::Verb::kAdd:
    case net::Verb::kReplace:
      wire.append(ToString(req.verb));
      wire += ' ';
      wire.append(req.keys[0]);
      wire += ' ' + std::to_string(req.flags) + ' ' +
              std::to_string(req.exptime) + ' ' +
              std::to_string(req.data.size()) + "\r\n";
      wire.append(req.data);
      wire += "\r\n";
      break;
    case net::Verb::kDelete:
      wire = "delete ";
      wire.append(req.keys[0]);
      wire += "\r\n";
      break;
    case net::Verb::kTouch:
      wire = "touch ";
      wire.append(req.keys[0]);
      wire += ' ' + std::to_string(req.exptime) + "\r\n";
      break;
    default:
      break;
  }
  return wire;
}

RequestOutcome ProxyCore::RenderForwarded(const Request& r,
                                          net::ResponseAssembler* out) {
  const bool storage = r.verb == net::Verb::kSet ||
                       r.verb == net::Verb::kAdd ||
                       r.verb == net::Verb::kReplace;
  const ForwardResult& result = r.forward();
  if (result.line.has_value()) {
    RequestOutcome outcome;
    if (storage) {
      (result.rung == ServedRung::kBackup ? set_backup_ : set_primary_)
          ->Increment();
      outcome = *result.line == "STORED" ? RequestOutcome::kStored
                                         : RequestOutcome::kNotStored;
      if (result.rung == ServedRung::kBackup) {
        outcome = RequestOutcome::kBackup;
      }
    } else {
      outcome = (*result.line == "DELETED" || *result.line == "TOUCHED")
                    ? RequestOutcome::kHit
                    : RequestOutcome::kMiss;
    }
    if (!r.noreply) {
      out->Append(*result.line);
      out->Append("\r\n");
    }
    return outcome;
  }

  // No rung reachable. Never lie about a write landing: surface a
  // SERVER_ERROR (suppressed under noreply, like every status reply). The
  // pool counted the leg under proxy/unreachable.
  if (storage) {
    set_failures_->Increment();
  }
  if (!r.noreply) {
    out->Append("SERVER_ERROR proxy upstream unavailable\r\n");
  }
  return RequestOutcome::kShed;
}

void ProxyCore::AppendStats(net::ResponseAssembler* out) {
  // The proxy's own deterministic stats block: pure functions of the
  // request history (no clocks, no uptime), so chunking-invariance holds
  // through the fuzz harness. Line proxy_X reads counter proxy/X.
  const auto stat = [this, out](const char* name) {
    out->Appendf("STAT proxy_%s %" PRId64 "\r\n", name,
                 registry_->CounterValue(std::string("proxy/") + name));
  };
  out->Appendf("STAT version %s\r\n", net::kServerVersion);
  for (const char* name :
       {"gets", "get_keys", "get_hits", "backup_hits", "get_misses", "sheds",
        "sets", "set_primary", "set_backup", "set_failures", "deletes",
        "touches", "flushes", "absorbed_failures", "reconnects",
        "breaker_skips", "backup_served", "unreachable"}) {
    stat(name);
  }
  out->Appendf("STAT proxy_nodes %zu\r\n", pool_.node_count());
  out->Appendf("STAT proxy_generation %" PRIu64 "\r\n", pool_.generation());
  stat("reloads");
  stat("protocol_errors");
  out->Append("END\r\n");
}

bool ProxyCore::AnswerLocally(const net::TextRequest& req,
                              net::ResponseAssembler* out) {
  switch (req.verb) {
    case net::Verb::kStats:
      AppendStats(out);
      return true;
    case net::Verb::kVersion:
      out->Appendf("VERSION %s\r\n", net::kServerVersion);
      return true;
    default:
      return false;  // quit
  }
}

void ProxyCore::BeginRequest(const net::TextRequest& req) {
  requests_->Increment();
  if (telemetry_ != nullptr) {
    telemetry_->OnParsed(OpFor(req.verb),
                         static_cast<uint32_t>(req.keys.size()));
  }
}

void ProxyCore::EndRequest(RequestOutcome outcome, uint32_t value_bytes) {
  if (telemetry_ != nullptr) {
    telemetry_->OnExecuted(outcome, value_bytes);
  }
}

bool ProxyCore::Handle(const net::TextRequest& req, int64_t now,
                       net::ResponseAssembler* out) {
  (void)now;  // expiry is the upstreams' business; the proxy holds no items
  BeginRequest(req);
  Request r;
  if (!Prepare(req, &r)) {
    const bool keep_open = AnswerLocally(req, out);
    EndRequest(RequestOutcome::kOther, 0);
    return keep_open;
  }
  pool_.Run(&r);
  uint32_t value_bytes = 0;
  const RequestOutcome outcome = Render(r, out, &value_bytes);
  EndRequest(outcome, value_bytes);
  return true;
}

net::RequestHandler::Started ProxyCore::Start(const net::TextRequest& req,
                                              int64_t now,
                                              net::ResponseAssembler* out,
                                              const net::ReplyTicket& ticket) {
  (void)now;
  BeginRequest(req);
  Request& r = parked_.emplace_back();
  r.ticket = ticket;
  if (!Prepare(req, &r)) {
    if (req.verb == net::Verb::kStats && parked_.size() > 1) {
      // Requests before this one are still out: answer once they are all
      // in (Retire), with this connection held until then.
      r.verb = net::Verb::kStats;
      EndRequest(RequestOutcome::kOther, 0);
      return Started::kParkedBarrier;
    }
    parked_.pop_back();
    const bool keep_open = AnswerLocally(req, out);
    EndRequest(RequestOutcome::kOther, 0);
    return keep_open ? Started::kDone : Started::kClose;
  }
  pool_.Start(&r, this);
  if (r.done()) {  // resolved without I/O (every rung skipped)
    uint32_t value_bytes = 0;
    const RequestOutcome outcome = Render(r, out, &value_bytes);
    parked_.pop_back();
    EndRequest(outcome, value_bytes);
    return Started::kDone;
  }
  // Telemetry sees the dispatch; the verdict lands in the proxy/* counters
  // when the reply is rendered.
  EndRequest(RequestOutcome::kOther, 0);
  return Started::kParked;
}

void ProxyCore::Deliver(const net::ReplyTicket& ticket) {
  loop_->CompleteParked(ticket, reply_.Flatten());
  reply_.Clear();
}

void ProxyCore::OnOpDone(UpstreamOp* op) {
  Request& r = static_cast<Request&>(*op);
  uint32_t value_bytes = 0;
  Render(r, &reply_, &value_bytes);
  Deliver(r.ticket);
  r.answered = true;
  while (!parked_.empty()) {
    Request& front = parked_.front();
    if (!front.answered) {
      if (front.verb != net::Verb::kStats) {
        break;
      }
      AppendStats(&reply_);  // everything before the barrier is answered
      Deliver(front.ticket);
    }
    parked_.pop_front();
  }
}

void ProxyCore::HandleParseError(net::ParseErrorKind kind,
                                 net::ResponseAssembler* out) {
  protocol_errors_->Increment();
  out->Append(net::ErrorReply(kind));
}

}  // namespace spotcache::proxy
