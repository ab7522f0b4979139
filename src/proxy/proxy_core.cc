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
    : config_(config), pool_(config.upstreams, tracer) {
  if (obs != nullptr) {
    obs_requests_ = obs->registry.GetCounter("proxy/requests");
    obs_get_hits_ = obs->registry.GetCounter("proxy/get_hits");
    obs_backup_hits_ = obs->registry.GetCounter("proxy/backup_hits");
    obs_misses_ = obs->registry.GetCounter("proxy/get_misses");
    obs_sheds_ = obs->registry.GetCounter("proxy/sheds");
    obs_sets_ = obs->registry.GetCounter("proxy/sets");
    obs_absorbed_ = obs->registry.GetCounter("proxy/absorbed_failures");
    obs_reconnects_ = obs->registry.GetCounter("proxy/reconnects");
    obs_reloads_ = obs->registry.GetCounter("proxy/reloads");
    obs_protocol_errors_ = obs->registry.GetCounter("proxy/protocol_errors");
  }
}

bool ProxyCore::ReloadMembership(const std::string& path) {
  std::string error;
  const auto m = LoadMembership(path, &error);
  if (!m.has_value()) {
    ++stats_.reload_failures;
    return false;
  }
  pool_.ApplyMembership(*m);
  ++stats_.reloads;
  if (obs_reloads_ != nullptr) {
    obs_reloads_->Increment();
  }
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
      ++stats_.gets;
      stats_.get_keys += req.keys.size();
      r->SetGet(std::vector<std::string>(req.keys.begin(), req.keys.end()),
                req.verb == net::Verb::kGets);
      break;
    case net::Verb::kSet:
    case net::Verb::kAdd:
    case net::Verb::kReplace:
    case net::Verb::kDelete:
    case net::Verb::kTouch:
      if (req.verb == net::Verb::kDelete) {
        ++stats_.deletes;
      } else if (req.verb == net::Verb::kTouch) {
        ++stats_.touches;
      } else {
        ++stats_.sets;
        if (obs_sets_ != nullptr) {
          obs_sets_->Increment();
        }
      }
      // Forwarded WITHOUT noreply, and the status line is awaited even when
      // the client asked for silence: the upstream round trip keeps cas
      // numbering and command ordering in lockstep with direct serving.
      r->SetLine(std::string(req.keys[0]), RebuildWire(req));
      break;
    case net::Verb::kFlushAll:
      ++stats_.flushes;
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
        ++stats_.backup_hits;
        if (obs_backup_hits_ != nullptr) {
          obs_backup_hits_->Increment();
        }
        outcome = Worse(outcome, RequestOutcome::kBackup);
      } else {
        ++stats_.get_hits;
        if (obs_get_hits_ != nullptr) {
          obs_get_hits_->Increment();
        }
      }
    } else if (fetch.rung == ServedRung::kNone) {
      // Nothing reachable: absorbed as a shed, reported as a plain miss.
      ++stats_.sheds;
      if (obs_sheds_ != nullptr) {
        obs_sheds_->Increment();
      }
      outcome = Worse(outcome, RequestOutcome::kShed);
    } else {
      ++stats_.misses;
      if (obs_misses_ != nullptr) {
        obs_misses_->Increment();
      }
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
      if (result.rung == ServedRung::kBackup) {
        ++stats_.set_backup;
      } else {
        ++stats_.set_primary;
      }
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
  // SERVER_ERROR (suppressed under noreply, like every status reply).
  if (storage) {
    ++stats_.set_failures;
  }
  if (obs_sheds_ != nullptr) {
    obs_sheds_->Increment();
  }
  if (!r.noreply) {
    out->Append("SERVER_ERROR proxy upstream unavailable\r\n");
  }
  return RequestOutcome::kShed;
}

void ProxyCore::AppendStats(net::ResponseAssembler* out) {
  // The proxy's own deterministic stats block: pure functions of the
  // request history (no clocks, no uptime), so chunking-invariance holds
  // through the fuzz harness.
  const UpstreamPoolStats& ps = pool_.stats();
  out->Appendf("STAT version %s\r\n", config_.version.c_str());
  out->Appendf("STAT proxy_gets %" PRIu64 "\r\n", stats_.gets);
  out->Appendf("STAT proxy_get_keys %" PRIu64 "\r\n", stats_.get_keys);
  out->Appendf("STAT proxy_get_hits %" PRIu64 "\r\n", stats_.get_hits);
  out->Appendf("STAT proxy_backup_hits %" PRIu64 "\r\n", stats_.backup_hits);
  out->Appendf("STAT proxy_get_misses %" PRIu64 "\r\n", stats_.misses);
  out->Appendf("STAT proxy_sheds %" PRIu64 "\r\n", stats_.sheds);
  out->Appendf("STAT proxy_sets %" PRIu64 "\r\n", stats_.sets);
  out->Appendf("STAT proxy_set_primary %" PRIu64 "\r\n", stats_.set_primary);
  out->Appendf("STAT proxy_set_backup %" PRIu64 "\r\n", stats_.set_backup);
  out->Appendf("STAT proxy_set_failures %" PRIu64 "\r\n",
               stats_.set_failures);
  out->Appendf("STAT proxy_deletes %" PRIu64 "\r\n", stats_.deletes);
  out->Appendf("STAT proxy_touches %" PRIu64 "\r\n", stats_.touches);
  out->Appendf("STAT proxy_flushes %" PRIu64 "\r\n", stats_.flushes);
  out->Appendf("STAT proxy_absorbed_failures %" PRIu64 "\r\n",
               ps.absorbed_failures);
  out->Appendf("STAT proxy_reconnects %" PRIu64 "\r\n", ps.reconnects);
  out->Appendf("STAT proxy_breaker_skips %" PRIu64 "\r\n", ps.breaker_skips);
  out->Appendf("STAT proxy_backup_served %" PRIu64 "\r\n", ps.backup_served);
  out->Appendf("STAT proxy_unreachable %" PRIu64 "\r\n", ps.unreachable);
  out->Appendf("STAT proxy_nodes %zu\r\n", pool_.node_count());
  out->Appendf("STAT proxy_generation %" PRIu64 "\r\n", pool_.generation());
  out->Appendf("STAT proxy_reloads %" PRIu64 "\r\n", stats_.reloads);
  out->Appendf("STAT proxy_protocol_errors %" PRIu64 "\r\n",
               stats_.protocol_errors);
  out->Append("END\r\n");
}

bool ProxyCore::AnswerLocally(const net::TextRequest& req,
                              net::ResponseAssembler* out) {
  switch (req.verb) {
    case net::Verb::kStats:
      AppendStats(out);
      return true;
    case net::Verb::kVersion:
      out->Appendf("VERSION %s\r\n", config_.version.c_str());
      return true;
    default:
      return false;  // quit
  }
}

void ProxyCore::BeginRequest(const net::TextRequest& req) {
  ++stats_.requests;
  if (obs_requests_ != nullptr) {
    obs_requests_->Increment();
  }
  if (telemetry_ != nullptr) {
    telemetry_->OnParsed(OpFor(req.verb),
                         static_cast<uint32_t>(req.keys.size()));
  }
}

void ProxyCore::EndRequest(RequestOutcome outcome, uint32_t value_bytes) {
  MirrorPoolCounters();
  if (telemetry_ != nullptr) {
    telemetry_->OnExecuted(outcome, value_bytes);
  }
}

void ProxyCore::MirrorPoolCounters() {
  const UpstreamPoolStats& ps = pool_.stats();
  if (obs_absorbed_ != nullptr) {
    obs_absorbed_->Increment(
        static_cast<int64_t>(ps.absorbed_failures - mirrored_absorbed_));
  }
  if (obs_reconnects_ != nullptr) {
    obs_reconnects_->Increment(
        static_cast<int64_t>(ps.reconnects - mirrored_reconnects_));
  }
  mirrored_absorbed_ = ps.absorbed_failures;
  mirrored_reconnects_ = ps.reconnects;
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
  MirrorPoolCounters();
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
  ++stats_.protocol_errors;
  if (obs_protocol_errors_ != nullptr) {
    obs_protocol_errors_->Increment();
  }
  out->Append(net::ErrorReply(kind));
}

}  // namespace spotcache::proxy
