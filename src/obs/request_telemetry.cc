#include "src/obs/request_telemetry.h"

#include <chrono>

namespace spotcache {

namespace {

/// Rounds up to a power of two (0 stays 0, for "disabled").
uint32_t PowerOfTwoCeil(uint32_t v) {
  if (v <= 1) {
    return v;
  }
  uint32_t p = 1;
  while (p < v && p < (1u << 30)) {
    p <<= 1;
  }
  return p;
}

}  // namespace

std::string_view ToString(TelemetryOp op) {
  switch (op) {
    case TelemetryOp::kGet: return "get";
    case TelemetryOp::kSet: return "set";
    case TelemetryOp::kDelete: return "delete";
    case TelemetryOp::kTouch: return "touch";
    case TelemetryOp::kOther: return "other";
  }
  return "other";
}

std::string_view ToString(RequestOutcome o) {
  switch (o) {
    case RequestOutcome::kHit: return "hit";
    case RequestOutcome::kMiss: return "miss";
    case RequestOutcome::kShed: return "shed";
    case RequestOutcome::kBackup: return "backup";
    case RequestOutcome::kError: return "error";
    case RequestOutcome::kStored: return "stored";
    case RequestOutcome::kNotStored: return "not_stored";
    case RequestOutcome::kOther: return "other";
  }
  return "other";
}

int64_t RequestTelemetry::NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

RequestTelemetry::RequestTelemetry(const RequestTelemetryConfig& config,
                                   Obs* obs)
    : config_(config), obs_(obs) {
  config_.span_sample_every = PowerOfTwoCeil(config.span_sample_every);
  config_.latency_sample_every = PowerOfTwoCeil(config.latency_sample_every);
  span_mask_ =
      config_.span_sample_every == 0 ? 0 : config_.span_sample_every - 1;
  latency_mask_ = config_.latency_sample_every == 0
                      ? 0
                      : config_.latency_sample_every - 1;
  if (config_.flight_ring_capacity == 0) {
    config_.flight_ring_capacity = 1;
  }
  ring_.resize(config_.flight_ring_capacity);
  MetricsRegistry& reg = obs_ != nullptr ? obs_->registry : own_registry_;
  spans_ = reg.GetCounter("net/telemetry/spans");
  slow_ = reg.GetCounter("net/telemetry/slow_requests");
}

Histogram* RequestTelemetry::HistogramFor(TelemetryOp op,
                                          RequestOutcome outcome) {
  if (obs_ == nullptr) {
    return nullptr;
  }
  const auto o = static_cast<size_t>(op);
  const auto c = static_cast<size_t>(outcome);
  Histogram*& slot = hists_[o][c];
  if (slot == nullptr) {
    slot = obs_->registry.GetHistogram(
        "net/request_latency_s",
        {{"op", std::string(ToString(op))},
         {"outcome", std::string(ToString(outcome))}});
  }
  return slot;
}

void RequestTelemetry::BeginBatch(uint64_t conn_id) {
  batch_t0_us_ = NowMicros();
  conn_id_ = conn_id;
  mode_ = Mode::kNone;
}

void RequestTelemetry::BeginSampledRequest(uint64_t hash) {
  mode_ = Mode::kNone;
  if (config_.span_sample_every != 0 &&
      (hash & span_mask_) == 0) {
    mode_ = Mode::kSpan;
  } else if (config_.latency_sample_every != 0 &&
             (hash & latency_mask_) == 0) {
    mode_ = Mode::kLatency;
  }
  if (mode_ == Mode::kNone) {
    return;
  }
  current_ = SpanRecord{};
  current_.conn_id = conn_id_;
  t_begin_us_ = NowMicros();
  current_.t_start_us = batch_t0_us_ - origin_us_;
  current_.queue_us = t_begin_us_ - batch_t0_us_;
}

void RequestTelemetry::OnParsedSampled(TelemetryOp op, uint32_t key_count) {
  current_.op = op;
  current_.keys = key_count;
  if (mode_ == Mode::kSpan) {
    t_parsed_us_ = NowMicros();
    current_.parse_us = t_parsed_us_ - t_begin_us_;
  }
}

void RequestTelemetry::AddRouteTime(int64_t route_us) {
  current_.route_us += route_us;
}

void RequestTelemetry::OnExecutedSampled(RequestOutcome outcome,
                                         uint32_t value_bytes) {
  const int64_t t_end = NowMicros();
  current_.outcome = outcome;
  current_.value_bytes = value_bytes;
  current_.total_us = t_end - batch_t0_us_;
  if (mode_ == Mode::kSpan) {
    current_.full_span = true;
    current_.store_us =
        t_end - t_parsed_us_ - current_.route_us;
    if (current_.store_us < 0) {
      current_.store_us = 0;
    }
  }

  if (Histogram* h = HistogramFor(current_.op, outcome); h != nullptr) {
    h->Record(static_cast<double>(current_.total_us) * 1e-6);
    ++latencies_recorded_;
  }

  const bool slow = config_.slow_request_us > 0 &&
                    current_.total_us > config_.slow_request_us;
  if (slow) {
    slow_->Increment();
    current_.slow = true;
    dump_pending_ = true;
  }
  if (mode_ == Mode::kSpan || slow) {
    // Completed spans wait for the batch's write stamp; a slow
    // latency-sampled record is committed with the stamps it has.
    batch_spans_.push_back(current_);
  }
  mode_ = Mode::kNone;
}

void RequestTelemetry::EndBatch(int64_t write_us) {
  for (SpanRecord& span : batch_spans_) {
    if (span.full_span) {
      span.write_us = write_us;
      span.total_us += write_us;
    }
    CommitRecord(span);
  }
  batch_spans_.clear();
  mode_ = Mode::kNone;
}

void RequestTelemetry::CommitRecord(SpanRecord record) {
  spans_->Increment();
  ring_[ring_next_] = record;
  ring_next_ = (ring_next_ + 1) % ring_.size();
  if (ring_count_ < ring_.size()) {
    ++ring_count_;
  }
  if (obs_ != nullptr && obs_->tracer.enabled()) {
    obs_->tracer.Custom(SimTime::FromMicros(record.t_start_us), "request_span",
                        SpanFields(record));
  }
}

std::vector<std::pair<std::string, std::string>> RequestTelemetry::SpanFields(
    const SpanRecord& span) {
  return {
      {"conn", EventTracer::JsonNumber(static_cast<int64_t>(span.conn_id))},
      {"op", EventTracer::JsonString(ToString(span.op))},
      {"outcome", EventTracer::JsonString(ToString(span.outcome))},
      {"full_span", span.full_span ? "true" : "false"},
      {"slow", span.slow ? "true" : "false"},
      {"queue_us", EventTracer::JsonNumber(span.queue_us)},
      {"parse_us", EventTracer::JsonNumber(span.parse_us)},
      {"route_us", EventTracer::JsonNumber(span.route_us)},
      {"store_us", EventTracer::JsonNumber(span.store_us)},
      {"write_us", EventTracer::JsonNumber(span.write_us)},
      {"total_us", EventTracer::JsonNumber(span.total_us)},
      {"keys", EventTracer::JsonNumber(static_cast<int64_t>(span.keys))},
      {"bytes",
       EventTracer::JsonNumber(static_cast<int64_t>(span.value_bytes))}};
}

std::vector<SpanRecord> RequestTelemetry::RingSnapshot() const {
  std::vector<SpanRecord> out;
  out.reserve(ring_count_);
  const size_t start =
      ring_count_ < ring_.size() ? 0 : ring_next_;
  for (size_t i = 0; i < ring_count_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

std::string RequestTelemetry::RenderSpanJson(const SpanRecord& span) {
  std::string out = "{\"t_us\":";
  out += EventTracer::JsonNumber(span.t_start_us);
  out += ",\"type\":\"request_span\"";
  for (const auto& [name, value] : SpanFields(span)) {
    out += ",\"";
    out += name;
    out += "\":";
    out += value;
  }
  out += "}";
  return out;
}

std::string RequestTelemetry::RenderFlightRecorderJsonl() const {
  std::string out;
  for (const SpanRecord& span : RingSnapshot()) {
    out += RenderSpanJson(span);
    out += '\n';
  }
  return out;
}

}  // namespace spotcache
