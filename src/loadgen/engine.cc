#include "src/loadgen/engine.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <string_view>

#include "src/net/client.h"
#include "src/net/reply_reader.h"

namespace spotcache::loadgen {

namespace {

using Clock = std::chrono::steady_clock;

void AppendUint(std::string& out, uint64_t v) {
  char buf[20];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;
  out.append(buf, ptr);
}

/// Non-blocking connect with a bounded handshake wait.
int OpenConn(const std::string& host, uint16_t port, int timeout_ms) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      ::close(fd);
      return -1;
    }
    pollfd p{fd, POLLOUT, 0};
    if (::poll(&p, 1, timeout_ms) != 1) {
      ::close(fd);
      return -1;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return -1;
    }
  }
  return fd;
}

struct Inflight {
  int64_t scheduled_us = 0;
  uint8_t segment = 0;
  bool is_get = false;
  uint64_t key = 0;  // numeric key id, for read-through repair sets
};

struct Conn {
  int fd = -1;
  std::string out;
  size_t out_pos = 0;
  net::ReplyReader reader;
  std::deque<Inflight> inflight;
  std::vector<LogHistogram> hists;  // one per segment
  bool failed = false;
};

/// Flushes as much buffered output as the socket accepts. False = dead peer.
bool FlushConn(Conn& c) {
  while (c.out_pos < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_pos,
                             c.out.size() - c.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_pos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    }
    return false;
  }
  if (c.out_pos == c.out.size()) {
    c.out.clear();
    c.out_pos = 0;
  } else if (c.out_pos > (1u << 20)) {
    c.out.erase(0, c.out_pos);
    c.out_pos = 0;
  }
  return true;
}

/// Clamped [start, end) intervals of each phase within the run window.
std::vector<std::pair<double, double>> PhaseIntervals(
    const ScheduleConfig& sc) {
  std::vector<std::pair<double, double>> out;
  for (const Phase& p : sc.phases) {
    const double lo = std::clamp(p.start_s, 0.0, sc.duration_s);
    const double hi = std::clamp(p.start_s + p.duration_s, 0.0, sc.duration_s);
    out.emplace_back(lo, std::max(hi, lo));
  }
  return out;
}

/// Segment durations: [0] = baseline (run minus the union of phase windows),
/// [1 + i] = phase i. Phases are expected to be non-overlapping; in an
/// overlap the innermost phase wins attribution, so overlapping configs
/// inflate the outer phase's offered denominator.
std::vector<double> SegmentDurations(const ScheduleConfig& sc) {
  auto intervals = PhaseIntervals(sc);
  std::vector<double> durations(1 + intervals.size(), 0.0);
  for (size_t i = 0; i < intervals.size(); ++i) {
    durations[1 + i] = intervals[i].second - intervals[i].first;
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double cursor = 0.0;
  for (const auto& [lo, hi] : intervals) {
    const double a = std::max(lo, cursor);
    if (hi > a) {
      covered += hi - a;
      cursor = hi;
    }
  }
  durations[0] = std::max(sc.duration_s - covered, 0.0);
  return durations;
}

/// One `stats spotcache` round-trip on an already-connected nonblocking fd:
/// returns the shard id the server reports for this connection (0 when the
/// server emits no shard line, -1 on timeout/error) and updates
/// `server_shards` when the reply carries a shard count.
int ProbeShard(int fd, int timeout_ms, uint32_t* server_shards) {
  const std::string_view req = "stats spotcache\r\n";
  size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n =
        ::send(fd, req.data() + sent, req.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{fd, POLLOUT, 0};
      if (::poll(&p, 1, timeout_ms) != 1) {
        return -1;
      }
      continue;
    }
    return -1;
  }
  std::string in;
  char buf[8192];
  while (in.find("END\r\n") == std::string::npos) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, timeout_ms) != 1) {
      return -1;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && (errno == EINTR || errno == EAGAIN ||
                    errno == EWOULDBLOCK)) {
        continue;
      }
      return -1;
    }
    in.append(buf, static_cast<size_t>(n));
    if (in.size() > 256 * 1024) {
      return -1;
    }
  }
  const auto stat_value = [&in](std::string_view name) -> long {
    std::string needle = "STAT ";
    needle += name;
    needle += ' ';
    const size_t pos = in.find(needle);
    if (pos == std::string::npos) {
      return -1;
    }
    return std::atol(in.c_str() + pos + needle.size());
  };
  const long count = stat_value("spotcache_shard_count");
  if (count > 0) {
    *server_shards = std::max<uint32_t>(*server_shards,
                                        static_cast<uint32_t>(count));
  }
  const long shard = stat_value("spotcache_shard");
  return shard >= 0 ? static_cast<int>(shard) : 0;
}

/// Closed-loop pipelined prefill (unmeasured) so the open-loop gets hit.
bool Prefill(const EngineConfig& config, const std::string& value_buf) {
  net::NetClient client;
  if (!client.Connect(config.host, config.port, config.connect_timeout_ms)) {
    return false;
  }
  const uint64_t n = config.stream.keys.num_keys;
  const std::string_view value(value_buf.data(), config.stream.mix.value_bytes);
  constexpr uint64_t kBatch = 256;
  for (uint64_t base = 0; base < n; base += kBatch) {
    const uint64_t end = std::min(base + kBatch, n);
    std::string batch;
    for (uint64_t k = base; k < end; ++k) {
      batch += "set ";
      batch += config.key_prefix;
      AppendUint(batch, k);
      batch += " 0 0 ";
      AppendUint(batch, value.size());
      batch += "\r\n";
      batch += value;
      batch += "\r\n";
    }
    if (!client.SendRaw(batch)) {
      return false;
    }
    for (uint64_t k = base; k < end; ++k) {
      if (client.ReadLine() != "STORED") {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

LoadGenResult RunOpenLoop(const EngineConfig& config) {
  LoadGenResult result;
  const ScheduleConfig& sc = config.stream.schedule;
  const size_t num_segments = 1 + sc.phases.size();
  const auto seg_durations = SegmentDurations(sc);

  const uint32_t max_value = std::max(config.stream.mix.value_bytes,
                                      config.stream.mix.value_bytes_max);
  const std::string value_buf(std::max<uint32_t>(max_value, 1), 'v');

  if (config.prefill && !Prefill(config, value_buf)) {
    result.error = "prefill failed (connect or store error)";
    return result;
  }

  // --- Connect the fleet. ----------------------------------------------
  std::vector<Conn> conns(static_cast<size_t>(std::max(config.connections, 1)));
  for (Conn& c : conns) {
    c.fd = OpenConn(config.host, config.port, config.connect_timeout_ms);
    if (c.fd < 0) {
      for (Conn& cc : conns) {
        if (cc.fd >= 0) {
          ::close(cc.fd);
        }
      }
      result.error = "connect failed";
      return result;
    }
    c.hists.assign(num_segments, MakeLatencyHistogram());
  }

  // --- Probe shard placement (unmeasured). ------------------------------
  // One `stats spotcache` round-trip per connection tells us which reactor
  // shard the server's round-robin accept assigned it to, so the report can
  // show whether offered load actually spread across shards. Runs before t0
  // so it never pollutes the latency window.
  if (config.probe_shards) {
    result.conn_shards.reserve(conns.size());
    for (Conn& c : conns) {
      result.conn_shards.push_back(
          ProbeShard(c.fd, config.connect_timeout_ms, &result.server_shards));
    }
    result.shard_conn_counts.assign(result.server_shards, 0);
    for (const int shard : result.conn_shards) {
      if (shard >= 0 &&
          static_cast<size_t>(shard) < result.shard_conn_counts.size()) {
        ++result.shard_conn_counts[static_cast<size_t>(shard)];
      }
    }
  }

  OpGenerator gen(config.stream);
  std::vector<SegmentStats> segs(num_segments);
  std::vector<uint64_t> per_second;
  uint64_t completed = 0;
  uint64_t errors = 0;
  uint64_t get_misses = 0;
  uint64_t abandoned = 0;
  size_t live_conns = conns.size();
  uint64_t issued = 0;

  const auto t0 = Clock::now();
  auto now_us = [&t0]() {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 t0)
        .count();
  };

  auto fail_conn = [&](Conn& c) {
    if (c.failed) {
      return;
    }
    c.failed = true;
    abandoned += c.inflight.size();
    c.inflight.clear();
    ::close(c.fd);
    c.fd = -1;
    --live_conns;
    ++result.failed_conns;
  };

  // Completion sink shared by all connections; `sink_conn` points at the
  // connection currently being fed.
  Conn* sink_conn = nullptr;
  int64_t sink_now_us = 0;
  std::vector<LoadGenWindow> windows;
  auto window_at = [&](int64_t at_us) -> LoadGenWindow& {
    const size_t w = static_cast<size_t>(at_us / config.window_us);
    if (w >= windows.size()) {
      const size_t old = windows.size();
      windows.resize(w + 1);
      for (size_t i = old; i < windows.size(); ++i) {
        windows[i].start_us = static_cast<int64_t>(i) * config.window_us;
      }
    }
    return windows[w];
  };
  // Per segment: the latest scheduled send among completed ops and the
  // latest completion — how far the replies ran past the schedule.
  std::vector<int64_t> last_sched_us(num_segments, 0);
  std::vector<int64_t> last_done_us(num_segments, 0);
  auto sink = [&](net::ReplyReader::Status status) {
    Conn& c = *sink_conn;
    const Inflight fl = c.inflight.front();
    c.inflight.pop_front();
    SegmentStats& seg = segs[fl.segment];
    ++seg.completed;
    ++completed;
    last_sched_us[fl.segment] =
        std::max(last_sched_us[fl.segment], fl.scheduled_us);
    last_done_us[fl.segment] = sink_now_us;
    const size_t second = static_cast<size_t>(sink_now_us / 1'000'000);
    if (second >= per_second.size()) {
      per_second.resize(second + 1, 0);
    }
    ++per_second[second];
    if (status == net::ReplyReader::Status::kError) {
      ++seg.errors;
      ++errors;
      if (config.window_us > 0) {
        ++window_at(sink_now_us).errors;
      }
      return;  // error replies do not contribute latency samples
    }
    if (fl.is_get && status == net::ReplyReader::Status::kMiss) {
      ++seg.get_misses;
      ++get_misses;
      if (config.read_through) {
        // Cache-aside repair: refill the missed key right here, pipelined on
        // the same connection. The set's latency clock starts now — it is a
        // new op, not part of the missed get.
        const uint32_t vlen = config.stream.mix.value_bytes;
        c.out += "set ";
        c.out += config.key_prefix;
        AppendUint(c.out, fl.key);
        c.out += " 0 0 ";
        AppendUint(c.out, vlen);
        c.out += "\r\n";
        c.out.append(value_buf.data(), vlen);
        c.out += "\r\n";
        c.reader.Push(net::ReplyReader::Expect::kLine);
        c.inflight.push_back({sink_now_us, fl.segment, false, fl.key});
        ++seg.scheduled;
        ++result.scheduled;
      }
    }
    if (config.window_us > 0) {
      LoadGenWindow& w = window_at(sink_now_us);
      if (fl.is_get) {
        ++w.gets;
        if (status == net::ReplyReader::Status::kMiss) {
          ++w.get_misses;
        } else {
          ++w.get_hits;
        }
      } else {
        ++w.sets;
      }
    }
    const double latency_s =
        static_cast<double>(sink_now_us - fl.scheduled_us) * 1e-6;
    c.hists[fl.segment].Record(latency_s);
  };

  std::optional<Op> next = gen.Next();
  const int64_t schedule_end_us =
      static_cast<int64_t>(sc.duration_s * 1e6);
  int64_t drain_deadline_us = -1;
  std::vector<pollfd> pfds(conns.size());
  char rbuf[64 * 1024];

  for (;;) {
    const int64_t now = now_us();

    // Release every op whose scheduled time has arrived (open loop).
    while (next.has_value() && next->send_us <= now && live_conns > 0) {
      // Round-robin over live connections.
      Conn* c = nullptr;
      for (size_t probe = 0; probe < conns.size(); ++probe) {
        Conn& cand = conns[(issued + probe) % conns.size()];
        if (!cand.failed) {
          c = &cand;
          break;
        }
      }
      ++issued;
      const Op& op = *next;
      const uint8_t seg_idx = static_cast<uint8_t>(op.phase + 1);
      ++segs[seg_idx].scheduled;
      ++result.scheduled;
      if (op.kind == OpKind::kGet) {
        c->out += "get ";
        c->out += config.key_prefix;
        AppendUint(c->out, op.key);
        c->out += "\r\n";
        c->reader.Push(net::ReplyReader::Expect::kRetrieval);
      } else {
        c->out += "set ";
        c->out += config.key_prefix;
        AppendUint(c->out, op.key);
        c->out += " 0 0 ";
        AppendUint(c->out, op.value_len);
        c->out += "\r\n";
        c->out.append(value_buf.data(), op.value_len);
        c->out += "\r\n";
        c->reader.Push(net::ReplyReader::Expect::kLine);
      }
      c->inflight.push_back(
          {op.send_us, seg_idx, op.kind == OpKind::kGet, op.key});
      next = gen.Next();
    }

    // Push buffered bytes out.
    size_t inflight_total = 0;
    for (Conn& c : conns) {
      if (c.failed) {
        continue;
      }
      if (!c.out.empty() && !FlushConn(c)) {
        fail_conn(c);
        continue;
      }
      inflight_total += c.inflight.size();
    }

    if (live_conns == 0) {
      result.error = "all connections failed";
      break;
    }
    if (!next.has_value()) {
      if (drain_deadline_us < 0) {
        drain_deadline_us = std::max(now, schedule_end_us) +
                            static_cast<int64_t>(config.drain_timeout_s * 1e6);
      }
      if (inflight_total == 0 || now >= drain_deadline_us) {
        abandoned += inflight_total;
        break;
      }
    }

    // Wait for the next scheduled op or socket readiness, whichever first.
    int timeout_ms = 10;
    if (next.has_value()) {
      const int64_t wait_us = next->send_us - now;
      timeout_ms = static_cast<int>(std::clamp<int64_t>(wait_us / 1000, 0, 10));
    }
    size_t npfd = 0;
    for (Conn& c : conns) {
      if (c.failed) {
        continue;
      }
      pfds[npfd].fd = c.fd;
      pfds[npfd].events =
          static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT));
      pfds[npfd].revents = 0;
      ++npfd;
    }
    const int ready = ::poll(pfds.data(), npfd, timeout_ms);
    if (ready < 0 && errno != EINTR) {
      result.error = "poll failed";
      break;
    }

    // Drain readable sockets through the reply readers.
    size_t pi = 0;
    for (Conn& c : conns) {
      if (c.failed) {
        continue;
      }
      const short re = pfds[pi++].revents;
      if ((re & (POLLIN | POLLERR | POLLHUP)) == 0) {
        continue;
      }
      bool dead = false;
      for (;;) {
        const ssize_t n = ::recv(c.fd, rbuf, sizeof(rbuf), 0);
        if (n > 0) {
          sink_conn = &c;
          sink_now_us = now_us();
          if (!c.reader.Feed(std::string_view(rbuf, static_cast<size_t>(n)),
                             sink)) {
            dead = true;  // protocol corruption
            break;
          }
          continue;
        }
        if (n < 0 && errno == EINTR) {
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        }
        dead = true;  // peer closed or hard error
        break;
      }
      if (dead) {
        fail_conn(c);
      }
    }
  }

  for (Conn& c : conns) {
    if (c.fd >= 0) {
      ::close(c.fd);
    }
  }

  // --- Aggregate (deterministic: segment order, then connection order). --
  result.run_duration_s = sc.duration_s;
  result.completed = completed;
  result.errors = errors;
  result.get_misses = get_misses;
  result.abandoned = abandoned;
  result.per_second_completed = std::move(per_second);
  result.windows = std::move(windows);

  // Achieved rates divide by the real completion window: the scheduled
  // duration stretched by how long after its last scheduled send the last
  // reply arrived. A server that keeps up adds one latency; a saturated one
  // adds its backlog, so achieved falls below offered.
  auto completion_window_s = [](double duration_s, int64_t sched_us,
                                int64_t done_us) {
    const int64_t overrun_us = std::max<int64_t>(done_us - sched_us, 0);
    return duration_s + static_cast<double>(overrun_us) * 1e-6;
  };
  LogHistogram overall = MakeLatencyHistogram();
  for (size_t s = 0; s < num_segments; ++s) {
    LogHistogram seg_hist = MakeLatencyHistogram();
    for (const Conn& c : conns) {
      seg_hist.Merge(c.hists[s]);
    }
    overall.Merge(seg_hist);
    SegmentStats& seg = segs[s];
    seg.label = s == 0 ? "baseline" : "phase" + std::to_string(s - 1);
    seg.duration_s = seg_durations[s];
    if (seg.duration_s > 0.0) {
      seg.offered_rps = static_cast<double>(seg.scheduled) / seg.duration_s;
      seg.achieved_rps = static_cast<double>(seg.completed) /
                         completion_window_s(seg.duration_s, last_sched_us[s],
                                             last_done_us[s]);
    }
    seg.latency = Summarize(seg_hist);
  }
  result.segments = std::move(segs);
  result.latency = Summarize(overall);
  result.merged_hist = std::move(overall);
  if (sc.duration_s > 0.0) {
    result.offered_rps =
        static_cast<double>(result.scheduled) / sc.duration_s;
    const int64_t run_sched_us =
        *std::max_element(last_sched_us.begin(), last_sched_us.end());
    const int64_t run_done_us =
        *std::max_element(last_done_us.begin(), last_done_us.end());
    result.achieved_rps =
        static_cast<double>(completed) /
        completion_window_s(sc.duration_s, run_sched_us, run_done_us);
  }
  result.ok = result.error.empty();
  return result;
}

}  // namespace spotcache::loadgen
