#include "src/net/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <vector>

#include "src/net/reply_reader.h"

namespace spotcache::net {

namespace {

/// Splits `line` on single spaces (no empty tokens).
std::vector<std::string_view> Tokens(std::string_view line) {
  std::vector<std::string_view> out;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') {
      ++i;
    }
    const size_t start = i;
    while (i < line.size() && line[i] != ' ') {
      ++i;
    }
    if (i > start) {
      out.push_back(line.substr(start, i - start));
    }
  }
  return out;
}

NetClientError ClassifyErrno(int err) {
  switch (err) {
    case ECONNREFUSED:
      return NetClientError::kRefused;
    case ECONNRESET:
      return NetClientError::kReset;
    case EPIPE:
      return NetClientError::kPipe;
    case EAGAIN:
#if EWOULDBLOCK != EAGAIN
    case EWOULDBLOCK:
#endif
    case ETIMEDOUT:
    case EINPROGRESS:
      return NetClientError::kTimeout;
    default:
      return NetClientError::kOther;
  }
}

void SleepMs(int ms) {
  timespec ts{};
  ts.tv_sec = ms / 1000;
  ts.tv_nsec = static_cast<long>(ms % 1000) * 1'000'000L;
  ::nanosleep(&ts, nullptr);
}

}  // namespace

std::string_view ToString(NetClientError e) {
  switch (e) {
    case NetClientError::kNone:
      return "none";
    case NetClientError::kRefused:
      return "refused";
    case NetClientError::kTimeout:
      return "timeout";
    case NetClientError::kReset:
      return "reset";
    case NetClientError::kPipe:
      return "pipe";
    case NetClientError::kClosed:
      return "closed";
    case NetClientError::kNotConnected:
      return "not_connected";
    case NetClientError::kOther:
      return "other";
  }
  return "unknown";
}

NetClient::~NetClient() { Close(); }

void NetClient::RecordError(NetClientError e, int err) {
  last_error_ = e;
  last_errno_ = err;
}

bool NetClient::DialOnce() {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    RecordError(NetClientError::kOther, errno);
    return false;
  }
  timeval tv{};
  tv.tv_sec = timeout_ms_ / 1000;
  tv.tv_usec = (timeout_ms_ % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    RecordError(NetClientError::kRefused, 0);
    Close();
    return false;
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    RecordError(ClassifyErrno(errno), errno);
    Close();
    return false;
  }
  RecordError(NetClientError::kNone, 0);
  return true;
}

bool NetClient::Connect(const std::string& host, uint16_t port,
                        int timeout_ms) {
  host_ = host;
  port_ = port;
  timeout_ms_ = timeout_ms;
  return DialOnce();
}

bool NetClient::Reconnect(const ReconnectPolicy& policy) {
  if (host_.empty()) {
    RecordError(NetClientError::kNotConnected, 0);
    return false;
  }
  double backoff = static_cast<double>(policy.initial_backoff_ms);
  for (int attempt = 1; attempt <= std::max(policy.max_attempts, 1);
       ++attempt) {
    if (DialOnce()) {
      ++reconnects_;
      return true;
    }
    if (attempt == policy.max_attempts) {
      break;
    }
    SleepMs(static_cast<int>(backoff));
    backoff = std::min(backoff * policy.backoff_factor,
                       static_cast<double>(policy.max_backoff_ms));
  }
  return false;
}

void NetClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  rbuf_.clear();
  rpos_ = 0;
}

bool NetClient::SendRaw(std::string_view bytes) {
  if (fd_ < 0) {
    RecordError(NetClientError::kNotConnected, 0);
    return false;
  }
  // Each operation starts with a clean slate so last_error() always refers
  // to the most recent round trip, not a stale, already-recovered failure.
  RecordError(NetClientError::kNone, 0);
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      RecordError(n < 0 ? ClassifyErrno(errno) : NetClientError::kClosed,
                  n < 0 ? errno : 0);
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool NetClient::FillMore() {
  if (fd_ < 0) {
    RecordError(NetClientError::kNotConnected, 0);
    return false;
  }
  char chunk[16 * 1024];
  const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
  if (n < 0) {
    RecordError(ClassifyErrno(errno), errno);
    return false;
  }
  if (n == 0) {
    RecordError(NetClientError::kClosed, 0);
    return false;
  }
  // Compact the consumed prefix before growing.
  if (rpos_ > 0) {
    rbuf_.erase(0, rpos_);
    rpos_ = 0;
  }
  rbuf_.append(chunk, static_cast<size_t>(n));
  return true;
}

std::optional<std::string> NetClient::ReadLine() {
  for (;;) {
    const size_t nl = rbuf_.find('\n', rpos_);
    if (nl != std::string::npos) {
      std::string line = rbuf_.substr(rpos_, nl - rpos_);
      rpos_ = nl + 1;
      if (!line.empty() && line.back() == '\r') {
        line.pop_back();
      }
      return line;
    }
    if (!FillMore()) {
      return std::nullopt;
    }
  }
}

std::optional<std::string> NetClient::ReadBytes(size_t n) {
  while (rbuf_.size() - rpos_ < n) {
    if (!FillMore()) {
      return std::nullopt;
    }
  }
  std::string out = rbuf_.substr(rpos_, n);
  rpos_ += n;
  return out;
}

std::optional<std::string> NetClient::RoundTripRaw(
    std::string_view bytes, std::string_view server_version) {
  std::string framed(bytes);
  framed += "version\r\n";
  if (!SendRaw(framed)) {
    return std::nullopt;
  }
  const std::string sentinel =
      "VERSION " + std::string(server_version) + "\r\n";
  // Accumulate raw bytes until the stream ends with the sentinel reply;
  // everything before it is the response to `bytes`, captured verbatim.
  std::string captured;
  for (;;) {
    captured.append(rbuf_, rpos_, rbuf_.size() - rpos_);
    rpos_ = rbuf_.size();
    if (captured.size() >= sentinel.size() &&
        captured.compare(captured.size() - sentinel.size(), sentinel.size(),
                         sentinel) == 0) {
      captured.resize(captured.size() - sentinel.size());
      return captured;
    }
    if (!FillMore()) {
      return std::nullopt;
    }
  }
}

std::optional<std::string> NetClient::SimpleCommand(std::string cmd) {
  cmd += "\r\n";
  if (!SendRaw(cmd)) {
    return std::nullopt;
  }
  return ReadLine();
}

bool NetClient::Set(std::string_view key, std::string_view value,
                    uint32_t flags, int64_t exptime) {
  std::string cmd = "set " + std::string(key) + " " + std::to_string(flags) +
                    " " + std::to_string(exptime) + " " +
                    std::to_string(value.size()) + "\r\n";
  cmd += value;
  cmd += "\r\n";
  if (!SendRaw(cmd)) {
    return false;
  }
  return ReadLine() == "STORED";
}

bool NetClient::Add(std::string_view key, std::string_view value,
                    uint32_t flags, int64_t exptime) {
  std::string cmd = "add " + std::string(key) + " " + std::to_string(flags) +
                    " " + std::to_string(exptime) + " " +
                    std::to_string(value.size()) + "\r\n";
  cmd += value;
  cmd += "\r\n";
  if (!SendRaw(cmd)) {
    return false;
  }
  return ReadLine() == "STORED";
}

bool NetClient::Replace(std::string_view key, std::string_view value,
                        uint32_t flags, int64_t exptime) {
  std::string cmd = "replace " + std::string(key) + " " +
                    std::to_string(flags) + " " + std::to_string(exptime) +
                    " " + std::to_string(value.size()) + "\r\n";
  cmd += value;
  cmd += "\r\n";
  if (!SendRaw(cmd)) {
    return false;
  }
  return ReadLine() == "STORED";
}

NetClient::GetResult NetClient::Retrieve(std::string_view verb,
                                         std::string_view key) {
  if (!SendRaw(std::string(verb) + " " + std::string(key) + "\r\n")) {
    return {};
  }
  GetResult result;
  ReplyReader reader;
  reader.Push(ReplyReader::Expect::kRetrieval);
  const auto sink = [&result](const ReplyReader::Reply& reply) {
    if (reply.status == ReplyReader::Status::kHit) {
      result.found = true;
      result.value.assign(reply.data);
      result.flags = reply.flags;
      result.cas = reply.cas;
    }
  };
  while (reader.pending() > 0) {
    if (rpos_ == rbuf_.size() && !FillMore()) {
      return {};
    }
    size_t used = 0;
    const bool ok = reader.FeedReplies(
        std::string_view(rbuf_).substr(rpos_), sink, &used);
    rpos_ += used;
    if (!ok) {
      // A torn or unparseable reply: nothing in it is a hit, and the stream
      // cannot be resynchronised. Typed as kClosed so callers reconnect.
      Close();
      RecordError(NetClientError::kClosed, 0);
      return {};
    }
  }
  return result;
}

NetClient::GetResult NetClient::Get(std::string_view key) {
  return Retrieve("get", key);
}

NetClient::GetResult NetClient::Gets(std::string_view key) {
  return Retrieve("gets", key);
}

bool NetClient::Delete(std::string_view key) {
  return SimpleCommand("delete " + std::string(key)) == "DELETED";
}

bool NetClient::Touch(std::string_view key, int64_t exptime) {
  return SimpleCommand("touch " + std::string(key) + " " +
                       std::to_string(exptime)) == "TOUCHED";
}

bool NetClient::FlushAll(int64_t delay_s) {
  return SimpleCommand(delay_s > 0 ? "flush_all " + std::to_string(delay_s)
                                   : "flush_all") == "OK";
}

std::optional<std::string> NetClient::Version() {
  auto line = SimpleCommand("version");
  if (!line.has_value() || line->rfind("VERSION ", 0) != 0) {
    return std::nullopt;
  }
  return line->substr(8);
}

std::optional<std::map<std::string, std::string>> NetClient::Stats() {
  if (!SendRaw("stats\r\n")) {
    return std::nullopt;
  }
  std::map<std::string, std::string> stats;
  for (;;) {
    auto line = ReadLine();
    if (!line.has_value()) {
      return std::nullopt;
    }
    if (*line == "END") {
      return stats;
    }
    const auto toks = Tokens(*line);
    if (toks.size() >= 3 && toks[0] == "STAT") {
      stats.emplace(std::string(toks[1]), std::string(toks[2]));
    }
  }
}

}  // namespace spotcache::net
