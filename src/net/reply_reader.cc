#include "src/net/reply_reader.h"

#include <charconv>

#include "src/net/protocol.h"

namespace spotcache::net {

namespace {

/// Longest reply line accepted: a VALUE header with a 250-byte key and
/// three 20-digit numbers fits with room to spare.
constexpr size_t kMaxReplyLine = 1024;

bool IsErrorLine(std::string_view line) {
  return line == "ERROR" || line.rfind("CLIENT_ERROR", 0) == 0 ||
         line.rfind("SERVER_ERROR", 0) == 0;
}

/// The status-line vocabulary (storage / delete / touch / flush_all),
/// error lines aside.
bool IsStatusLine(std::string_view line) {
  return line == "STORED" || line == "NOT_STORED" || line == "EXISTS" ||
         line == "NOT_FOUND" || line == "DELETED" || line == "TOUCHED" ||
         line == "OK";
}

template <typename T>
bool ParseNumber(std::string_view token, T* out) {
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), *out);
  return !token.empty() && ec == std::errc() &&
         ptr == token.data() + token.size();
}

/// Parses "VALUE <key> <flags> <bytes> [<cas>]" (single-space separated).
bool ParseValueHeader(std::string_view line, uint32_t* flags, uint64_t* bytes,
                      uint64_t* cas) {
  std::string_view fields[5];
  size_t n = 0;
  for (size_t pos = 0;;) {
    if (n == 5) {
      return false;
    }
    const size_t space = line.find(' ', pos);
    const size_t end = space == std::string_view::npos ? line.size() : space;
    fields[n++] = line.substr(pos, end - pos);
    if (space == std::string_view::npos) {
      break;
    }
    pos = space + 1;
  }
  *cas = 0;
  return n >= 4 && !fields[1].empty() && ParseNumber(fields[2], flags) &&
         ParseNumber(fields[3], bytes) && *bytes <= kMaxValueBytes &&
         (n == 4 || ParseNumber(fields[4], cas));
}

}  // namespace

ReplyReader::LineResult ReplyReader::ConsumeLine(std::string_view line,
                                                 bool capture, Reply* reply) {
  if (pending_.empty()) {
    return LineResult::kCorrupt;  // response bytes with nothing outstanding
  }
  reply->line = line;
  if (IsErrorLine(line)) {
    pending_.pop_front();
    saw_value_ = false;
    reply->status = Status::kError;
    return LineResult::kDone;
  }
  if (pending_.front() == Expect::kRetrieval) {
    if (line.rfind("VALUE ", 0) == 0) {
      uint32_t flags = 0;
      uint64_t bytes = 0;
      uint64_t cas = 0;
      if (!ParseValueHeader(line, &flags, &bytes, &cas)) {
        return LineResult::kCorrupt;
      }
      skip_bytes_ = bytes + 2;  // payload + CRLF
      saw_value_ = true;
      if (capture) {
        flags_ = flags;
        cas_ = cas;
        value_.clear();
        value_.reserve(bytes);
      }
      return LineResult::kMore;
    }
    if (line != "END") {
      return LineResult::kCorrupt;
    }
    pending_.pop_front();
    reply->status = saw_value_ ? Status::kHit : Status::kMiss;
    reply->flags = saw_value_ ? flags_ : 0;
    reply->cas = saw_value_ ? cas_ : 0;
    reply->data = saw_value_ && capture ? std::string_view(value_)
                                        : std::string_view();
    saw_value_ = false;
    return LineResult::kDone;
  }
  // kLine: exactly one status line from the vocabulary completes it.
  if (!IsStatusLine(line)) {
    return LineResult::kCorrupt;
  }
  pending_.pop_front();
  reply->status = (line == "NOT_STORED" || line == "NOT_FOUND" ||
                   line == "EXISTS")
                      ? Status::kMiss
                      : Status::kHit;
  return LineResult::kDone;
}

size_t ReplyReader::ConsumePayload(std::string_view bytes, bool capture) {
  const size_t n = std::min(skip_bytes_, bytes.size());
  const size_t payload_left = skip_bytes_ > 2 ? skip_bytes_ - 2 : 0;
  const size_t take = std::min(n, payload_left);
  if (capture) {
    value_.append(bytes.data(), take);
  }
  // The bytes past the payload must be exactly its CRLF terminator.
  for (size_t i = take; i < n; ++i) {
    if (bytes[i] != (skip_bytes_ - i == 2 ? '\r' : '\n')) {
      return std::string_view::npos;
    }
  }
  skip_bytes_ -= n;
  return n;
}

template <typename Emit>
bool ReplyReader::FeedImpl(std::string_view bytes, bool capture,
                           const Emit& emit, size_t* consumed) {
  const size_t total = bytes.size();
  Reply reply;
  while (!bytes.empty()) {
    if (consumed != nullptr && pending_.empty()) {
      break;
    }
    if (skip_bytes_ > 0) {
      const size_t used = ConsumePayload(bytes, capture);
      if (used == std::string_view::npos) {
        return false;
      }
      bytes.remove_prefix(used);
      continue;
    }
    const size_t nl = bytes.find('\n');
    if (nl == std::string_view::npos) {
      partial_.append(bytes);  // every byte is used, held for the next feed
      bytes.remove_prefix(bytes.size());
      if (partial_.size() > kMaxReplyLine) {
        return false;
      }
      break;
    }
    std::string_view line;
    if (partial_.empty()) {
      line = bytes.substr(0, nl);
    } else {
      partial_.append(bytes.substr(0, nl));
      line = partial_;
    }
    if (!line.empty() && line.back() == '\r') {
      line.remove_suffix(1);
    }
    const LineResult r = ConsumeLine(line, capture, &reply);
    if (r == LineResult::kCorrupt) {
      return false;
    }
    if (r == LineResult::kDone) {
      emit(reply);  // before partial_ is cleared: reply.line may point in it
    }
    partial_.clear();
    bytes.remove_prefix(nl + 1);
  }
  if (consumed != nullptr) {
    *consumed = total - bytes.size();
  }
  return true;
}

bool ReplyReader::Feed(std::string_view bytes, const Sink& sink) {
  return FeedImpl(
      bytes, /*capture=*/false, [&sink](const Reply& r) { sink(r.status); },
      /*consumed=*/nullptr);
}

bool ReplyReader::FeedReplies(std::string_view bytes, const ReplySink& sink,
                              size_t* consumed) {
  return FeedImpl(bytes, /*capture=*/true, sink, consumed);
}

}  // namespace spotcache::net
