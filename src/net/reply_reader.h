// ReplyReader: incremental parser for memcached text responses on a
// pipelined connection.
//
// It consumes raw received bytes incrementally (any chunking) and emits one
// completion per reply, in request order. The caller tells the reader what
// kind of reply to expect for every request it sends (Push), and matches
// completions against its own FIFO of requests.
//
// Two sinks share one parser:
//
//   * Feed() reports only each reply's *disposition* (hit / miss / error) —
//     the open-loop load generator's view. VALUE payloads are skipped by
//     byte count without copying.
//   * FeedReplies() also delivers the content — the status line, or the
//     VALUE block's flags, cas and payload — for callers that relay replies
//     (the proxy's upstream legs) or hand them to an application (NetClient's
//     get/gets).
//
// Either way the reader is strict, because a relaying caller must never pass
// a torn reply on: a status line outside the memcached vocabulary, a VALUE
// header that does not parse, a VALUE larger than kMaxValueBytes, or a
// payload not followed by CRLF is corruption, and the stream is dead.
// ERROR / CLIENT_ERROR / SERVER_ERROR lines terminate the current
// expectation with kError — this is how the degradation ladder's sheds
// (SERVER_ERROR temporarily overloaded) show up in loadgen results.

#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>

namespace spotcache::net {

class ReplyReader {
 public:
  /// What the next un-answered request expects back.
  enum class Expect : uint8_t {
    kRetrieval,  // get/gets: VALUE blocks then END
    kLine,       // set/delete/touch/...: exactly one status line
  };

  enum class Status : uint8_t {
    kHit,    // retrieval with >= 1 VALUE, or a positive status line
    kMiss,   // retrieval END with no VALUE, or NOT_STORED/NOT_FOUND/EXISTS
    kError,  // ERROR / CLIENT_ERROR / SERVER_ERROR
  };

  using Sink = std::function<void(Status)>;

  /// One completed reply with its content. The views point into the
  /// reader's buffers and are valid only during the sink call.
  struct Reply {
    Status status = Status::kMiss;
    /// The status line without CRLF (kLine expectations and error lines).
    std::string_view line;
    /// Retrieval: the last VALUE block's fields (data empty on a miss).
    uint32_t flags = 0;
    uint64_t cas = 0;
    std::string_view data;
  };
  using ReplySink = std::function<void(const Reply&)>;

  /// Registers the reply expectation for a request just sent (FIFO order).
  void Push(Expect e) { pending_.push_back(e); }
  size_t pending() const { return pending_.size(); }

  /// Consumes `bytes`, invoking `sink` once per completed reply in order.
  /// Returns false on protocol corruption (see the header comment) or
  /// response bytes arriving with no pending expectation. After a false
  /// return the stream is unrecoverable and the connection should be closed.
  bool Feed(std::string_view bytes, const Sink& sink);

  /// Feed() for relaying callers: the sink receives each reply's content.
  /// Payloads are buffered across chunks until the reply completes.
  ///
  /// With `consumed` set, feeding stops as soon as no expectation is
  /// pending, and *consumed receives how many bytes were used; the rest
  /// belong to whatever the caller reads next (a blocking client sharing
  /// one receive buffer across round trips).
  bool FeedReplies(std::string_view bytes, const ReplySink& sink,
                   size_t* consumed = nullptr);

 private:
  enum class LineResult : uint8_t { kCorrupt, kMore, kDone };

  template <typename Emit>
  bool FeedImpl(std::string_view bytes, bool capture, const Emit& emit,
                size_t* consumed);
  /// Consumes one complete line (CRLF stripped). On kDone, *reply holds the
  /// finished reply's status and line.
  LineResult ConsumeLine(std::string_view line, bool capture, Reply* reply);
  /// Consumes payload bytes (and the CRLF that must follow them). Returns
  /// how many bytes were used, or npos when the terminator is wrong.
  size_t ConsumePayload(std::string_view bytes, bool capture);

  std::deque<Expect> pending_;
  std::string partial_;     // buffered incomplete line
  size_t skip_bytes_ = 0;   // remaining VALUE payload + CRLF
  bool saw_value_ = false;  // current retrieval produced at least one VALUE
  // The current retrieval's VALUE block (FeedReplies only).
  uint32_t flags_ = 0;
  uint64_t cas_ = 0;
  std::string value_;
};

}  // namespace spotcache::net
