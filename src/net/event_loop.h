// EventLoop: what NetServer's epoll loop offers a request handler that does
// its own non-blocking I/O (the proxy's upstream legs).
//
// Two services:
//
//   * Foreign fds. A LoopClient registers its sockets on the server's epoll
//     set (always EPOLLIN; EPOLLOUT only while it has a short write or a
//     connect pending) and gets their readiness through OnFdReady. Once per
//     loop iteration, after the fd events, the loop calls Tick() so the
//     client can flush what it queued and enforce deadlines; the loop never
//     sleeps past NextDeadlineUs().
//   * Parked replies. A handler that cannot answer a request yet returns
//     kParked from RequestHandler::Start and later delivers the reply with
//     CompleteParked(ticket, bytes). The server sends replies to each client
//     in request order, whatever order they complete in.
//
// Everything here runs on the loop thread; nothing is locked.

#pragma once

#include <cstdint>
#include <limits>
#include <string>

namespace spotcache::net {

/// Names one parked request's reply slot (opaque to handlers).
struct ReplyTicket {
  int fd = -1;
  uint64_t conn = 0;  // connection id: a reused fd never matches
  uint64_t seq = 0;   // request position on that connection
};

/// A participant with sockets on someone else's loop.
class LoopClient {
 public:
  static constexpr int64_t kNoDeadline = std::numeric_limits<int64_t>::max();

  virtual ~LoopClient() = default;
  /// `fd` is ready; `events` carries the EPOLLIN/EPOLLOUT/EPOLLERR/EPOLLHUP
  /// bits.
  virtual void OnFdReady(int fd, uint32_t events) = 0;
  /// End of one loop iteration at steady-clock microsecond `now_us`.
  virtual void Tick(int64_t now_us) = 0;
  /// The steady-clock microsecond by which Tick() must run again
  /// (kNoDeadline: none; <= now: immediately).
  virtual int64_t NextDeadlineUs() const = 0;
};

class EventLoop {
 public:
  virtual ~EventLoop() = default;
  /// Makes `client` receive Tick() every iteration.
  virtual void AddClient(LoopClient* client) = 0;
  /// Registers a non-blocking fd for EPOLLIN (plus EPOLLOUT when
  /// `want_write`); readiness goes to `client`. False if epoll refused it.
  virtual bool WatchFd(int fd, LoopClient* client, bool want_write) = 0;
  /// Arms or disarms EPOLLOUT for a watched fd.
  virtual void SetWantWrite(int fd, bool want_write) = 0;
  /// Deregisters a watched fd (call before closing it).
  virtual void UnwatchFd(int fd) = 0;
  /// Delivers a parked request's reply. A ticket whose connection has gone
  /// away is ignored.
  virtual void CompleteParked(const ReplyTicket& ticket,
                              std::string&& reply) = 0;
};

}  // namespace spotcache::net
