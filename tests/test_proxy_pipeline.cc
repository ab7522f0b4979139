// The proxy's non-blocking upstream engine, end to end through a live proxy
// NetServer:
//
//   * head-of-line isolation: while one client's request is parked on a
//     stalled upstream, clients whose keys live on a healthy upstream are
//     served at loopback speed, not after the stall's op timeout;
//   * ordering under out-of-order completion: one connection pipelines a
//     long mixed stream across two upstreams, one of which delays every
//     reply; the proxy's reply bytes equal the same stream sent directly to
//     the owning servers, and the delayed upstream never has more than
//     `window` commands in flight.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/client.h"
#include "src/net/protocol.h"
#include "src/net/reply_reader.h"
#include "src/net/server.h"
#include "src/proxy/proxy_core.h"
#include "src/proxy/upstream_pool.h"
#include "src/util/rng.h"

namespace spotcache::proxy {
namespace {

using net::NetClient;
using net::NetServer;
using net::NetServerConfig;
using Clock = std::chrono::steady_clock;

constexpr int64_t kNow = 1'700'000'000;

/// A listening socket on an ephemeral loopback port.
int ListenLoopback(uint16_t* port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  *port = ntohs(addr.sin_port);
  EXPECT_EQ(::listen(fd, 8), 0);
  return fd;
}

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

bool SendAll(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      return false;
    }
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

/// An upstream that reads requests and never answers.
class StallPeer {
 public:
  StallPeer() : listen_fd_(ListenLoopback(&port_)) {
    thread_ = std::thread([this] {
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
          return;  // listener shut down
        }
        char buf[4096];
        while (::recv(fd, buf, sizeof(buf), 0) > 0) {
        }
        ::close(fd);
      }
    });
  }
  ~StallPeer() {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    thread_.join();
  }
  uint16_t port() const { return port_; }

 private:
  uint16_t port_ = 0;
  int listen_fd_;
  std::thread thread_;
};

/// A relay in front of a real server that holds every reply chunk for
/// `delay` before passing it on, and counts commands in flight through it:
/// requests received minus replies passed back. That count can only
/// under-state the proxy's own (a reply passed on is not yet read), so its
/// maximum bounds the proxy's window from below.
class DelayRelay {
 public:
  DelayRelay(uint16_t upstream_port, std::chrono::microseconds delay)
      : upstream_port_(upstream_port),
        delay_(delay),
        listen_fd_(ListenLoopback(&port_)) {
    thread_ = std::thread([this] { Run(); });
  }
  ~DelayRelay() {
    stop_.store(true);
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    thread_.join();
  }
  uint16_t port() const { return port_; }
  int64_t max_in_flight() const { return max_in_flight_.load(); }
  int64_t requests() const { return requests_.load(); }

 private:
  struct Held {
    Clock::time_point release;
    std::string bytes;
  };

  void Run() {
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      return;
    }
    const int upstream = ConnectLoopback(upstream_port_);
    net::RequestParser parser;
    net::ReplyReader replies;
    int64_t in_flight = 0;
    std::deque<Held> held;
    char buf[64 * 1024];
    while (!stop_.load()) {
      int timeout_ms = 20;
      if (!held.empty()) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            held.front().release - Clock::now());
        timeout_ms = static_cast<int>(std::clamp<int64_t>(left.count(), 0, 20));
      }
      pollfd fds[2] = {{client, POLLIN, 0}, {upstream, POLLIN, 0}};
      ::poll(fds, 2, timeout_ms);
      if ((fds[0].revents & (POLLIN | POLLHUP)) != 0) {
        const ssize_t n = ::recv(client, buf, sizeof(buf), 0);
        if (n <= 0) {
          break;
        }
        parser.Feed(std::string_view(buf, static_cast<size_t>(n)));
        while (parser.Next() == net::ParseStatus::kRequest) {
          const net::Verb verb = parser.request().verb;
          replies.Push(verb == net::Verb::kGet || verb == net::Verb::kGets
                           ? net::ReplyReader::Expect::kRetrieval
                           : net::ReplyReader::Expect::kLine);
          ++in_flight;
          requests_.fetch_add(1);
        }
        max_in_flight_.store(std::max(max_in_flight_.load(), in_flight));
        if (!SendAll(upstream, std::string_view(buf, static_cast<size_t>(n)))) {
          break;
        }
      }
      if ((fds[1].revents & (POLLIN | POLLHUP)) != 0) {
        const ssize_t n = ::recv(upstream, buf, sizeof(buf), 0);
        if (n <= 0) {
          break;
        }
        held.push_back({Clock::now() + delay_,
                        std::string(buf, static_cast<size_t>(n))});
      }
      while (!held.empty() && held.front().release <= Clock::now()) {
        replies.Feed(held.front().bytes,
                     [&in_flight](net::ReplyReader::Status) { --in_flight; });
        if (!SendAll(client, held.front().bytes)) {
          stop_.store(true);
          break;
        }
        held.pop_front();
      }
    }
    ::close(client);
    ::close(upstream);
  }

  uint16_t upstream_port_;
  std::chrono::microseconds delay_;
  uint16_t port_ = 0;
  int listen_fd_;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> max_in_flight_{0};
  std::atomic<int64_t> requests_{0};
  std::thread thread_;
};

/// A NetServer on its own loop thread, on the fixed test clock.
struct LiveServer {
  LiveServer() : server(NetServerConfig{}) {
    server.SetClock([] { return kNow; });
    EXPECT_TRUE(server.Start());
    loop = std::thread([this] { server.Run(); });
  }
  ~LiveServer() {
    server.Stop();
    loop.join();
  }
  NetServer server;
  std::thread loop;
};

/// A live proxy NetServer over `core` (the core must outlive it).
struct LiveProxy {
  explicit LiveProxy(ProxyCore* core) : server(NetServerConfig{}) {
    server.SetHandler(core);
    server.SetClock([] { return kNow; });
    EXPECT_TRUE(server.Start());
    loop = std::thread([this] { server.Run(); });
  }
  ~LiveProxy() {
    server.Stop();
    loop.join();
  }
  NetServer server;
  std::thread loop;
};

/// The first keys named `<prefix><i>` that `pool` homes on `slot`.
std::vector<std::string> KeysOnSlot(const UpstreamPool& pool, uint64_t slot,
                                    const std::string& prefix, size_t count) {
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < count; ++i) {
    std::string key = prefix + std::to_string(i);
    if (pool.OwnerOf(key) == slot) {
      keys.push_back(std::move(key));
    }
  }
  return keys;
}

TEST(ProxyPipeline, StalledUpstreamDoesNotDelayKeysHomedElsewhere) {
  constexpr int kTimeoutMs = 1000;
  StallPeer stalled;
  LiveServer healthy;
  ProxyCoreConfig pc;
  pc.upstreams.op_timeout_ms = kTimeoutMs;
  ProxyCore core(pc);
  core.pool().SetNode(0, "127.0.0.1", stalled.port());
  core.pool().SetNode(1, "127.0.0.1", healthy.server.port());
  const std::string stuck_key = KeysOnSlot(core.pool(), 0, "s", 1)[0];
  const std::vector<std::string> keys = KeysOnSlot(core.pool(), 1, "h", 100);
  LiveProxy proxy(&core);

  // Client A parks a get on the stalled upstream.
  NetClient a;
  ASSERT_TRUE(a.Connect("127.0.0.1", proxy.server.port()));
  const auto a_sent = Clock::now();
  ASSERT_TRUE(a.SendRaw("get " + stuck_key + "\r\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // Client B works slot 1 meanwhile: every round trip at loopback speed.
  NetClient b;
  ASSERT_TRUE(b.Connect("127.0.0.1", proxy.server.port()));
  int64_t worst_us = 0;
  for (const std::string& key : keys) {
    const auto t0 = Clock::now();
    ASSERT_TRUE(b.Set(key, "v_" + key));
    const auto got = b.Get(key);
    worst_us = std::max<int64_t>(
        worst_us, std::chrono::duration_cast<std::chrono::microseconds>(
                      Clock::now() - t0)
                      .count());
    ASSERT_TRUE(got.found) << key;
    EXPECT_EQ(got.value, "v_" + key);
  }
  const auto b_done = Clock::now();
  EXPECT_LT(worst_us, kTimeoutMs * 1000 / 10)
      << "a healthy slot's round trip waited on the stalled one";
  EXPECT_LT(b_done - a_sent, std::chrono::milliseconds(kTimeoutMs))
      << "client B finished only after the stall was cut";

  // A's request resolves at the op deadline: no backup, so a plain miss.
  const auto line = a.ReadLine();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "END");
  EXPECT_GE(Clock::now() - a_sent, std::chrono::milliseconds(kTimeoutMs / 2));
  EXPECT_GT(core.pool().stats().absorbed_failures, 0u);
  EXPECT_EQ(core.pool().stats().unreachable, 1u);
}

/// A seeded mixed stream over `keys`: set / get / gets / delete, some with
/// noreply, some multi-key gets. One command per entry.
std::vector<std::string> MixedStream(const std::vector<std::string>& keys,
                                     size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> cmds;
  for (size_t i = 0; i < count; ++i) {
    const std::string& key = keys[rng.NextBelow(keys.size())];
    const std::string noreply = rng.NextBelow(4) == 0 ? " noreply" : "";
    switch (rng.NextBelow(6)) {
      case 0:
      case 1: {
        std::string value(1 + rng.NextBelow(40), 'a');
        for (char& c : value) {
          c = static_cast<char>('a' + rng.NextBelow(26));
        }
        cmds.push_back("set " + key + " " + std::to_string(rng.NextBelow(9)) +
                       " 0 " + std::to_string(value.size()) + noreply +
                       "\r\n" + value + "\r\n");
        break;
      }
      case 2:
        cmds.push_back("get " + key + "\r\n");
        break;
      case 3:
        cmds.push_back("gets " + key + "\r\n");
        break;
      case 4:
        cmds.push_back("delete " + key + noreply + "\r\n");
        break;
      default: {
        std::string multi = "get";
        for (int k = 0; k < 3; ++k) {
          multi += " " + keys[rng.NextBelow(keys.size())];
        }
        cmds.push_back(multi + "\r\n");
        break;
      }
    }
  }
  return cmds;
}

/// The keys a command names (its verb stripped; storage payload ignored).
std::vector<std::string> CommandKeys(const std::string& cmd) {
  const std::string line = cmd.substr(0, cmd.find("\r\n"));
  std::vector<std::string> tokens;
  for (size_t at = 0; at < line.size();) {
    const size_t space = std::min(line.find(' ', at), line.size());
    tokens.push_back(line.substr(at, space - at));
    at = space + 1;
  }
  if (tokens[0] == "get" || tokens[0] == "gets") {
    return {tokens.begin() + 1, tokens.end()};
  }
  return {tokens[1]};
}

TEST(ProxyPipeline, OutOfOrderCompletionKeepsReplyOrderAndWindow) {
  constexpr int kWindow = 8;
  // Reference: the same stream, each command sent on its own to the server
  // owning its key(s). Multi-key gets are per-key gets, concatenated.
  LiveServer ref0;
  LiveServer ref1;
  // The proxied path: slot 0 behind a relay that holds every reply 1 ms.
  LiveServer up0;
  LiveServer up1;
  DelayRelay relay(up0.server.port(), std::chrono::milliseconds(1));
  ProxyCoreConfig pc;
  pc.upstreams.window = kWindow;
  pc.upstreams.op_timeout_ms = 5000;  // the delays must never read as stalls
  ProxyCore core(pc);
  core.pool().SetNode(0, "127.0.0.1", relay.port());
  core.pool().SetNode(1, "127.0.0.1", up1.server.port());

  std::vector<std::string> keys = KeysOnSlot(core.pool(), 0, "k", 12);
  const std::vector<std::string> more = KeysOnSlot(core.pool(), 1, "k", 12);
  keys.insert(keys.end(), more.begin(), more.end());
  const std::vector<std::string> cmds = MixedStream(keys, 2400, 11);

  std::string want;
  {
    NetClient owner[2];
    ASSERT_TRUE(owner[0].Connect("127.0.0.1", ref0.server.port()));
    ASSERT_TRUE(owner[1].Connect("127.0.0.1", ref1.server.port()));
    for (const std::string& cmd : cmds) {
      const std::vector<std::string> names = CommandKeys(cmd);
      if (names.size() == 1) {
        const auto got = owner[*core.pool().OwnerOf(names[0])].RoundTripRaw(cmd);
        ASSERT_TRUE(got.has_value());
        want += *got;
        continue;
      }
      for (const std::string& key : names) {
        const auto got =
            owner[*core.pool().OwnerOf(key)].RoundTripRaw("get " + key + "\r\n");
        ASSERT_TRUE(got.has_value());
        want += got->substr(0, got->size() - 5);  // drop the per-key END
      }
      want += "END\r\n";
    }
  }

  LiveProxy proxy(&core);
  std::string stream;
  for (const std::string& cmd : cmds) {
    stream += cmd;
  }
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", proxy.server.port()));
  const auto got = client.RoundTripRaw(stream);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(*got == want) << "proxied reply bytes differ from direct ("
                            << got->size() << " vs " << want.size()
                            << " bytes)";
  EXPECT_GT(relay.requests(), 0);
  EXPECT_LE(relay.max_in_flight(), kWindow);
  EXPECT_GT(relay.max_in_flight(), 1) << "the delayed upstream never pipelined";
  EXPECT_EQ(core.pool().stats().absorbed_failures, 0u);
}

}  // namespace
}  // namespace spotcache::proxy
