// ShardedServer integration: N reactor threads over lock-striped ItemStore
// partitions, cross-shard multigets, coherent aggregation surfaces.
//
// The soaks use self-verifying values (value encodes its key and version) so
// any cross-shard routing bug — a reply stitched to the wrong request, a key
// served from the wrong partition, a value torn by a racing writer —
// corrupts a comparison instead of passing silently. The scrape tests run
// under live multi-shard load and are part of the TSan CI job: they pin the
// "metrics listener never reads a shard counter mid-update" property (the
// scrape takes each reactor's work mutex in turn, sharded_server.h).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/system.h"
#include "src/net/client.h"
#include "src/net/sharded_server.h"
#include "src/net/sharding.h"
#include "src/obs/obs.h"
#include "src/proxy/proxy_core.h"

namespace spotcache::net {
namespace {

constexpr int64_t kT0 = 2'000'000'000;

ShardedServerConfig FourShardConfig() {
  ShardedServerConfig config;
  config.base.port = 0;
  config.base.metrics_port = -1;
  config.threads = 4;
  return config;
}

/// One HTTP/1.0 scrape of the metrics endpoint; returns the full response.
std::string Scrape(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char req[] = "GET /metrics HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::send(fd, req, sizeof(req) - 1, 0),
            static_cast<ssize_t>(sizeof(req) - 1));
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      break;
    }
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

/// Value of the series `name` (labels included) in a scrape, or -1 when
/// absent.
long PromValue(const std::string& scrape, const std::string& name) {
  const std::string text = "\n" + scrape;
  const std::string needle = "\n" + name + " ";
  const size_t at = text.find(needle);
  return at == std::string::npos
             ? -1
             : std::atol(text.c_str() + at + needle.size());
}

/// `stats spotcache` value for one STAT name, or -1 when absent.
long SpotcacheStat(NetClient& client, const std::string& name) {
  EXPECT_TRUE(client.SendRaw("stats spotcache\r\n"));
  long value = -1;
  for (;;) {
    const auto line = client.ReadLine();
    if (!line.has_value() || *line == "END") {
      break;
    }
    const std::string prefix = "STAT " + name + " ";
    if (line->rfind(prefix, 0) == 0) {
      value = std::atol(line->c_str() + prefix.size());
    }
  }
  return value;
}

// Multi-connection soak with self-verifying values. Each worker owns a key
// range but every key is named so ShardOfKey spreads it — most operations a
// worker issues land on a different shard than its connection, exercising
// cross-shard keys continuously.
TEST(ShardedServer, SoakSelfVerifyingAcrossShards) {
  ShardedServer server(FourShardConfig());
  ASSERT_TRUE(server.Start());
  std::thread loop([&server] { server.Run(); });

  constexpr int kWorkers = 4;
  constexpr int kOpsPerWorker = 1200;
  constexpr int kKeysPerWorker = 64;
  std::atomic<uint64_t> sets{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      NetClient client;
      if (!client.Connect("127.0.0.1", server.port())) {
        ++failures;
        return;
      }
      std::vector<int> version(kKeysPerWorker, -1);
      const auto key_of = [w](int k) {
        return "soak:" + std::to_string(w) + ":" + std::to_string(k);
      };
      const auto value_of = [&](int k, int v) {
        return key_of(k) + "=" + std::to_string(v);
      };
      for (int i = 0; i < kOpsPerWorker; ++i) {
        const int k = (i * 7) % kKeysPerWorker;
        switch (i % 4) {
          case 0:
          case 1: {  // write a new version
            const int v = i;
            if (!client.Set(key_of(k), value_of(k, v))) {
              ++failures;
              return;
            }
            version[k] = v;
            ++sets;
            break;
          }
          case 2: {  // read back and self-verify
            const auto got = client.Get(key_of(k));
            if (version[k] < 0) {
              if (got.found) {
                ++failures;
              }
            } else if (!got.found || got.value != value_of(k, version[k])) {
              ++failures;
            }
            break;
          }
          default: {  // cross-shard multiget: four keys, four partitions
            std::string req = "get";
            std::vector<int> ks;
            for (int d = 0; d < 4; ++d) {
              const int kk = (k + d * 13) % kKeysPerWorker;
              ks.push_back(kk);
              req += ' ';
              req += key_of(kk);
            }
            if (!client.SendRaw(req + "\r\n")) {
              ++failures;
              return;
            }
            // True when a VALUE header names key `kk`.
            const auto names = [&](const std::string& header, int kk) {
              std::string needle(1, ' ');
              needle += key_of(kk);
              needle += ' ';
              return header.find(needle) != std::string::npos;
            };
            // Replies come in request order; verify each VALUE matches the
            // version we last stored for that key.
            size_t next = 0;
            for (;;) {
              const auto line = client.ReadLine();
              if (!line.has_value()) {
                ++failures;
                return;
              }
              if (*line == "END") {
                break;
              }
              if (line->rfind("VALUE ", 0) != 0) {
                ++failures;
                break;
              }
              // Find which of our four keys this header names.
              while (next < ks.size() && !names(*line, ks[next])) {
                ++next;  // earlier keys in the request missed
              }
              const auto data = client.ReadLine();
              if (!data.has_value() || next >= ks.size() ||
                  version[ks[next]] < 0 ||
                  *data != value_of(ks[next], version[ks[next]])) {
                ++failures;
              }
              ++next;
            }
            break;
          }
        }
      }
      client.Close();
    });
  }
  for (auto& t : workers) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);

  // Aggregated stats are coherent: the gather barrier sums every partition.
  {
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
    const auto stats = client.Stats();
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(std::stoull(stats->at("cmd_set")), sets.load());
    EXPECT_GT(std::stoull(stats->at("get_hits")), 0u);
    EXPECT_EQ(SpotcacheStat(client, "spotcache_shard_count"), 4);
    client.Close();
  }
  server.Stop();
  loop.join();
}

// The scrape endpoint under live multi-shard load: every response is a
// complete merge of the shard registries (TSan pins the no-torn-reads
// property; this test pins liveness and that counts never go backwards).
TEST(ShardedServer, ScrapeUnderMultiShardLoad) {
  ShardedServerConfig config = FourShardConfig();
  config.base.metrics_port = 0;
  ShardedServer server(config);
  ASSERT_TRUE(server.Start());
  ASSERT_NE(server.metrics_port(), 0);
  std::thread loop([&server] { server.Run(); });

  std::atomic<bool> stop{false};
  std::vector<std::thread> load;
  for (int w = 0; w < 2; ++w) {
    load.emplace_back([&, w] {
      NetClient client;
      if (!client.Connect("127.0.0.1", server.port())) {
        return;
      }
      for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        std::string key = "scr:";
        key += std::to_string(w);
        key += ':';
        key += std::to_string(i % 256);
        std::string value = "v";
        value += std::to_string(i);
        client.Set(key, value);
        client.Get(key);
      }
      client.Close();
    });
  }

  long last_requests = 0;
  for (int i = 0; i < 15; ++i) {
    const std::string scrape = Scrape(server.metrics_port());
    EXPECT_NE(scrape.find("HTTP/1.0 200 OK"), std::string::npos) << i;
    EXPECT_NE(scrape.find("obs_shards 4"), std::string::npos) << i;
    // Every shard's counters are read when the scrape is asked for, so the
    // merged request count never goes backwards.
    const long requests = PromValue(scrape, "net_requests");
    EXPECT_GE(requests, last_requests) << i;
    last_requests = requests;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GT(last_requests, 0);

  stop.store(true);
  for (auto& t : load) {
    t.join();
  }
  server.Stop();
  loop.join();

  // Post-run sanity: the merged render saw the traffic.
  EXPECT_GT(PromValue(server.RenderMetrics(), "net_requests"), 0);
}

// Every shard owns a connection (shard 0 deals them round-robin), and a
// scrape taken right after the last reply counts every set: each reactor's
// registry is read between its loop iterations, not from a periodic copy.
TEST(ShardedServer, ScrapeIsExactAtQuiescence) {
  ShardedServerConfig config = FourShardConfig();
  config.base.metrics_port = 0;
  ShardedServer server(config);
  ASSERT_TRUE(server.Start());
  std::thread loop([&server] { server.Run(); });

  constexpr int kConns = 4;
  constexpr int kSetsPerConn = 25;
  std::vector<std::unique_ptr<NetClient>> clients;
  for (int c = 0; c < kConns; ++c) {
    clients.push_back(std::make_unique<NetClient>());
    ASSERT_TRUE(clients.back()->Connect("127.0.0.1", server.port()));
  }
  for (int c = 0; c < kConns; ++c) {
    for (int i = 0; i < kSetsPerConn; ++i) {
      ASSERT_TRUE(clients[c]->Set(
          "q:" + std::to_string(c) + ":" + std::to_string(i), "v"));
    }
  }
  const std::string scrape = Scrape(server.metrics_port());
  EXPECT_EQ(PromValue(scrape, "net_sets"), kConns * kSetsPerConn);
  const auto stats = clients[0]->Stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(std::stol(stats->at("cmd_set")), kConns * kSetsPerConn);

  std::vector<long> shard_seen;
  for (auto& c : clients) {
    shard_seen.push_back(SpotcacheStat(*c, "spotcache_shard"));
    c->Close();
  }
  std::sort(shard_seen.begin(), shard_seen.end());
  EXPECT_EQ(shard_seen, (std::vector<long>{0, 1, 2, 3}));
  server.Stop();
  loop.join();
}

// A resilience-enabled SpotCacheSystem counts the ladder rung that served
// each gated get in its own control-plane registry. `stats spotcache` and the
// scrape must both report it at any shard count, one included.
TEST(ShardedServer, ControlPlaneCountsAtOneAndTwoThreads) {
  for (const uint32_t threads : {1u, 2u}) {
    SCOPED_TRACE(threads);
    Obs obs;
    SpotCacheSystem::Config sys;
    sys.obs = &obs;
    sys.resilience.enabled = true;
    SpotCacheSystem system(sys);
    system.AdvanceSlot(100e3, 10.0);  // provision the data plane

    ShardedServerConfig config;
    config.base.port = 0;
    config.base.metrics_port = 0;
    config.threads = threads;
    ShardedServer server(config, &system, &obs);
    ASSERT_TRUE(server.Start());
    std::thread loop([&server] { server.Run(); });

    constexpr long kGets = 50;
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
    ASSERT_TRUE(client.Set("cp", "v"));  // fills the model's primary node
    for (long i = 0; i < kGets; ++i) {
      EXPECT_TRUE(client.Get("cp").found);
    }
    EXPECT_EQ(SpotcacheStat(client, "spotcache_served_primary"), kGets);
    const std::string scrape = Scrape(server.metrics_port());
    EXPECT_NE(scrape.find("\nresilience_served{rung=\"primary\"} " +
                          std::to_string(kGets) + "\n"),
              std::string::npos);
    client.Close();
    server.Stop();
    loop.join();
  }
}

// Shard 0 owns the only listener and round-robins accepted connections into
// its peers' hand-off queues; serving must be indistinguishable.
TEST(ShardedServer, DispatchFallbackServesAllShards) {
  ShardedServerConfig config = FourShardConfig();
  config.threads = 3;
  ShardedServer server(config);
  ASSERT_TRUE(server.Start());
  std::thread loop([&server] { server.Run(); });

  // Round-robin lands consecutive connections on distinct shards.
  std::vector<std::unique_ptr<NetClient>> clients;
  std::vector<long> shard_seen;
  for (int i = 0; i < 3; ++i) {
    clients.push_back(std::make_unique<NetClient>());
    ASSERT_TRUE(clients.back()->Connect("127.0.0.1", server.port()));
    const std::string key = "dsp:" + std::to_string(i);
    std::string value = "v";
    value += std::to_string(i);
    ASSERT_TRUE(clients.back()->Set(key, value));
    const auto got = clients.back()->Get(key);
    ASSERT_TRUE(got.found);
    EXPECT_EQ(got.value, value);
    shard_seen.push_back(SpotcacheStat(*clients.back(), "spotcache_shard"));
  }
  std::sort(shard_seen.begin(), shard_seen.end());
  EXPECT_EQ(shard_seen, (std::vector<long>{0, 1, 2}));

  for (auto& c : clients) {
    c->Close();
  }
  server.Stop();
  loop.join();
}

// Cross-shard command semantics under a controlled clock: multiget assembles
// in request order across partitions; flush_all's broadcast barrier empties
// every partition atomically with respect to the issuing connection.
TEST(ShardedServer, FlushAllAndMultigetSpanShards) {
  std::atomic<int64_t> now{kT0};
  ShardedServer server(FourShardConfig());
  server.SetClock([&now] { return now.load(); });
  ASSERT_TRUE(server.Start());
  std::thread loop([&server] { server.Run(); });

  {
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
    // Golden keys covering all four partitions (test_shard_partition.cc).
    const std::vector<std::string> keys = {"a", "b", "key", "spotcache"};
    EXPECT_EQ(ShardOfKey(keys[0], 4), 0u);
    EXPECT_EQ(ShardOfKey(keys[1], 4), 1u);
    EXPECT_EQ(ShardOfKey(keys[2], 4), 2u);
    EXPECT_EQ(ShardOfKey(keys[3], 4), 3u);
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_TRUE(client.Set(keys[i], "val" + std::to_string(i)));
    }
    // One request, four partitions, replies in request order.
    ASSERT_TRUE(client.SendRaw("get a b key spotcache\r\n"));
    for (size_t i = 0; i < keys.size(); ++i) {
      const auto header = client.ReadLine();
      ASSERT_TRUE(header.has_value());
      EXPECT_EQ(header->rfind("VALUE " + keys[i] + " ", 0), 0u) << *header;
      const auto data = client.ReadLine();
      ASSERT_TRUE(data.has_value());
      EXPECT_EQ(*data, "val" + std::to_string(i));
    }
    EXPECT_EQ(client.ReadLine().value_or(""), "END");

    now += 10;  // past the stores, so the flush point covers them
    EXPECT_TRUE(client.FlushAll());
    for (const auto& key : keys) {
      EXPECT_FALSE(client.Get(key).found) << key;
    }
    // Partitions serve again after the flush.
    EXPECT_TRUE(client.Set("post", "flush"));
    EXPECT_TRUE(client.Get("post").found);
    client.Close();
  }
  server.Stop();
  loop.join();

  const CoreSnapshot total = server.TotalSnapshot();
  EXPECT_EQ(total.curr_items, 1u);
  EXPECT_EQ(total.cmd_flush, 1u);
}

// Many reactors writing and reading the same keys at once. Connections land
// on distinct reactors round-robin, so every partition is written from
// several threads while `stats` and `flush_all` sweep all of them. Values
// describe themselves (key, writer, sequence, and a fill whose length and
// byte follow from those), so a torn or misrouted value cannot pass. A watchdog aborts the run if it stalls: a lock-order deadlock
// between reactors would otherwise hang the suite instead of failing it.
TEST(ShardedServer, SharedKeysStayWholeAcrossReactors) {
  ShardedServer server(FourShardConfig());
  ASSERT_TRUE(server.Start());
  std::thread loop([&server] { server.Run(); });

  std::atomic<bool> finished{false};
  std::thread watchdog([&finished] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    while (!finished.load()) {
      if (std::chrono::steady_clock::now() > deadline) {
        std::fprintf(stderr, "SharedKeysStayWholeAcrossReactors: no progress "
                             "within 120 s (deadlock?)\n");
        std::abort();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });

  // Shared keys whose owners span every partition.
  constexpr int kKeys = 16;
  std::vector<std::string> keys;
  std::vector<bool> owner_seen(4, false);
  for (int k = 0; k < kKeys; ++k) {
    std::string key = "shared:";
    key += std::to_string(k);
    owner_seen[ShardOfKey(key, 4)] = true;
    keys.push_back(std::move(key));
  }
  ASSERT_EQ(std::count(owner_seen.begin(), owner_seen.end(), true), 4);

  constexpr int kWriters = 4;
  constexpr int kBatches = 40;
  constexpr int kSetsPerBatch = 16;
  const auto fill_of = [](int w, int seq) {
    return static_cast<char>('a' + (w * 7 + seq) % 26);
  };
  const auto value_of = [&](const std::string& key, int w, int seq) {
    std::string v = key;
    v += '|';
    v += std::to_string(w);
    v += '|';
    v += std::to_string(seq);
    v += '|';
    v.append(static_cast<size_t>(40 + (seq * 131) % 1500), fill_of(w, seq));
    return v;
  };
  // True when `v` is exactly what some writer stored under `key`.
  const auto whole = [&](const std::string& key, const std::string& v) {
    const size_t a = v.find('|');
    const size_t b = a == std::string::npos ? a : v.find('|', a + 1);
    const size_t c = b == std::string::npos ? b : v.find('|', b + 1);
    if (c == std::string::npos || v.compare(0, a, key) != 0) {
      return false;
    }
    const int w = std::atoi(v.c_str() + a + 1);
    const int seq = std::atoi(v.c_str() + b + 1);
    return w >= 0 && w < kWriters && seq >= 0 &&
           seq < kBatches * kSetsPerBatch && v == value_of(key, w, seq);
  };

  std::atomic<uint64_t> sets_sent{0};
  std::atomic<int> writers_left{kWriters};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> hits_checked{0};
  std::vector<std::thread> clients;
  // Writers: pipelined batches of sets, so one recv carries many keys for
  // every partition.
  for (int w = 0; w < kWriters; ++w) {
    clients.emplace_back([&, w] {
      NetClient client;
      if (!client.Connect("127.0.0.1", server.port())) {
        ++failures;
        writers_left.fetch_sub(1);
        return;
      }
      int seq = 0;
      for (int b = 0; b < kBatches; ++b) {
        std::string wire;
        for (int i = 0; i < kSetsPerBatch; ++i, ++seq) {
          const std::string& key = keys[(seq * 5 + w) % kKeys];
          const std::string v = value_of(key, w, seq);
          wire += "set ";
          wire += key;
          wire += " 0 0 ";
          wire += std::to_string(v.size());
          wire += "\r\n";
          wire += v;
          wire += "\r\n";
        }
        if (!client.SendRaw(wire)) {
          ++failures;
          break;
        }
        sets_sent.fetch_add(kSetsPerBatch);
        for (int i = 0; i < kSetsPerBatch; ++i) {
          if (client.ReadLine() != "STORED") {
            ++failures;
          }
        }
      }
      client.Close();
      writers_left.fetch_sub(1);
    });
  }
  // Readers: one multiget over every shared key, repeated while writers run.
  std::string multiget = "get";
  for (const std::string& key : keys) {
    multiget += ' ';
    multiget += key;
  }
  multiget += "\r\n";
  for (int r = 0; r < 2; ++r) {
    clients.emplace_back([&] {
      NetClient client;
      if (!client.Connect("127.0.0.1", server.port())) {
        ++failures;
        return;
      }
      while (writers_left.load() > 0) {
        if (!client.SendRaw(multiget)) {
          ++failures;
          return;
        }
        for (;;) {
          const auto header = client.ReadLine();
          if (!header.has_value()) {
            ++failures;
            return;
          }
          if (*header == "END") {
            break;
          }
          // VALUE <key> <flags> <bytes>
          char key[64] = {0};
          unsigned flags = 0;
          size_t bytes = 0;
          if (std::sscanf(header->c_str(), "VALUE %63s %u %zu", key, &flags,
                          &bytes) != 3) {
            ++failures;
            return;
          }
          const auto data = client.ReadBytes(bytes + 2);
          if (!data.has_value()) {
            ++failures;
            return;
          }
          if (!whole(key, data->substr(0, bytes)) ||
              data->compare(bytes, 2, "\r\n") != 0) {
            ++failures;
          }
          ++hits_checked;
        }
      }
      client.Close();
    });
  }
  // Whole-server sweeps racing the writers: stats and flush_all.
  clients.emplace_back([&] {
    NetClient client;
    if (!client.Connect("127.0.0.1", server.port())) {
      ++failures;
      return;
    }
    while (writers_left.load() > 0) {
      if (!client.Stats().has_value()) {
        ++failures;
        return;
      }
    }
    client.Close();
  });
  clients.emplace_back([&] {
    NetClient client;
    if (!client.Connect("127.0.0.1", server.port())) {
      ++failures;
      return;
    }
    while (writers_left.load() > 0) {
      if (!client.FlushAll(0)) {
        ++failures;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    client.Close();
  });
  for (auto& t : clients) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(hits_checked.load(), 0u);
  EXPECT_EQ(sets_sent.load(),
            static_cast<uint64_t>(kWriters * kBatches * kSetsPerBatch));

  // Every set sent was counted once, whichever reactor served it.
  {
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
    const auto stats = client.Stats();
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(std::stoull(stats->at("cmd_set")), sets_sent.load());
    client.Close();
  }
  server.Stop();
  loop.join();
  finished.store(true);
  watchdog.join();
}


// --- One count, two surfaces. -----------------------------------------------
//
// `stats` and the scrape must report every count they share with the same
// value: after a scripted mix of hits, misses, sheds and protocol errors, each
// `stats` line whose scrape series exists reads equal, at one and two shards
// and through the proxy with a dead upstream.

/// Requests one exercise of every server count: stores, hits, misses (a key
/// the model still holds but the store deleted), touches, sheds (keys the
/// model never saw, under an admission gate that refuses every backend read),
/// protocol errors and a flush.
constexpr char kServerScript[] =
    "set k1 0 0 2\r\nv1\r\n"
    "set k2 0 0 2\r\nv2\r\n"
    "set k3 0 0 2\r\nv3\r\n"
    "add k1 0 0 2\r\nzz\r\n"
    "get k1\r\n"
    "gets k1 k2 k3\r\n"
    "delete k3\r\n"
    "delete never\r\n"
    "get k3\r\n"
    "get k1 k3 k2\r\n"
    "touch k2 0\r\n"
    "touch never 0\r\n"
    "get unseen1\r\n"
    "get k1 unseen2 k2\r\n"
    "bogus\r\n"
    "set k4 0 0 notanumber\r\n"
    "get\r\n"
    "flush_all\r\n";

/// Compares every numeric `stats` line with the scrape series that `scrape_of`
/// names for it, where that series exists. Returns the stat names compared.
std::vector<std::string> ExpectStatsMatchScrape(
    const std::map<std::string, std::string>& stats, const std::string& scrape,
    const std::function<std::string(const std::string&)>& scrape_of) {
  std::vector<std::string> compared;
  for (const auto& [name, value] : stats) {
    const long scraped = PromValue(scrape, scrape_of(name));
    if (scraped < 0) {
      continue;
    }
    EXPECT_EQ(std::atol(value.c_str()), scraped)
        << name << " vs " << scrape_of(name);
    compared.push_back(name);
  }
  return compared;
}

bool Contains(const std::vector<std::string>& names, const std::string& n) {
  return std::find(names.begin(), names.end(), n) != names.end();
}

TEST(CountAgreement, ServerStatsEqualScrapeAtOneAndTwoShards) {
  for (const uint32_t threads : {1u, 2u}) {
    SCOPED_TRACE(threads);
    Obs obs;
    SpotCacheSystem::Config sys;
    sys.obs = &obs;
    sys.resilience.enabled = true;
    // Every backend read is refused: a key the model has not cached sheds.
    sys.resilience.admission.backend_capacity_ops = 1.0;
    sys.resilience.admission.shed_budget = 1.0;
    SpotCacheSystem system(sys);
    system.AdvanceSlot(100e3, 10.0);

    ShardedServerConfig config;
    config.base.port = 0;
    config.base.metrics_port = 0;
    config.threads = threads;  // at 2, the two connections land on two shards
    ShardedServer server(config, &system, &obs);
    server.SetClock([] { return kT0; });
    ASSERT_TRUE(server.Start());
    std::thread loop([&server] { server.Run(); });

    NetClient a;
    NetClient b;
    ASSERT_TRUE(a.Connect("127.0.0.1", server.port()));
    ASSERT_TRUE(b.Connect("127.0.0.1", server.port()));
    for (NetClient* c : {&a, &b}) {
      const auto reply = c->RoundTripRaw(kServerScript);
      ASSERT_TRUE(reply.has_value());
      EXPECT_NE(reply->find("SERVER_ERROR temporarily overloaded"),
                std::string::npos);
    }
    const auto stats = a.Stats();
    ASSERT_TRUE(stats.has_value());
    const std::string scrape = Scrape(server.metrics_port());

    EXPECT_GT(std::atol(stats->at("get_hits").c_str()), 0);
    EXPECT_GT(std::atol(stats->at("get_misses").c_str()), 0);
    EXPECT_GT(std::atol(stats->at("sheds").c_str()), 0);
    EXPECT_GT(std::atol(stats->at("protocol_errors").c_str()), 0);
    const std::vector<std::string> compared = ExpectStatsMatchScrape(
        *stats, scrape, [](const std::string& name) {
          return name == "cmd_set" ? std::string("net_sets") : "net_" + name;
        });
    for (const char* name :
         {"cmd_set", "get_hits", "get_misses", "sheds", "protocol_errors"}) {
      EXPECT_TRUE(Contains(compared, name)) << name << " has no series";
    }
    // The control-plane ladder counted the same sheds the server refused.
    EXPECT_EQ(SpotcacheStat(a, "spotcache_served_shed"),
              PromValue(scrape, "resilience_served{rung=\"shed\"}"));
    EXPECT_EQ(SpotcacheStat(a, "spotcache_served_shed"),
              std::atol(stats->at("sheds").c_str()));
    a.Close();
    b.Close();
    server.Stop();
    loop.join();
  }
}

TEST(CountAgreement, ProxyStatsEqualScrapeWithADeadUpstream) {
  // One live upstream and one slot whose port refuses connections, no
  // backup: keys homed on the dead slot shed on get and find no rung on
  // write.
  NetServer upstream((NetServerConfig()));
  upstream.SetClock([] { return kT0; });
  ASSERT_TRUE(upstream.Start());
  std::thread upstream_loop([&upstream] { upstream.Run(); });
  uint16_t refused = 0;
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    ::close(fd);
    refused = ntohs(addr.sin_port);
  }

  Obs obs;
  proxy::ProxyCore core(proxy::ProxyCoreConfig{}, &obs);
  core.pool().SetNode(0, "127.0.0.1", upstream.port());
  core.pool().SetNode(1, "127.0.0.1", refused);
  std::vector<std::string> live;
  std::vector<std::string> dead;
  for (int i = 0; live.size() < 3 || dead.size() < 3; ++i) {
    const std::string key = "pk" + std::to_string(i);
    (core.pool().OwnerOf(key) == 0u ? live : dead).push_back(key);
  }

  NetServerConfig proxy_config;
  proxy_config.metrics_port = 0;
  NetServer proxy(proxy_config, /*system=*/nullptr, &obs);
  proxy.SetHandler(&core);
  proxy.SetClock([] { return kT0; });
  ASSERT_TRUE(proxy.Start());
  std::thread proxy_loop([&proxy] { proxy.Run(); });

  std::string script;
  for (const std::string& k : live) {
    script += "set " + k + " 0 0 1\r\nv\r\n";
  }
  for (const std::string& k : dead) {
    script += "set " + k + " 0 0 1\r\nv\r\n";
  }
  script += "get " + live[0] + " " + dead[0] + " " + live[1] + "\r\n";
  script += "get never " + dead[1] + "\r\n";
  script += "delete " + live[2] + "\r\n";
  script += "delete " + dead[2] + "\r\n";
  script += "get " + live[2] + "\r\n";
  script += "touch " + live[0] + " 0\r\n";
  script += "bogus\r\n";
  script += "get\r\n";
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", proxy.port()));
  const auto reply = client.RoundTripRaw(script);
  ASSERT_TRUE(reply.has_value());
  EXPECT_NE(reply->find("SERVER_ERROR proxy upstream unavailable"),
            std::string::npos);
  const auto stats = client.Stats();
  ASSERT_TRUE(stats.has_value());
  const std::string scrape = Scrape(proxy.metrics_port());

  EXPECT_GT(std::atol(stats->at("proxy_sheds").c_str()), 0);
  EXPECT_GT(std::atol(stats->at("proxy_set_failures").c_str()), 0);
  EXPECT_GT(std::atol(stats->at("proxy_get_hits").c_str()), 0);
  EXPECT_GT(std::atol(stats->at("proxy_get_misses").c_str()), 0);
  const std::vector<std::string> compared = ExpectStatsMatchScrape(
      *stats, scrape, [](const std::string& name) { return name; });
  for (const char* name :
       {"proxy_get_hits", "proxy_get_misses", "proxy_sheds", "proxy_sets",
        "proxy_absorbed_failures", "proxy_protocol_errors"}) {
    EXPECT_TRUE(Contains(compared, name)) << name << " has no series";
  }
  client.Close();
  proxy.Stop();
  proxy_loop.join();
  upstream.Stop();
  upstream_loop.join();
}

// `net_bytes_out` counts cache replies only: scrapes served before a script
// add nothing to it.
TEST(CountAgreement, BytesOutCountsOnlyCacheReplies) {
  for (const uint32_t threads : {1u, 2u}) {
    SCOPED_TRACE(threads);
    ShardedServerConfig config;
    config.base.port = 0;
    config.base.metrics_port = 0;
    config.threads = threads;
    ShardedServer server(config);
    server.SetClock([] { return kT0; });
    ASSERT_TRUE(server.Start());
    std::thread loop([&server] { server.Run(); });

    for (int i = 0; i < 3; ++i) {
      EXPECT_NE(Scrape(server.metrics_port()).find("HTTP/1.0 200 OK"),
                std::string::npos);
    }
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
    const auto reply = client.RoundTripRaw(
        "set b1 0 0 5\r\nhello\r\nget b1 b2\r\nbogus\r\ndelete b1\r\n");
    ASSERT_TRUE(reply.has_value());
    const std::string scrape = Scrape(server.metrics_port());
    // The reply bytes plus the sentinel's "VERSION <v>\r\n".
    const std::string sentinel = "VERSION spotcache-1.6.0\r\n";
    EXPECT_EQ(PromValue(scrape, "net_bytes_out"),
              static_cast<long>(reply->size() + sentinel.size()));
    client.Close();
    server.Stop();
    loop.join();
  }
}

}  // namespace
}  // namespace spotcache::net
