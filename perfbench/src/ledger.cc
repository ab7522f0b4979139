// The offline ledger: the workload's seeded op stream replayed through each
// layer's public functions, one layer at a time, in this process. Each
// figure is the median over kChunks equal chunks of the stream, so one
// preempted chunk does not move it.

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "perfbench/src/layers.h"
#include "perfbench/src/measure.h"
#include "src/loadgen/op_stream.h"
#include "src/net/item_store.h"
#include "src/net/protocol.h"
#include "src/net/reply_reader.h"
#include "src/net/response.h"
#include "src/net/server_core.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using spotcache::loadgen::Op;
using spotcache::loadgen::OpKind;

constexpr size_t kOps = 200'000;
constexpr size_t kChunks = 5;
constexpr size_t kFeedBytes = 16 * 1024;  // one recv()'s worth
constexpr int64_t kNow = 1'700'000'000;

/// Keeps timed results observable so the calls are not optimized away.
volatile uint64_t g_sink = 0;

double NsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

std::string Key(uint64_t id) { return "lg:" + std::to_string(id); }

/// The wire bytes of `ops[begin, end)`, as the load generator sends them.
std::string Serialize(const std::vector<Op>& ops, size_t begin, size_t end,
                      const std::string& value) {
  std::string wire;
  for (size_t i = begin; i < end; ++i) {
    const Op& op = ops[i];
    if (op.kind == OpKind::kGet) {
      wire += "get " + Key(op.key) + "\r\n";
    } else {
      wire += "set " + Key(op.key) + " 0 0 " + std::to_string(op.value_len) +
              "\r\n";
      wire.append(value.data(), op.value_len);
      wire += "\r\n";
    }
  }
  return wire;
}

/// Feeds `wire` to a fresh parser in recv-sized pieces and hands every
/// parsed request to `on_request`; returns the requests parsed.
template <typename OnRequest>
size_t ParseAll(const std::string& wire, OnRequest&& on_request) {
  spotcache::net::RequestParser parser;
  size_t n = 0;
  for (size_t pos = 0; pos < wire.size(); pos += kFeedBytes) {
    parser.Feed(std::string_view(wire).substr(pos, kFeedBytes));
    for (;;) {
      const auto st = parser.Next();
      if (st == spotcache::net::ParseStatus::kNeedMore) {
        break;
      }
      if (st == spotcache::net::ParseStatus::kRequest) {
        on_request(parser.request());
      }
      ++n;
    }
    on_request.flush();
  }
  return n;
}

/// A no-op request sink (parse-only timing).
struct CountOnly {
  void operator()(const spotcache::net::TextRequest&) {}
  void flush() {}
};

/// Executes each request against a ServerCore; the replies of one feed are
/// assembled, optionally kept, then cleared (what one drain does).
struct Execute {
  spotcache::net::ServerCore* core;
  spotcache::net::ResponseAssembler out;
  std::string* keep = nullptr;
  void operator()(const spotcache::net::TextRequest& req) {
    core->Handle(req, kNow, &out);
  }
  void flush() {
    if (keep != nullptr) {
      *keep += out.Flatten();
    }
    out.Clear();
  }
};

}  // namespace

Values RunLedger(const Workload& w, uint64_t seed) {
  Values v;
  auto config = MakeEngineConfig(w, 0, w.rate_rps,
                                 1.2 * static_cast<double>(kOps) / w.rate_rps,
                                 seed);
  const std::vector<Op> ops = spotcache::loadgen::GenerateOps(config.stream, kOps);
  const size_t chunk = ops.size() / kChunks;
  const std::string value(w.value_max, 'v');
  const size_t capacity =
      static_cast<size_t>(w.capacity_mb) * 1024 * 1024 /
      static_cast<size_t>(w.server_threads);

  // --- net: ItemStore. First, so this process's RSS growth is the store's.
  {
    std::vector<std::string> keys(w.num_keys);
    for (uint64_t k = 0; k < w.num_keys; ++k) {
      keys[k] = Key(k);
    }
    std::vector<std::string> op_keys;
    op_keys.reserve(ops.size());
    for (const Op& op : ops) {
      op_keys.push_back(Key(op.key));
    }
    const double rss0 = ReadSelfRssBytes();
    spotcache::net::ItemStore store(capacity);
    for (uint64_t k = 0; k < w.num_keys; ++k) {
      store.Set(keys[k], 0, 0,
                std::string_view(value.data(), ValueLenFor(w, k)), kNow);
    }
    v["net.store_bytes_per_item"] =
        (ReadSelfRssBytes() - rss0) / static_cast<double>(store.item_count());

    // Gets and sets of each 1024-op block are timed as two batches, so the
    // replay keeps the stream's interleaving at block granularity without a
    // clock read per op.
    std::vector<double> get_ns, set_ns;
    const uint64_t evictions0 = store.evictions();
    for (size_t c = 0; c < kChunks; ++c) {
      double gt = 0, st = 0;
      size_t gn = 0, sn = 0;
      for (size_t b = c * chunk; b < (c + 1) * chunk; b += 1024) {
        const size_t e = std::min(b + 1024, (c + 1) * chunk);
        auto t0 = Clock::now();
        for (size_t i = b; i < e; ++i) {
          if (ops[i].kind == OpKind::kGet) {
            store.Get(op_keys[i], kNow);
            ++gn;
          }
        }
        gt += NsSince(t0);
        t0 = Clock::now();
        for (size_t i = b; i < e; ++i) {
          if (ops[i].kind == OpKind::kSet) {
            store.Set(op_keys[i], 0, 0,
                      std::string_view(value.data(), ops[i].value_len), kNow);
            ++sn;
          }
        }
        st += NsSince(t0);
      }
      get_ns.push_back(gn ? gt / static_cast<double>(gn) : 0.0);
      set_ns.push_back(sn ? st / static_cast<double>(sn) : 0.0);
    }
    v["net.store_get_ns"] = Median(get_ns);
    v["net.store_set_ns"] = Median(set_ns);
    v["net.store_evictions_per_kop"] =
        static_cast<double>(store.evictions() - evictions0) * 1000.0 /
        static_cast<double>(chunk * kChunks);
  }

  // --- loadgen: OpGenerator::Next. ------------------------------------------
  {
    std::vector<double> ns;
    spotcache::loadgen::OpGenerator gen(config.stream);
    for (size_t c = 0; c < kChunks; ++c) {
      const auto t0 = Clock::now();
      uint64_t sink = 0;
      for (size_t i = 0; i < chunk; ++i) {
        sink += gen.Next()->key;
      }
      ns.push_back(NsSince(t0) / static_cast<double>(chunk));
      g_sink = sink;
    }
    v["loadgen.gen_ns_per_op"] = Median(ns);
  }

  // --- net: RequestParser, ServerCore::Handle, ReplyReader. -----------------
  std::vector<std::string> wires;
  for (size_t c = 0; c < kChunks; ++c) {
    wires.push_back(Serialize(ops, c * chunk, (c + 1) * chunk, value));
  }
  std::vector<double> parse_ns, exec_ns, reply_ns;
  spotcache::net::ServerCoreConfig core_config;
  core_config.capacity_bytes = capacity;
  spotcache::net::ServerCore core(core_config);
  {
    Execute fill{&core, {}, nullptr};
    std::string fill_wire;
    for (uint64_t k = 0; k < w.num_keys; ++k) {
      const uint32_t len = ValueLenFor(w, k);
      fill_wire += "set " + Key(k) + " 0 0 " + std::to_string(len) + "\r\n";
      fill_wire.append(value.data(), len);
      fill_wire += "\r\n";
    }
    ParseAll(fill_wire, fill);
  }
  for (size_t c = 0; c < kChunks; ++c) {
    auto t0 = Clock::now();
    const size_t n = ParseAll(wires[c], CountOnly{});
    parse_ns.push_back(NsSince(t0) / static_cast<double>(n));

    Execute exec{&core, {}, nullptr};
    t0 = Clock::now();
    ParseAll(wires[c], exec);
    exec_ns.push_back(NsSince(t0) / static_cast<double>(n));

    // The reply bytes for the reader, from a second, untimed pass.
    std::string replies;
    Execute record{&core, {}, &replies};
    ParseAll(wires[c], record);

    spotcache::net::ReplyReader reader;
    for (size_t i = c * chunk; i < (c + 1) * chunk; ++i) {
      reader.Push(ops[i].kind == OpKind::kGet
                      ? spotcache::net::ReplyReader::Expect::kRetrieval
                      : spotcache::net::ReplyReader::Expect::kLine);
    }
    size_t replied = 0;
    const spotcache::net::ReplyReader::Sink sink =
        [&replied](spotcache::net::ReplyReader::Status) { ++replied; };
    t0 = Clock::now();
    for (size_t pos = 0; pos < replies.size(); pos += kFeedBytes) {
      reader.Feed(std::string_view(replies).substr(pos, kFeedBytes), sink);
    }
    reply_ns.push_back(NsSince(t0) / static_cast<double>(std::max<size_t>(replied, 1)));
  }
  v["net.parse_ns_per_req"] = Median(parse_ns);
  v["net.handle_ns_per_req"] = Median(exec_ns) - Median(parse_ns);
  v["net.reply_ns_per_reply"] = Median(reply_ns);
  return v;
}

}  // namespace perfbench
