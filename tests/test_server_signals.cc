// spotcache_server signal handling: SIGUSR1 dumps the flight recorder + a
// live metrics snapshot without interrupting service; SIGTERM still shuts
// down cleanly (exit 0, artifacts written). Every case runs at --threads=1
// and --threads=2, so the dump, the final --metrics file and the live scrape
// all go through the one merged render. Drives the real binary — the path to
// it arrives as argv[1] (wired by CMake via $<TARGET_FILE:spotcache_server>);
// the test skips if it's absent.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/net/client.h"

namespace spotcache {
namespace {

std::string g_server_bin;  // set from argv[1] in main() below

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return "";
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// A spotcache_server child process with stdout captured for the readiness
/// lines.
class ServerProcess {
 public:
  explicit ServerProcess(std::vector<std::string> extra_args) {
    int out_pipe[2];
    if (::pipe(out_pipe) != 0) {
      return;
    }
    pid_ = ::fork();
    if (pid_ == 0) {
      ::dup2(out_pipe[1], STDOUT_FILENO);
      ::close(out_pipe[0]);
      ::close(out_pipe[1]);
      std::vector<std::string> args = {g_server_bin, "--port=0"};
      for (std::string& a : extra_args) {
        args.push_back(std::move(a));
      }
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& a : args) {
        argv.push_back(a.data());
      }
      argv.push_back(nullptr);
      ::execv(g_server_bin.c_str(), argv.data());
      std::perror("execv");
      ::_exit(127);
    }
    ::close(out_pipe[1]);
    stdout_fd_ = out_pipe[0];
  }

  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
    if (stdout_fd_ >= 0) {
      ::close(stdout_fd_);
    }
  }

  pid_t pid() const { return pid_; }

  /// Reads stdout until `needle` appears; returns everything read so far.
  std::string ReadUntil(const std::string& needle) {
    char buf[512];
    while (stdout_.find(needle) == std::string::npos) {
      const ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
      if (n <= 0) {
        break;
      }
      stdout_.append(buf, static_cast<size_t>(n));
    }
    return stdout_;
  }

  /// Parses "<prefix> <port>" from the captured stdout.
  uint16_t PortAfter(const std::string& prefix) {
    const size_t pos = stdout_.find(prefix);
    if (pos == std::string::npos) {
      return 0;
    }
    return static_cast<uint16_t>(
        std::atoi(stdout_.c_str() + pos + prefix.size()));
  }

  /// SIGTERM + waitpid; returns the exit status (-1 on abnormal death).
  int Terminate() {
    if (pid_ <= 0) {
      return -1;
    }
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    const pid_t done = pid_;
    pid_ = -1;
    (void)done;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::string stdout_;
};

/// Parameter: the server's --threads.
class ServerSignalsTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    if (g_server_bin.empty()) {
      GTEST_SKIP() << "spotcache_server binary path not provided";
    }
  }

  std::string ThreadsFlag() const {
    return "--threads=" + std::to_string(GetParam());
  }
};

TEST_P(ServerSignalsTest, Usr1DumpsWithoutStoppingThenTermExitsClean) {
  char dir[] = "/tmp/spotcache_signals_XXXXXX";
  ASSERT_NE(::mkdtemp(dir), nullptr);
  const std::string spans = std::string(dir) + "/spans.jsonl";
  const std::string metrics = std::string(dir) + "/metrics.prom";

  ServerProcess server({ThreadsFlag(), "--spans=" + spans,
                        "--metrics=" + metrics, "--span-sample=1",
                        "--latency-sample=1", "--slow-us=-1"});
  ASSERT_GT(server.pid(), 0);
  server.ReadUntil("listening ");
  const uint16_t port = server.PortAfter("listening ");
  ASSERT_NE(port, 0);

  net::NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port));
  ASSERT_TRUE(client.Set("key", "value"));
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(client.Get("key").found);
  }

  // SIGUSR1: both dump files appear while the server keeps serving.
  ASSERT_EQ(::kill(server.pid(), SIGUSR1), 0);
  std::string span_content;
  std::string metrics_content;
  for (int i = 0; i < 500; ++i) {
    span_content = ReadFileOrEmpty(spans);
    metrics_content = ReadFileOrEmpty(metrics);
    if (!span_content.empty() && !metrics_content.empty()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(span_content.find("\"type\":\"request_span\""),
            std::string::npos);
  EXPECT_NE(metrics_content.find("net_requests"), std::string::npos);

  // Still alive and serving after the dump.
  EXPECT_TRUE(client.Get("key").found);
  // SIGHUP triggers the same dump path (no crash, still serving).
  ASSERT_EQ(::kill(server.pid(), SIGHUP), 0);
  EXPECT_TRUE(client.Get("key").found);
  client.Close();

  // Clean shutdown: exit 0 and the final artifacts are (re)written.
  EXPECT_EQ(server.Terminate(), 0);
  EXPECT_NE(ReadFileOrEmpty(spans).find("request_span"), std::string::npos);
  EXPECT_NE(ReadFileOrEmpty(metrics).find("net_requests"),
            std::string::npos);

  ::unlink(spans.c_str());
  ::unlink(metrics.c_str());
  ::rmdir(dir);
}

TEST_P(ServerSignalsTest, MetricsPortServesLiveScrape) {
  ServerProcess server({ThreadsFlag(), "--metrics-port=0"});
  ASSERT_GT(server.pid(), 0);
  server.ReadUntil("metrics listening ");
  const uint16_t port = server.PortAfter("listening ");
  const uint16_t mport = server.PortAfter("metrics listening ");
  ASSERT_NE(port, 0);
  ASSERT_NE(mport, 0);

  net::NetClient cache;
  ASSERT_TRUE(cache.Connect("127.0.0.1", port));
  ASSERT_TRUE(cache.Set("k", "v"));

  net::NetClient scraper;  // raw HTTP over the text-client's socket helpers
  ASSERT_TRUE(scraper.Connect("127.0.0.1", mport));
  ASSERT_TRUE(scraper.SendRaw("GET /metrics HTTP/1.0\r\n\r\n"));
  const auto status = scraper.ReadLine();
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(*status, "HTTP/1.0 200 OK");
  std::string body;
  for (;;) {
    const auto line = scraper.ReadLine();
    if (!line.has_value()) {
      break;  // connection closed after the document
    }
    body += *line;
    body += '\n';
  }
  EXPECT_NE(body.find("net_requests"), std::string::npos);
  // Only a multi-shard scrape reports its shard count; one shard reads as
  // the plain server always did.
  EXPECT_EQ(body.find("obs_shards 2\n") != std::string::npos,
            GetParam() == 2);
  scraper.Close();
  cache.Close();
  EXPECT_EQ(server.Terminate(), 0);
}

INSTANTIATE_TEST_SUITE_P(Threads, ServerSignalsTest, ::testing::Values(1, 2));

}  // namespace
}  // namespace spotcache

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (argc > 1) {
    spotcache::g_server_bin = argv[1];
  }
  return RUN_ALL_TESTS();
}
