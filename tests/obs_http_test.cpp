// Telemetry HTTP listener tests (serve::startTelemetryListener, the
// --obs-listen endpoint): serving valid OpenMetrics while a real grid
// Monte Carlo hammers the registry from pool workers, the JSON and
// solver-health endpoints, and the error paths (404/405, bad specs, busy
// ports). The client side is a raw blocking socket — the same thing curl
// does — so the test exercises the listener's actual HTTP framing.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "common/units.h"
#include "grid/grid_mc.h"
#include "obs/obs.h"
#include "serve/protocol.h"
#include "spice/generator.h"

namespace viaduct {
namespace {

class ObsHttpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::setEnabled(true);
    obs::resetAll();
  }
};

/// Blocking one-shot HTTP GET against 127.0.0.1:`port`. Returns the full
/// response (head + body), empty on connect failure. EINTR-hardened on
/// every syscall so it keeps working under the signal-storm test below.
std::string httpGet(int port, const std::string& path,
                    const char* method = "GET") {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = std::string(method) + " " + path +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST_F(ObsHttpTest, EphemeralPortAndHealthz) {
  std::string error;
  auto server = serve::startTelemetryListener("127.0.0.1:0", &error);
  ASSERT_NE(server, nullptr) << error;
  EXPECT_GT(server->port(), 0);
  const std::string response = httpGet(server->port(), "/healthz");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("ok"), std::string::npos);
}

TEST_F(ObsHttpTest, RejectsBadSpecAndBusyPort) {
  std::string error;
  EXPECT_EQ(serve::startTelemetryListener("no-port-here", &error), nullptr);
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(serve::startTelemetryListener("not an ip:80", &error), nullptr);
  // Trailing junk and hex must not parse as a port (a lenient stoi would
  // read these as 80 and as 0, the latter binding an ephemeral port).
  EXPECT_EQ(serve::startTelemetryListener("127.0.0.1:80x", &error), nullptr);
  EXPECT_EQ(serve::startTelemetryListener("127.0.0.1:0x50", &error), nullptr);

  auto first = serve::startTelemetryListener("127.0.0.1:0", &error);
  ASSERT_NE(first, nullptr);
  const std::string spec = "127.0.0.1:" + std::to_string(first->port());
  EXPECT_EQ(serve::startTelemetryListener(spec, &error), nullptr);
  EXPECT_NE(error.find("bind"), std::string::npos);
}

TEST_F(ObsHttpTest, NotFoundAndMethodNotAllowed) {
  std::string error;
  auto server = serve::startTelemetryListener("localhost:0", &error);
  ASSERT_NE(server, nullptr) << error;
  EXPECT_NE(httpGet(server->port(), "/nope").find("404"), std::string::npos);
  EXPECT_NE(httpGet(server->port(), "/metrics", "POST").find("405"),
            std::string::npos);
}

TEST_F(ObsHttpTest, ServesOpenMetricsDuringInFlightGridMc) {
  std::string error;
  auto server = serve::startTelemetryListener("127.0.0.1:0", &error);
  ASSERT_NE(server, nullptr) << error;

  // A real (small) grid Monte Carlo in the background: pool workers hammer
  // the sharded instruments while we scrape.
  GridGeneratorConfig cfg;
  cfg.stripesX = 8;
  cfg.stripesY = 8;
  cfg.padCount = 4;
  cfg.totalCurrentAmps = 1.0;
  cfg.seed = 11;
  Netlist netlist = generatePowerGrid(cfg);
  tuneNominalIrDrop(netlist, 0.06);
  const PowerGridModel model(netlist);
  GridMcOptions opts;
  opts.arrayTtf = Lognormal::fromMedian(8.0 * units::year, 0.4);
  opts.referenceCurrentAmps = 0.01;
  opts.trials = 300;
  opts.seed = 5;
  opts.parallelism.threads = 2;

  std::thread mc([&] { (void)runGridMonteCarlo(model, opts); });

  // Scrape repeatedly while the run is (likely) in flight. Every response
  // must be a complete, valid exposition regardless of timing.
  int validScrapes = 0;
  for (int i = 0; i < 10; ++i) {
    const std::string response = httpGet(server->port(), "/metrics");
    ASSERT_NE(response.find("200 OK"), std::string::npos);
    ASSERT_NE(response.find("application/openmetrics-text"),
              std::string::npos);
    const std::size_t bodyStart = response.find("\r\n\r\n");
    ASSERT_NE(bodyStart, std::string::npos);
    const std::string body = response.substr(bodyStart + 4);
    // Complete exposition: TYPE lines and the mandatory terminator.
    EXPECT_NE(body.find("# TYPE "), std::string::npos);
    ASSERT_GE(body.size(), 6u);
    EXPECT_EQ(body.substr(body.size() - 6), "# EOF\n");
    ++validScrapes;
  }
  mc.join();
  EXPECT_EQ(validScrapes, 10);

  // After the run, the scrape reflects the grid MC's own instruments.
  const std::string after = httpGet(server->port(), "/metrics");
  EXPECT_NE(after.find("viaduct_grid_mc_trials_per_second"),
            std::string::npos);
}

TEST_F(ObsHttpTest, ServesCompleteScrapesUnderSignalStorm) {
  // EINTR regression: a process-wide signal storm (SA_RESTART deliberately
  // OFF, so poll/accept/recv/send all get interrupted) must not truncate
  // or drop a single scrape. This is the profiler-SIGPROF scenario: without
  // the EINTR retries in serve/protocol.cpp, an interrupted send() drops
  // the rest of the response and an interrupted recv() drops the request.
  struct sigaction action{};
  struct sigaction previous{};
  action.sa_handler = [](int) {};
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // NO SA_RESTART: every slow syscall sees EINTR
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);

  std::string error;
  auto server = serve::startTelemetryListener("127.0.0.1:0", &error);
  ASSERT_NE(server, nullptr) << error;
  obs::Registry::instance().counter("http.storm.counter").add(7);

  std::atomic<bool> stopStorm{false};
  std::thread storm([&] {
    while (!stopStorm.load(std::memory_order_relaxed)) {
      ::kill(::getpid(), SIGUSR1);  // lands on an arbitrary unblocked thread
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  int complete = 0;
  for (int i = 0; i < 30; ++i) {
    const std::string response = httpGet(server->port(), "/metrics");
    if (response.empty()) continue;  // storm killed the connect; retry-free
    EXPECT_NE(response.find("200 OK"), std::string::npos);
    const std::size_t bodyStart = response.find("\r\n\r\n");
    ASSERT_NE(bodyStart, std::string::npos);
    const std::string body = response.substr(bodyStart + 4);
    ASSERT_GE(body.size(), 6u);
    // Completeness is the whole point: a truncated write loses the EOF.
    EXPECT_EQ(body.substr(body.size() - 6), "# EOF\n");
    EXPECT_NE(body.find("http_storm_counter"), std::string::npos);
    ++complete;
  }
  stopStorm.store(true);
  storm.join();
  ::sigaction(SIGUSR1, &previous, nullptr);
  EXPECT_GE(complete, 25) << "signal storm starved the scrape loop";
}

TEST_F(ObsHttpTest, JsonAndSolveTraceEndpoints) {
  std::string error;
  auto server = serve::startTelemetryListener("127.0.0.1:0", &error);
  ASSERT_NE(server, nullptr) << error;
  obs::Registry::instance().counter("http.test.counter").add(5);

  const std::string json = httpGet(server->port(), "/metrics.json");
  EXPECT_NE(json.find("200 OK"), std::string::npos);
  EXPECT_NE(json.find("application/json"), std::string::npos);
  EXPECT_NE(json.find("http.test.counter"), std::string::npos);

  const std::string solves = httpGet(server->port(), "/debug/solves");
  EXPECT_NE(solves.find("200 OK"), std::string::npos);
  EXPECT_NE(solves.find("viaduct-solve-traces-v1"), std::string::npos);
}

}  // namespace
}  // namespace viaduct
