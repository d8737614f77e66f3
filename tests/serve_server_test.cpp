// ViaductServer lifecycle tests: routing and error codes, concurrent
// duplicate-request dedup (exactly one execution via the debug
// execute-delay hook), admission control at the queue limit, and the
// drain contract — in-flight responses survive, new connections get 503.
// Kept small (tiny arrays, few trials) so the whole binary stays in test
// time, not characterization time.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "serve/protocol.h"

namespace viaduct::serve {
namespace {

constexpr const char* kTinyBody = "{\"n\":2,\"trials\":10,\"criterion\":\"open\"}";

std::optional<HttpResponse> post(const ViaductServer& server,
                                 const std::string& path,
                                 const std::string& body) {
  return httpRequest("127.0.0.1", server.port(), "POST", path, body);
}

std::optional<HttpResponse> get(const ViaductServer& server,
                                const std::string& path) {
  return httpRequest("127.0.0.1", server.port(), "GET", path, "");
}

std::unique_ptr<ViaductServer> startServer(ServerConfig config = {}) {
  obs::setEnabled(true);
  std::string error;
  auto server = ViaductServer::start(config, &error);
  EXPECT_NE(server, nullptr) << error;
  return server;
}

TEST(ServeServerTest, RoutesAndErrorCodes) {
  auto server = startServer();
  ASSERT_NE(server, nullptr);
  EXPECT_GT(server->port(), 0);

  const auto health = get(*server, "/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 200);

  const auto metrics = get(*server, "/metrics");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->status, 200);
  EXPECT_NE(metrics->body.find("# EOF"), std::string::npos);

  const auto json = get(*server, "/metrics.json");
  ASSERT_TRUE(json.has_value());
  EXPECT_EQ(json->status, 200);
  EXPECT_NE(json->body.find("viaduct-obs-v1"), std::string::npos);

  const auto solves = get(*server, "/debug/solves");
  ASSERT_TRUE(solves.has_value());
  EXPECT_EQ(solves->status, 200);
  EXPECT_NE(solves->body.find("viaduct-solve-traces-v1"), std::string::npos);

  const auto stats = get(*server, "/v1/stats");
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->status, 200);
  EXPECT_NE(stats->body.find("\"requestsTotal\""), std::string::npos);

  EXPECT_EQ(get(*server, "/nope")->status, 404);
  EXPECT_EQ(post(*server, "/v1/nope", "{}")->status, 404);
  EXPECT_EQ(httpRequest("127.0.0.1", server->port(), "DELETE", "/healthz", "")
                ->status,
            405);

  // Malformed / hostile bodies answer 400 without touching the solvers.
  EXPECT_EQ(post(*server, "/v1/characterize", "not json at all")->status, 400);
  EXPECT_EQ(post(*server, "/v1/characterize", "{\"n\": \"two\"}")->status, 400);
  EXPECT_EQ(post(*server, "/v1/characterize", "{\"typo\": 1}")->status, 400);
  EXPECT_EQ(post(*server, "/v1/characterize", "{\"n\": 999}")->status, 400);
  EXPECT_EQ(
      post(*server, "/v1/characterize", "{\"criterion\": \"sideways\"}")->status,
      400);
  EXPECT_EQ(post(*server, "/v1/analyze", "{\"preset\": \"PG9\"}")->status, 400);

  const auto after = get(*server, "/healthz");
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->status, 200) << "server unhealthy after abuse";
  EXPECT_EQ(server->stats().executed, 0u) << "bad requests must not execute";
}

TEST(ServeServerTest, CharacterizeExecutesAndMemoizes) {
  auto server = startServer();
  ASSERT_NE(server, nullptr);

  const auto first = post(*server, "/v1/characterize", kTinyBody);
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->status, 200) << first->body;
  EXPECT_NE(first->body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(first->body.find("\"memoryHit\":false"), std::string::npos);
  EXPECT_NE(first->body.find("\"medianYears\":"), std::string::npos);

  // Same spec again: served from the shared in-memory library.
  const auto second = post(*server, "/v1/characterize", kTinyBody);
  ASSERT_TRUE(second.has_value());
  ASSERT_EQ(second->status, 200);
  EXPECT_NE(second->body.find("\"memoryHit\":true"), std::string::npos);
  EXPECT_EQ(server->stats().executed, 2u);  // sequential, so no dedup join
  EXPECT_EQ(server->stats().deduped, 0u);
}

TEST(ServeServerTest, ConcurrentDuplicatesShareOneExecution) {
  ServerConfig config;
  config.workers = 4;
  config.queueLimit = 16;
  config.debugExecuteDelayMs = 250;  // guarantees the duplicates overlap
  auto server = startServer(config);
  ASSERT_NE(server, nullptr);

  constexpr int kClients = 4;
  std::vector<std::string> bodies(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i)
    threads.emplace_back([&, i] {
      const auto response = post(*server, "/v1/characterize", kTinyBody);
      if (response) bodies[static_cast<std::size_t>(i)] = response->body;
    });
  for (auto& t : threads) t.join();

  int ok = 0, dedupedFlags = 0;
  for (const auto& body : bodies) {
    if (body.find("\"status\":\"ok\"") != std::string::npos) ++ok;
    if (body.find("\"deduped\":true") != std::string::npos) ++dedupedFlags;
  }
  EXPECT_EQ(ok, kClients) << "every duplicate must get the full result";
  EXPECT_EQ(dedupedFlags, kClients - 1);
  EXPECT_EQ(server->stats().executed, 1u)
      << "duplicates must share one execution";
  EXPECT_EQ(server->stats().deduped, static_cast<std::uint64_t>(kClients - 1));
}

TEST(ServeServerTest, QueueLimitRejectsWith429) {
  ServerConfig config;
  config.workers = 1;
  config.queueLimit = 1;
  config.debugExecuteDelayMs = 300;  // pins the single worker
  auto server = startServer(config);
  ASSERT_NE(server, nullptr);

  constexpr int kClients = 6;
  std::vector<int> statuses(kClients, 0);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i)
    threads.emplace_back([&, i] {
      const auto response = post(*server, "/v1/characterize", kTinyBody);
      if (response) statuses[static_cast<std::size_t>(i)] = response->status;
    });
  for (auto& t : threads) t.join();

  int rejected = 0, served = 0;
  for (const int status : statuses) {
    if (status == 429) ++rejected;
    if (status == 200) ++served;
  }
  EXPECT_GE(served, 1) << "admitted requests must still be served";
  // A 429'd client can also see a reset mid-send (the server answers and
  // closes without reading), so gate on the server-side count.
  EXPECT_GE(server->stats().rejected, 1u)
      << "an overloaded server must shed load";
  EXPECT_GE(server->stats().rejected, static_cast<std::uint64_t>(rejected));
}

TEST(ServeServerTest, DrainPreservesInFlightAndRejectsNew) {
  ServerConfig config;
  config.workers = 2;
  config.debugExecuteDelayMs = 300;
  auto server = startServer(config);
  ASSERT_NE(server, nullptr);

  std::optional<HttpResponse> inflightResponse;
  std::thread inflight([&] {
    inflightResponse = post(*server, "/v1/characterize", kTinyBody);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  server->beginDrain();
  const auto turnedAway = get(*server, "/healthz");
  ASSERT_TRUE(turnedAway.has_value());
  EXPECT_EQ(turnedAway->status, 503);
  EXPECT_NE(turnedAway->body.find("draining"), std::string::npos);

  server->drainAndStop();
  inflight.join();
  ASSERT_TRUE(inflightResponse.has_value())
      << "drain dropped an in-flight response";
  EXPECT_EQ(inflightResponse->status, 200);
  EXPECT_NE(inflightResponse->body.find("\"status\":\"ok\""),
            std::string::npos);
}

TEST(ServeServerTest, StartRejectsBadConfig) {
  std::string error;
  ServerConfig config;
  config.listen = "nonsense";
  EXPECT_EQ(ViaductServer::start(config, &error), nullptr);
  EXPECT_FALSE(error.empty());
  config = {};
  config.workers = 0;
  EXPECT_EQ(ViaductServer::start(config, &error), nullptr);
}

}  // namespace
}  // namespace viaduct::serve
