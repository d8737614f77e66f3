// viaduct::serve — characterization-as-a-service daemon core.
//
// A ViaductServer turns the one-shot CLI flows (characterize, analyze)
// into a long-running service so many clients share ONE in-memory
// characterization library, ONE stress-primitive store, and the level-1
// base-factor prototypes inside each shared characterizer — the
// per-technology one-time cost (§5.1) is paid once per daemon, not once
// per invocation.
//
// Request lifecycle (DESIGN.md §5.13): parse → admit → dedupe → execute
// → respond.
//   parse    HTTP framing (protocol.h) + flat-JSON body (json.h); bad
//            requests get 400/408/413 without touching the solvers.
//   admit    a bounded connection queue in front of a fixed worker pool;
//            at capacity new requests are rejected immediately with 429
//            (counter serve.rejected) instead of queuing unboundedly.
//   dedupe   concurrent requests that resolve to the same work key share
//            one execution: the first runs, later arrivals block on its
//            shared_future and get the same outcome (serve.deduped).
//            This stacks on ViaArrayLibrary's own in-flight dedup, which
//            also catches an analyze joining a characterize's level-1 work.
//   execute  under the configured FailurePolicy; an execution failure is
//            a 500 for every requester joined to it, never a crash.
//   respond  per-requester rendering (the shared outcome plus this
//            requester's own deduped flag).
//
// Drain: beginDrain() stops admitting (new connections get 503) while
// queued and in-flight requests complete; drainAndStop() additionally
// waits for them and joins all threads. SIGTERM handling lives in the
// daemon main (tools/viaduct_server.cpp), not here.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "fault/policy.h"
#include "serve/json.h"
#include "serve/protocol.h"

namespace viaduct {
class ViaArrayLibrary;
class StressPrimitiveStore;
}  // namespace viaduct

namespace viaduct::serve {

struct ServerConfig {
  /// HOST:PORT; port 0 picks an ephemeral port (read it back via port()).
  std::string listen = "127.0.0.1:0";

  /// Worker threads handling requests (>= 1). Each worker runs solver
  /// work with `parallelism` threads, so total CPU is workers × threads.
  int workers = 2;

  /// Admission control: connections queued beyond this are rejected with
  /// 429 instead of waiting (bounds worst-case latency and memory).
  int queueLimit = 16;

  /// Per-request wall-clock budget for *reading* the request (slowloris
  /// guard) — execution time is not bounded by this.
  int requestTimeoutMs = 5000;

  /// Maximum request size (head + body).
  std::size_t maxRequestBytes = 64 * 1024;

  /// Admission limits on the work a single request may ask for.
  int maxN = 16;
  int maxTrials = 5000;

  /// Solver threading for request execution (0 = hardware concurrency).
  Parallelism parallelism;

  /// Failure policy threaded into characterization/analysis (retry
  /// ladders, salvage/discard, cache-corruption recovery).
  fault::FailurePolicy policy;

  /// On-disk characterization store shared by all requests ("" = memory
  /// only). Same format as viaduct_cli --cache.
  std::string cachePath;

  /// On-disk FEA stress-primitive store ("" = none); a warm store serves
  /// characterize requests with zero FEA solves.
  std::string primitiveStorePath;

  /// TEST HOOK: hold each characterize execution for this long while its
  /// key is registered in flight, so tests can overlap duplicate requests
  /// deterministically. 0 in production.
  int debugExecuteDelayMs = 0;
};

class ViaductServer {
 public:
  /// Binds, listens, and spawns the listener + worker threads. Returns
  /// nullptr with *error set on failure.
  static std::unique_ptr<ViaductServer> start(const ServerConfig& config,
                                              std::string* error);

  /// Drains and stops (idempotent).
  ~ViaductServer();

  int port() const { return http_->port(); }
  std::string endpoint() const { return http_->endpoint(); }

  /// Stop admitting new requests (503) while existing work completes.
  void beginDrain();

  /// beginDrain() + wait for queued and in-flight requests to finish,
  /// then join every thread. No in-flight response is lost.
  void drainAndStop();

  /// Lifetime counters (also exported as obs serve.* metrics).
  struct Stats {
    std::uint64_t requestsTotal = 0;  // parsed HTTP requests
    std::uint64_t deduped = 0;        // requests served by joining in-flight work
    std::uint64_t rejected = 0;       // 429 admission rejections
    std::uint64_t errors = 0;         // 4xx/5xx responses (excluding 429)
    std::uint64_t executed = 0;       // work executions actually run
  };
  Stats stats() const;

 private:
  ViaductServer() = default;

  /// One shared work outcome, rendered per-requester in respond().
  struct Outcome {
    int status = 200;              // HTTP status for every joined requester
    std::string contentType = "application/json";
    /// Inner field list of the response JSON object (no braces); the
    /// per-requester "deduped" flag is appended at respond time.
    std::string bodyFields;
  };
  using SharedOutcome = std::shared_ptr<const Outcome>;

  /// The listener's accept handler: 503 while draining, 429 when the
  /// queue is full, otherwise queue the fd for a worker.
  void admitConnection(int fd);
  void workerLoop();
  void handleConnection(int fd);

  /// Dedup-or-execute: returns the outcome for `key`, setting *deduped
  /// when this caller joined an execution already in flight.
  SharedOutcome dedupedExecute(const std::string& key,
                               std::function<Outcome()> execute,
                               bool* deduped);

  Outcome handleCharacterize(const JsonObject& request, bool* deduped);
  Outcome handleAnalyze(const JsonObject& request, bool* deduped);
  Outcome statsOutcome() const;

  ServerConfig config_;

  std::unique_ptr<HttpListener> http_;
  std::vector<std::thread> workers_;

  std::mutex queueMutex_;
  std::condition_variable queueCv_;      // workers wait for fds
  std::condition_variable drainedCv_;    // drainAndStop waits for quiescence
  std::deque<int> queue_;
  int busyWorkers_ = 0;
  bool stopping_ = false;                // workers exit once queue empties

  std::atomic<bool> draining_{false};

  std::mutex inflightMutex_;
  std::map<std::string, std::shared_future<SharedOutcome>> inflight_;

  std::shared_ptr<ViaArrayLibrary> library_;
  std::shared_ptr<StressPrimitiveStore> primitiveStore_;

  std::atomic<std::uint64_t> requestsTotal_{0};
  std::atomic<std::uint64_t> deduped_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> executed_{0};

  bool stopped_ = false;  // drainAndStop already ran
};

}  // namespace viaduct::serve
