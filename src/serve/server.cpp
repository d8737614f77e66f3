#include "serve/server.h"

#include <unistd.h>

#include <chrono>
#include <exception>
#include <string_view>

#include "common/units.h"
#include "core/analyzer.h"
#include "obs/obs.h"
#include "spice/generator.h"
#include "viaarray/characterize.h"
#include "viaarray/primitive_store.h"

namespace viaduct::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Latency buckets: 100 µs .. ~100 s, exponential.
const std::vector<double>& latencyBuckets() {
  static const std::vector<double> buckets =
      obs::Buckets::exponential(1e-4, 2.0, 21);
  return buckets;
}

std::string errorFields(const std::string& message) {
  JsonObjectWriter w;
  w.add("status", "error").add("error", message);
  return w.str().substr(1, w.str().size() - 2);  // inner fields only
}

/// A complete error response body: {"status":"error","error":message}.
std::string errorBody(const std::string& message) {
  return JsonObjectWriter().add("status", "error").add("error", message).str() +
         "\n";
}

/// Reads an integer field with a default; false (and *err set) on a
/// non-integer value.
bool readInt(const JsonObject& o, const std::string& key, int fallback,
             int* out, std::string* err) {
  *out = fallback;
  const auto it = o.find(key);
  if (it == o.end()) return true;
  if (!it->second.isNumber() ||
      it->second.number != static_cast<double>(static_cast<long long>(
                               it->second.number))) {
    *err = "field '" + key + "' must be an integer";
    return false;
  }
  *out = static_cast<int>(it->second.number);
  return true;
}

bool readString(const JsonObject& o, const std::string& key,
                const std::string& fallback, std::string* out,
                std::string* err) {
  *out = fallback;
  const auto it = o.find(key);
  if (it == o.end()) return true;
  if (!it->second.isString()) {
    *err = "field '" + key + "' must be a string";
    return false;
  }
  *out = it->second.str;
  return true;
}

bool readDouble(const JsonObject& o, const std::string& key, double fallback,
                double* out, std::string* err) {
  *out = fallback;
  const auto it = o.find(key);
  if (it == o.end()) return true;
  if (!it->second.isNumber()) {
    *err = "field '" + key + "' must be a number";
    return false;
  }
  *out = it->second.number;
  return true;
}

/// Rejects unknown fields so client typos ("trails": 500) fail loudly
/// instead of silently running the default.
bool onlyKnownFields(const JsonObject& o,
                     std::initializer_list<const char*> known,
                     std::string* err) {
  for (const auto& [key, value] : o) {
    bool ok = false;
    for (const char* k : known)
      if (key == k) ok = true;
    if (!ok) {
      *err = "unknown field '" + key + "'";
      return false;
    }
  }
  return true;
}

}  // namespace

std::unique_ptr<ViaductServer> ViaductServer::start(const ServerConfig& config,
                                                    std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error) *error = why;
    return nullptr;
  };
  if (config.workers < 1) return fail("workers must be >= 1");
  if (config.queueLimit < 1) return fail("queue-limit must be >= 1");

  auto server = std::unique_ptr<ViaductServer>(new ViaductServer());
  server->config_ = config;
  server->library_ = openViaArrayLibrary(config.cachePath);
  if (!config.primitiveStorePath.empty())
    server->primitiveStore_ =
        std::make_shared<StressPrimitiveStore>(config.primitiveStorePath);

  server->workers_.reserve(static_cast<std::size_t>(config.workers));
  for (int i = 0; i < config.workers; ++i)
    server->workers_.emplace_back([s = server.get()] { s->workerLoop(); });
  server->http_ = HttpListener::start(
      config.listen, [s = server.get()](int fd) { s->admitConnection(fd); },
      error);
  if (!server->http_) return nullptr;  // the destructor joins the workers
  return server;
}

ViaductServer::~ViaductServer() { drainAndStop(); }

void ViaductServer::beginDrain() {
  draining_.store(true, std::memory_order_relaxed);
}

void ViaductServer::drainAndStop() {
  if (stopped_) return;
  stopped_ = true;
  beginDrain();
  // Stop admitting first so the queue can only shrink, then wait for it
  // to empty and every worker to go idle — no accepted request is dropped.
  if (http_) http_->stop();
  {
    std::unique_lock<std::mutex> lock(queueMutex_);
    drainedCv_.wait(lock, [&] { return queue_.empty() && busyWorkers_ == 0; });
    stopping_ = true;
  }
  queueCv_.notify_all();
  for (auto& w : workers_)
    if (w.joinable()) w.join();
}

ViaductServer::Stats ViaductServer::stats() const {
  Stats s;
  s.requestsTotal = requestsTotal_.load(std::memory_order_relaxed);
  s.deduped = deduped_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.executed = executed_.load(std::memory_order_relaxed);
  return s;
}

void ViaductServer::admitConnection(int fd) {
  if (draining_.load(std::memory_order_relaxed)) {
    writeHttpResponse(fd, "503 Service Unavailable", "application/json",
                      errorBody("draining"));
    ::close(fd);
    return;
  }
  bool admitted = false;
  {
    std::lock_guard<std::mutex> lock(queueMutex_);
    admitted = queue_.size() < static_cast<std::size_t>(config_.queueLimit);
    if (admitted) queue_.push_back(fd);
  }
  if (admitted) {
    queueCv_.notify_one();
    return;
  }
  // Admission control: reject immediately rather than queue without
  // bound — the client can back off and retry.
  rejected_.fetch_add(1, std::memory_order_relaxed);
  VIADUCT_COUNTER_ADD("serve.rejected", 1);
  writeHttpResponse(fd, "429 Too Many Requests", "application/json",
                    errorBody("queue full, retry later"));
  ::close(fd);
}

void ViaductServer::workerLoop() {
  while (true) {
    int fd = -1;
    int inflight = 0;
    {
      std::unique_lock<std::mutex> lock(queueMutex_);
      queueCv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      fd = queue_.front();
      queue_.pop_front();
      inflight = ++busyWorkers_;
    }
    VIADUCT_GAUGE_SET("serve.inflight", inflight);
    try {
      handleConnection(fd);
    } catch (...) {
      // A handler bug must not take the worker down; the connection is
      // simply closed (the client sees a reset instead of a response).
      errors_.fetch_add(1, std::memory_order_relaxed);
    }
    ::close(fd);
    {
      std::lock_guard<std::mutex> lock(queueMutex_);
      inflight = --busyWorkers_;
    }
    VIADUCT_GAUGE_SET("serve.inflight", inflight);
    drainedCv_.notify_all();
  }
}

ViaductServer::SharedOutcome ViaductServer::dedupedExecute(
    const std::string& key, std::function<Outcome()> execute, bool* deduped) {
  *deduped = false;
  std::promise<SharedOutcome> promise;
  std::shared_future<SharedOutcome> theirs;
  {
    std::lock_guard<std::mutex> lock(inflightMutex_);
    const auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      theirs = it->second;
    } else {
      inflight_.emplace(key, promise.get_future().share());
    }
  }
  if (theirs.valid()) {
    *deduped = true;
    deduped_.fetch_add(1, std::memory_order_relaxed);
    VIADUCT_COUNTER_ADD("serve.deduped", 1);
    return theirs.get();
  }

  executed_.fetch_add(1, std::memory_order_relaxed);
  VIADUCT_COUNTER_ADD("serve.executed", 1);
  SharedOutcome outcome;
  try {
    outcome = std::make_shared<const Outcome>(execute());
  } catch (const std::exception& e) {
    outcome = std::make_shared<const Outcome>(Outcome{
        500, "application/json", errorFields(e.what())});
  } catch (...) {
    outcome = std::make_shared<const Outcome>(Outcome{
        500, "application/json", errorFields("unknown execution failure")});
  }
  {
    std::lock_guard<std::mutex> lock(inflightMutex_);
    inflight_.erase(key);
  }
  // Publish AFTER erasing: a late joiner either found the future (gets
  // this outcome) or missed it (re-executes — correct, just not shared).
  promise.set_value(outcome);
  return outcome;
}

ViaductServer::Outcome ViaductServer::handleCharacterize(
    const JsonObject& request, bool* deduped) {
  std::string err;
  int n = 4, trials = 500, seed = -1;
  std::string pattern, criterion;
  if (!onlyKnownFields(request,
                       {"n", "pattern", "trials", "criterion", "seed"}, &err) ||
      !readInt(request, "n", 4, &n, &err) ||
      !readInt(request, "trials", 500, &trials, &err) ||
      !readInt(request, "seed", -1, &seed, &err) ||
      !readString(request, "pattern", "Plus", &pattern, &err) ||
      !readString(request, "criterion", "open", &criterion, &err))
    return {400, "application/json", errorFields(err)};

  // Admission: bound the work one request may ask for.
  if (n < 1 || n > config_.maxN)
    return {400, "application/json",
            errorFields("n must be in [1, " + std::to_string(config_.maxN) +
                        "]")};
  if (trials < 1 || trials > config_.maxTrials)
    return {400, "application/json",
            errorFields("trials must be in [1, " +
                        std::to_string(config_.maxTrials) + "]")};
  const auto crit = ViaArrayFailureCriterion::parse(criterion);
  if (!crit)
    return {400, "application/json",
            errorFields("bad criterion '" + criterion +
                        "' (open, weakest, <k>, or <r>x)")};

  const auto pat = parseIntersectionPattern(pattern);
  if (!pat)
    return {400, "application/json",
            errorFields("bad pattern '" + pattern + "' (Plus, T, or L)")};

  ViaArrayCharacterizationSpec spec;
  spec.array.n = n;
  spec.trials = trials;
  if (seed >= 0) spec.seed = static_cast<std::uint64_t>(seed);
  spec.pattern = *pat;
  spec.parallelism = config_.parallelism;
  spec.policy = config_.policy;
  spec.primitiveStore = primitiveStore_;

  const std::string key = "characterize|" + spec.cacheKey() + "|crit=" +
                          crit->describe();
  return *dedupedExecute(
      key,
      [&]() -> Outcome {
        if (config_.debugExecuteDelayMs > 0)
          std::this_thread::sleep_for(
              std::chrono::milliseconds(config_.debugExecuteDelayMs));
        ViaArrayLibrary::GetInfo info;
        auto ch = library_->get(spec, &info);
        const auto cdf = ch->ttfCdf(*crit);
        const auto fit = ch->ttfLognormal(*crit);
        JsonObjectWriter w;
        w.add("status", "ok")
            .addInt("n", n)
            .add("pattern", pattern)
            .add("criterion", crit->describe())
            .addInt("trials", trials)
            .addNumber("medianYears", cdf.median() / units::year)
            .addNumber("worstCaseYears", cdf.worstCase() / units::year)
            .addNumber("mu", fit.mu())
            .addNumber("sigma", fit.sigma())
            .addBool("memoryHit", info.memoryHit)
            .addBool("joinedInFlight", info.joinedInFlight);
        const std::string body = w.str();
        return {200, "application/json", body.substr(1, body.size() - 2)};
      },
      deduped);
}

ViaductServer::Outcome ViaductServer::handleAnalyze(const JsonObject& request,
                                                    bool* deduped) {
  std::string err;
  int viaN = 4, trials = 300, charTrials = 300;
  double tuneIr = 0.06;
  std::string preset, arrayCrit, systemCrit;
  if (!onlyKnownFields(request,
                       {"preset", "viaN", "trials", "charTrials",
                        "arrayCriterion", "systemCriterion", "tuneIr"},
                       &err) ||
      !readInt(request, "viaN", 4, &viaN, &err) ||
      !readInt(request, "trials", 300, &trials, &err) ||
      !readInt(request, "charTrials", 300, &charTrials, &err) ||
      !readDouble(request, "tuneIr", 0.06, &tuneIr, &err) ||
      !readString(request, "preset", "PG1", &preset, &err) ||
      !readString(request, "arrayCriterion", "open", &arrayCrit, &err) ||
      !readString(request, "systemCriterion", "ir", &systemCrit, &err))
    return {400, "application/json", errorFields(err)};

  const auto pg = parsePgPreset(preset);
  if (!pg)
    return {400, "application/json",
            errorFields("bad preset '" + preset + "' (PG1, PG2, or PG5)")};
  if (viaN < 1 || viaN > config_.maxN)
    return {400, "application/json",
            errorFields("viaN must be in [1, " + std::to_string(config_.maxN) +
                        "]")};
  if (trials < 1 || trials > config_.maxTrials || charTrials < 1 ||
      charTrials > config_.maxTrials)
    return {400, "application/json",
            errorFields("trials/charTrials must be in [1, " +
                        std::to_string(config_.maxTrials) + "]")};
  const auto ac = ViaArrayFailureCriterion::parse(arrayCrit);
  if (!ac)
    return {400, "application/json",
            errorFields("bad arrayCriterion '" + arrayCrit + "'")};
  const auto sc = GridFailureCriterion::parse(systemCrit);
  if (!sc)
    return {400, "application/json",
            errorFields("bad systemCriterion '" + systemCrit +
                        "' (ir or weakest)")};

  const std::string key = "analyze|preset=" + preset + "|viaN=" +
                          std::to_string(viaN) + "|trials=" +
                          std::to_string(trials) + "|charTrials=" +
                          std::to_string(charTrials) + "|ac=" +
                          ac->describe() + "|sc=" + systemCrit + "|tuneIr=" +
                          jsonNumber(tuneIr);
  return *dedupedExecute(
      key,
      [&]() -> Outcome {
        if (config_.debugExecuteDelayMs > 0)
          std::this_thread::sleep_for(
              std::chrono::milliseconds(config_.debugExecuteDelayMs));
        AnalyzerConfig config;
        config.viaArraySize = viaN;
        config.trials = trials;
        config.characterization.trials = charTrials;
        config.characterization.primitiveStore = primitiveStore_;
        config.tuneNominalIrDropFraction = tuneIr;
        config.parallelism = config_.parallelism;
        config.policy = config_.policy;
        // Shares library_, so this analyze's level-1 characterizations
        // dedupe against standalone characterize requests too.
        PowerGridEmAnalyzer analyzer(generatePgBenchmark(*pg), config,
                                     library_);
        const auto report = analyzer.analyze(*ac, *sc);
        JsonObjectWriter w;
        w.add("status", "ok")
            .add("preset", preset)
            .addInt("viaN", viaN)
            .addInt("trials", trials)
            .add("arrayCriterion", report.arrayCriterion)
            .add("systemCriterion", report.systemCriterion)
            .addNumber("worstCaseYears", report.worstCaseYears)
            .addNumber("medianYears", report.medianYears)
            .addNumber("meanFailuresToBreach", report.meanFailuresToBreach)
            .addInt("discardedTrials", report.discardedTrials)
            .addInt("salvagedTrials", report.salvagedTrials);
        const std::string body = w.str();
        return {200, "application/json", body.substr(1, body.size() - 2)};
      },
      deduped);
}

ViaductServer::Outcome ViaductServer::statsOutcome() const {
  const Stats s = stats();
  JsonObjectWriter w;
  w.add("status", "ok")
      .addInt("requestsTotal", static_cast<long long>(s.requestsTotal))
      .addInt("deduped", static_cast<long long>(s.deduped))
      .addInt("rejected", static_cast<long long>(s.rejected))
      .addInt("errors", static_cast<long long>(s.errors))
      .addInt("executed", static_cast<long long>(s.executed))
      .addInt("librarySize", static_cast<long long>(library_->size()))
      .addBool("draining", draining_.load(std::memory_order_relaxed));
  const std::string body = w.str();
  return {200, "application/json", body.substr(1, body.size() - 2)};
}

void ViaductServer::handleConnection(int fd) {
  HttpRequest request;
  const ReadResult read = readHttpRequest(fd, &request, config_.requestTimeoutMs,
                                          config_.maxRequestBytes);
  const auto sendError = [&](const char* status, const std::string& message) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    VIADUCT_COUNTER_ADD("serve.errors", 1);
    writeHttpResponse(fd, status, "application/json", errorBody(message));
  };
  switch (read) {
    case ReadResult::kOk: break;
    case ReadResult::kClosed: return;  // nothing to respond to
    case ReadResult::kTimeout:
      sendError("408 Request Timeout", "request read timed out");
      return;
    case ReadResult::kTooLarge:
      sendError("413 Content Too Large", "request too large");
      return;
    case ReadResult::kMalformed:
      sendError("400 Bad Request", "malformed HTTP request");
      return;
  }
  requestsTotal_.fetch_add(1, std::memory_order_relaxed);
  VIADUCT_COUNTER_ADD("serve.requests", 1);

  const auto started = Clock::now();
  const auto observeLatency = [&](const char* endpoint) {
    const double seconds =
        std::chrono::duration<double>(Clock::now() - started).count();
    if (std::string_view(endpoint) == "characterize")
      VIADUCT_HISTOGRAM_OBSERVE("serve.latency.characterize", seconds,
                                latencyBuckets());
    else if (std::string_view(endpoint) == "analyze")
      VIADUCT_HISTOGRAM_OBSERVE("serve.latency.analyze", seconds,
                                latencyBuckets());
    else
      VIADUCT_HISTOGRAM_OBSERVE("serve.latency.other", seconds,
                                latencyBuckets());
  };

  if (request.method == "GET") {
    if (request.path == "/v1/stats") {
      const Outcome outcome = statsOutcome();
      writeHttpResponse(fd, "200 OK", outcome.contentType,
                        "{" + outcome.bodyFields + "}\n");
    } else if (!writeTelemetryResponse(fd, request.path)) {
      sendError("404 Not Found",
                "try /healthz, /metrics, /metrics.json, /v1/stats, or POST "
                "/v1/characterize, /v1/analyze");
    }
    observeLatency("other");
    return;
  }
  if (request.method != "POST") {
    sendError("405 Method Not Allowed", "only GET and POST are supported");
    observeLatency("other");
    return;
  }

  const char* endpoint = request.path == "/v1/characterize" ? "characterize"
                         : request.path == "/v1/analyze"    ? "analyze"
                                                            : nullptr;
  if (endpoint == nullptr) {
    sendError("404 Not Found", "POST /v1/characterize or /v1/analyze");
    observeLatency("other");
    return;
  }
  const auto body = parseFlatObject(request.body.empty() ? "{}" : request.body);
  if (!body) {
    sendError("400 Bad Request",
              "body must be one flat JSON object of scalars");
    observeLatency(endpoint);
    return;
  }

  bool deduped = false;
  const Outcome outcome = std::string_view(endpoint) == "characterize"
                              ? handleCharacterize(*body, &deduped)
                              : handleAnalyze(*body, &deduped);
  const char* status = outcome.status == 200   ? "200 OK"
                       : outcome.status == 400 ? "400 Bad Request"
                                               : "500 Internal Server Error";
  if (outcome.status != 200) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    VIADUCT_COUNTER_ADD("serve.errors", 1);
  }
  // Per-requester rendering: the shared outcome fields plus THIS
  // requester's deduped flag.
  writeHttpResponse(fd, status, outcome.contentType,
                    "{" + outcome.bodyFields +
                        (deduped ? ",\"deduped\":true" : ",\"deduped\":false") +
                        "}\n");
  observeLatency(endpoint);
}

}  // namespace viaduct::serve
