// viaduct::serve — the one HTTP/1.1 transport (listener, request framing,
// responses, a blocking client, the telemetry route table) behind both the
// viaduct_server daemon and the CLI's --obs-listen endpoint. Every slow
// syscall retries EINTR and every send handles partial writes, so a
// profiler's SIGPROF never drops a request or truncates a response.
//
// It speaks a minimal, dependency-free subset of HTTP/1.1:
//   - request line + headers + optional Content-Length body
//   - "Connection: close" responses, one request per connection
// This is deliberately the smallest protocol that curl, python urllib,
// and a load generator can all speak without a client library.
// IPv4 only; port 0 in a listen spec binds an ephemeral port.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>

namespace viaduct::serve {

struct HttpRequest {
  std::string method;  // "GET", "POST", ...
  std::string path;    // "/v1/characterize"
  std::string body;    // raw bytes (Content-Length framed)
};

enum class ReadResult {
  kOk,         // a full request was framed
  kClosed,     // peer closed before a full request arrived
  kTimeout,    // deadline elapsed (slow client / slowloris)
  kTooLarge,   // head or body exceeded maxBytes
  kMalformed,  // unparseable request line or Content-Length
};

/// Reads one HTTP request from `fd` with an overall deadline. Retries
/// EINTR on poll/recv; never blocks past `timeoutMs` total.
ReadResult readHttpRequest(int fd, HttpRequest* out, int timeoutMs,
                           std::size_t maxBytes);

/// send() loop that retries EINTR and partial writes; returns false if the
/// peer went away (any other error). Uses MSG_NOSIGNAL so a dead peer is
/// an error return, not SIGPIPE.
bool sendAll(int fd, const char* data, std::size_t size);

/// Writes a complete "Connection: close" response. `status` like
/// "200 OK" or "429 Too Many Requests".
void writeHttpResponse(int fd, const char* status,
                       const std::string& contentType, const std::string& body);

/// "HOST:PORT" → parts ("", "localhost" → 127.0.0.1). False on bad input.
bool parseHostPort(const std::string& spec, std::string* host, int* port);

/// A bound listening socket plus one thread that accepts connections and
/// hands each accepted fd to `onAccept`, which owns it from then on (closes
/// it, or queues it for a worker that will). The accept loop polls with a
/// short timeout and retries EINTR, so stop() joins promptly.
class HttpListener {
 public:
  using AcceptHandler = std::function<void(int fd)>;

  /// Parses `hostPort`, binds, listens, and starts the accept thread.
  /// Returns nullptr and fills `error` when the spec does not parse or the
  /// socket cannot be bound.
  static std::unique_ptr<HttpListener> start(const std::string& hostPort,
                                             AcceptHandler onAccept,
                                             std::string* error = nullptr);

  ~HttpListener();
  HttpListener(const HttpListener&) = delete;
  HttpListener& operator=(const HttpListener&) = delete;

  /// Joins the accept thread and closes the socket (idempotent). No
  /// handler call is running or will start once this returns.
  void stop();

  /// The bound port (the actual one when the spec asked for port 0).
  int port() const { return port_; }
  /// "http://HOST:PORT" for log lines.
  std::string endpoint() const;

 private:
  HttpListener() = default;
  void acceptLoop();

  int fd_ = -1;
  int port_ = 0;
  std::string host_;
  AcceptHandler onAccept_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
};

/// The telemetry route table: answers /metrics (OpenMetrics), /metrics.json
/// (the --metrics-out snapshot), /debug/solves (solver-health traces) and
/// /healthz or / ("ok") and returns true; returns false, writing nothing,
/// for any other path. Rendering takes only shared registry locks, so a
/// scrape never blocks instrumented hot loops.
bool writeTelemetryResponse(int fd, const std::string& path);

/// The CLI's telemetry listener: serves each GET on the accept thread (a
/// scrape is microseconds of work) through writeTelemetryResponse; other
/// methods get 405, other paths 404.
std::unique_ptr<HttpListener> startTelemetryListener(
    const std::string& hostPort, std::string* error = nullptr);

/// Blocking one-shot HTTP client for tests and the load generator:
/// connect, send, read the full response, close. Returns std::nullopt on
/// connect/IO failure; otherwise the raw response (head + body).
struct HttpResponse {
  int status = 0;       // parsed from the status line
  std::string body;     // bytes after the blank line
};
std::optional<HttpResponse> httpRequest(const std::string& host, int port,
                                        const std::string& method,
                                        const std::string& path,
                                        const std::string& body,
                                        int timeoutMs = 30000);

}  // namespace viaduct::serve
