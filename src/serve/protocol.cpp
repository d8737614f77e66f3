#include "serve/protocol.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/serialize.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "obs/solver_health.h"

namespace viaduct::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Pending-connection backlog of every listener.
constexpr int kListenBacklog = 64;

int remainingMs(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  if (left <= 0) return 0;
  if (left > 1000) return 1000;  // cap so EINTR storms still make progress
  return static_cast<int>(left);
}

/// Case-insensitive scan of the header block for "content-length: N".
/// Returns false on a malformed value; absent → *length = 0, true.
bool findContentLength(const std::string& head, std::size_t* length) {
  *length = 0;
  std::size_t pos = head.find("\r\n");
  while (pos != std::string::npos && pos + 2 < head.size()) {
    const std::size_t lineStart = pos + 2;
    const std::size_t lineEnd = head.find("\r\n", lineStart);
    const std::string line = head.substr(
        lineStart, lineEnd == std::string::npos ? std::string::npos
                                                : lineEnd - lineStart);
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos) {
      std::string name = line.substr(0, colon);
      for (char& c : name) c = static_cast<char>(std::tolower(c));
      if (name == "content-length") {
        std::size_t v = colon + 1;
        while (v < line.size() && (line[v] == ' ' || line[v] == '\t')) ++v;
        std::size_t e = line.size();
        while (e > v && (line[e - 1] == ' ' || line[e - 1] == '\t')) --e;
        const auto n = parseIntToken(std::string_view(line).substr(v, e - v));
        if (!n || *n < 0) return false;
        *length = static_cast<std::size_t>(*n);
        return true;
      }
    }
    pos = lineEnd;
  }
  return true;
}

}  // namespace

bool sendAll(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;  // e.g. a profiler's SIGPROF
    if (n <= 0) return false;  // peer went away; nothing to recover
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void writeHttpResponse(int fd, const char* status,
                       const std::string& contentType,
                       const std::string& body) {
  std::string head = "HTTP/1.1 ";
  head += status;
  head += "\r\nContent-Type: " + contentType;
  head += "\r\nContent-Length: " + std::to_string(body.size());
  head += "\r\nConnection: close\r\n\r\n";
  if (!sendAll(fd, head.data(), head.size())) return;
  sendAll(fd, body.data(), body.size());
}

ReadResult readHttpRequest(int fd, HttpRequest* out, int timeoutMs,
                           std::size_t maxBytes) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeoutMs);
  std::string buffer;
  char chunk[2048];

  // Phase 1: read until the end of the header block.
  std::size_t headEnd = std::string::npos;
  while ((headEnd = buffer.find("\r\n\r\n")) == std::string::npos) {
    if (buffer.size() >= maxBytes) return ReadResult::kTooLarge;
    const int waitMs = remainingMs(deadline);
    if (waitMs == 0) return ReadResult::kTimeout;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, waitMs);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;  // poll timeout slice; deadline re-checked above
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;  // interrupted, not closed
    if (n <= 0) return ReadResult::kClosed;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }

  const std::string head = buffer.substr(0, headEnd + 2);
  const std::size_t lineEnd = head.find("\r\n");
  const std::string line = head.substr(0, lineEnd);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos)
    return ReadResult::kMalformed;
  out->method = line.substr(0, sp1);
  out->path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (out->method.empty() || out->path.empty() || out->path[0] != '/')
    return ReadResult::kMalformed;

  std::size_t contentLength = 0;
  if (!findContentLength(head, &contentLength)) return ReadResult::kMalformed;
  if (contentLength > maxBytes) return ReadResult::kTooLarge;

  // Phase 2: read the Content-Length framed body.
  out->body = buffer.substr(headEnd + 4);
  while (out->body.size() < contentLength) {
    const int waitMs = remainingMs(deadline);
    if (waitMs == 0) return ReadResult::kTimeout;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, waitMs);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return ReadResult::kClosed;
    out->body.append(chunk, static_cast<std::size_t>(n));
  }
  out->body.resize(contentLength);  // drop pipelined bytes; one request per conn
  return ReadResult::kOk;
}

bool parseHostPort(const std::string& spec, std::string* host, int* port) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon + 1 >= spec.size()) return false;
  *host = spec.substr(0, colon);
  if (host->empty()) *host = "127.0.0.1";
  if (*host == "localhost") *host = "127.0.0.1";
  const auto p = parseIntToken(std::string_view(spec).substr(colon + 1));
  if (!p || *p < 0 || *p > 65535) return false;
  *port = static_cast<int>(*p);
  return true;
}

std::unique_ptr<HttpListener> HttpListener::start(const std::string& hostPort,
                                                 AcceptHandler onAccept,
                                                 std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error) *error = why;
    return nullptr;
  };

  std::string host;
  int port = 0;
  if (!parseHostPort(hostPort, &host, &port))
    return fail("cannot parse '" + hostPort + "' (expected HOST:PORT)");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    return fail("cannot parse host '" + host + "' (numeric IPv4 or localhost)");

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return fail("socket() failed: " + std::string(strerror(errno)));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string why = strerror(errno);
    ::close(fd);
    return fail("cannot bind " + hostPort + ": " + why);
  }
  if (::listen(fd, kListenBacklog) != 0) {
    const std::string why = strerror(errno);
    ::close(fd);
    return fail("listen() failed: " + why);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);

  auto listener = std::unique_ptr<HttpListener>(new HttpListener());
  listener->fd_ = fd;
  listener->host_ = host;
  listener->port_ = static_cast<int>(ntohs(bound.sin_port));
  listener->onAccept_ = std::move(onAccept);
  listener->thread_ = std::thread([l = listener.get()] { l->acceptLoop(); });
  return listener;
}

HttpListener::~HttpListener() { stop(); }

void HttpListener::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::string HttpListener::endpoint() const {
  return "http://" + host_ + ":" + std::to_string(port_);
}

void HttpListener::acceptLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    // Timeout or EINTR (a signal landing mid-poll): re-check stop and go
    // around; a transient accept failure (including EINTR) likewise.
    if (ready <= 0) continue;
    const int conn = ::accept(fd_, nullptr, nullptr);
    if (conn < 0) continue;
    onAccept_(conn);
  }
}

bool writeTelemetryResponse(int fd, const std::string& path) {
  if (path == "/metrics") {
    writeHttpResponse(fd, "200 OK", obs::openMetricsContentType(),
                      obs::openMetricsText());
  } else if (path == "/metrics.json") {
    writeHttpResponse(fd, "200 OK", "application/json", obs::snapshotJson());
  } else if (path == "/debug/solves") {
    writeHttpResponse(fd, "200 OK", "application/json",
                      obs::solveTracesJson());
  } else if (path == "/healthz" || path == "/") {
    writeHttpResponse(fd, "200 OK", "text/plain", "ok\n");
  } else {
    return false;
  }
  return true;
}

std::unique_ptr<HttpListener> startTelemetryListener(
    const std::string& hostPort, std::string* error) {
  const auto serveOne = [](int fd) {
    // Only the request line matters (there is no body): 2 KiB / 2 s bound.
    HttpRequest request;
    const ReadResult read =
        readHttpRequest(fd, &request, /*timeoutMs=*/2000, /*maxBytes=*/2048);
    if (read == ReadResult::kOk) {
      if (request.method != "GET")
        writeHttpResponse(fd, "405 Method Not Allowed", "text/plain",
                          "only GET is supported\n");
      else if (!writeTelemetryResponse(fd, request.path))
        writeHttpResponse(
            fd, "404 Not Found", "text/plain",
            "try /metrics, /metrics.json, /debug/solves, /healthz\n");
    } else if (read != ReadResult::kClosed) {
      writeHttpResponse(fd, "400 Bad Request", "text/plain", "bad request\n");
    }
    ::close(fd);
  };
  return HttpListener::start(hostPort, serveOne, error);
}

std::optional<HttpResponse> httpRequest(const std::string& host, int port,
                                        const std::string& method,
                                        const std::string& path,
                                        const std::string& body,
                                        int timeoutMs) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return std::nullopt;
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    ::close(fd);
    return std::nullopt;
  }

  std::string request = method + " " + path + " HTTP/1.1\r\n";
  request += "Host: " + host + "\r\n";
  if (!body.empty() || method == "POST")
    request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  request += "Connection: close\r\n\r\n";
  request += body;
  if (!sendAll(fd, request.data(), request.size())) {
    ::close(fd);
    return std::nullopt;
  }

  const auto deadline = Clock::now() + std::chrono::milliseconds(timeoutMs);
  std::string response;
  char chunk[4096];
  while (true) {
    const int waitMs = remainingMs(deadline);
    if (waitMs == 0) break;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, waitMs);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // Connection: close — EOF terminates the response
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);

  // "HTTP/1.1 NNN ..." — the three-digit status starts after the first space.
  const std::size_t sp = response.find(' ');
  if (sp == std::string::npos || sp + 4 > response.size()) return std::nullopt;
  const auto status = parseIntToken(std::string_view(response).substr(sp + 1, 3));
  if (!status) return std::nullopt;
  HttpResponse out;
  out.status = static_cast<int>(*status);
  const std::size_t blank = response.find("\r\n\r\n");
  if (blank != std::string::npos) out.body = response.substr(blank + 4);
  return out;
}

}  // namespace viaduct::serve
