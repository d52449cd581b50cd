//===--- Http.h - minimal HTTP/1.1 transport --------------------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dependency-free HTTP/1.1 slice the checkfenced daemon and the
/// remote client share: blocking POSIX-socket I/O, request/response
/// framing by Content-Length, `Connection: close` semantics (one request
/// per connection - verification requests are long-lived, so connection
/// reuse buys nothing and keeping the framing trivial buys a lot).
///
/// Deliberately not a general HTTP implementation: no chunked encoding,
/// no keep-alive, no TLS, header names case-folded to lowercase on read.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_SERVER_HTTP_H
#define CHECKFENCE_SERVER_HTTP_H

#include <map>
#include <string>

namespace checkfence {
namespace server {

/// The port checkfenced listens on by default (and the one URLs without
/// an explicit port resolve to). Kept in sync with ServerConfig::Port.
inline constexpr int ServerDefaultPort = 8417;

/// Seconds checkfenced waits for the next bytes of a request on an
/// accepted connection before dropping it, so a client that connects and
/// sends nothing can neither pin a connection thread nor stall a drain.
inline constexpr int ServerReadTimeoutSeconds = 5;

/// One parsed request. Header names are lowercased.
struct HttpRequest {
  std::string Method;
  std::string Path;
  std::map<std::string, std::string> Headers;
  std::string Body;
};

/// One response to send. Extra headers are emitted verbatim.
struct HttpResponse {
  int StatusCode = 200;
  std::string ContentType = "application/json";
  std::map<std::string, std::string> Headers;
  std::string Body;
};

/// Reads one request from \p Fd (blocking). False + \p Error on EOF,
/// malformed framing, or a body larger than the (generous) cap.
bool readHttpRequest(int Fd, HttpRequest &Out, std::string &Error);

/// Writes \p R to \p Fd with Content-Length and `Connection: close`.
bool writeHttpResponse(int Fd, const HttpResponse &R);

/// Result of a client-side call. Ok means a well-formed response
/// arrived - inspect StatusCode for the HTTP-level outcome.
struct HttpResult {
  bool Ok = false;
  std::string Error;
  int StatusCode = 0;
  std::map<std::string, std::string> Headers; ///< lowercased names
  std::string Body;
};

/// Splits "http://host:port" (scheme optional, default port 8417).
/// False + \p Error on anything else (https, userinfo, path suffix).
bool parseServerUrl(const std::string &Url, std::string &Host, int &Port,
                    std::string &Error);

/// One blocking request against \p Host:\p Port. \p ExtraHeaders are
/// complete "Name: value" lines without the trailing CRLF.
HttpResult httpRequest(const std::string &Host, int Port,
                       const std::string &Method, const std::string &Path,
                       const std::string &Body,
                       const std::map<std::string, std::string>
                           &ExtraHeaders = {});

} // namespace server
} // namespace checkfence

#endif // CHECKFENCE_SERVER_HTTP_H
