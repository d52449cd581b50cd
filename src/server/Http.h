//===--- Http.h - minimal HTTP/1.1 transport --------------------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dependency-free HTTP/1.1 slice the checkfenced daemon and the
/// remote client share: incremental framing by Content-Length, and
/// `Connection: close` semantics (one request per connection -
/// verification requests are long-lived, so connection reuse buys
/// nothing and keeping the framing trivial buys a lot).
///
/// Deliberately not a general HTTP implementation: no chunked encoding,
/// no keep-alive, no TLS, header names case-folded to lowercase on read.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_SERVER_HTTP_H
#define CHECKFENCE_SERVER_HTTP_H

#include <map>
#include <string>

#include <sys/types.h>

namespace checkfence {
namespace server {

/// The port checkfenced listens on by default (and the one URLs without
/// an explicit port resolve to). Kept in sync with ServerConfig::Port.
inline constexpr int ServerDefaultPort = 8417;

/// Seconds a checkfenced client may stall while it sends its request or
/// reads its response before the daemon drops it, so a silent client can
/// neither hold a connection nor stall a drain.
inline constexpr int ServerReadTimeoutSeconds = 5;

/// Frames one HTTP message - a start line, header lines and a
/// Content-Length body - from bytes as they arrive. The header block is
/// capped at 64 KiB and the body at 64 MiB.
class HttpFramer {
public:
  enum class Status { NeedMore, Complete, Malformed };

  /// Appends \p Size bytes. Complete fills StartLine, Headers and Body
  /// (bytes past the body are dropped); Malformed sets Error. Feed no
  /// more after either.
  Status feed(const char *Data, size_t Size);

  /// No byte has been fed yet.
  bool empty() const { return Buf.empty(); }

  std::string StartLine;
  std::map<std::string, std::string> Headers; ///< lowercased names
  std::string Body;
  std::string Error; ///< why the message is Malformed

private:
  std::string Buf;
  size_t HeaderEnd = std::string::npos; ///< offset of "\r\n\r\n"
  size_t Length = 0;                    ///< Content-Length
};

/// One response to send. Extra headers are emitted verbatim.
struct HttpResponse {
  int StatusCode = 200;
  std::string ContentType = "application/json";
  std::map<std::string, std::string> Headers;
  std::string Body;
};

/// \p R on the wire, with Content-Length and `Connection: close`.
std::string renderHttpResponse(const HttpResponse &R);

/// One send() on \p Fd that never raises SIGPIPE when the peer has gone
/// away; returns what send() returns.
ssize_t sendNoSignal(int Fd, const char *Data, size_t Size);

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
