//===--- Http.cpp - minimal HTTP/1.1 transport --------------------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "server/Http.h"

#include "support/Format.h"

#include <cctype>
#include <cstdlib>
#include <cstring>

#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace checkfence;
using namespace checkfence::server;

namespace {

/// A header block past this is refused. Nothing this protocol sends
/// comes near it, and it bounds the scan for the blank line.
constexpr size_t MaxHeaderBytes = 64u << 10;

/// Bodies beyond this are refused: requests are JSON-RPC envelopes
/// (source texts included), responses are rendered reports - 64 MiB is
/// far past anything legitimate and bounds a misbehaving peer.
constexpr size_t MaxBodyBytes = 64u << 20;

std::string lowered(std::string S) {
  for (char &C : S)
    C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
  return S;
}

std::string trimmed(const std::string &S) {
  size_t B = S.find_first_not_of(" \t");
  if (B == std::string::npos)
    return std::string();
  size_t E = S.find_last_not_of(" \t\r");
  return S.substr(B, E - B + 1);
}

/// Parses "NAME: value" header lines from [\p Begin, \p End) of \p Raw.
void parseHeaderLines(const std::string &Raw, size_t Begin, size_t End,
                      std::map<std::string, std::string> &Out) {
  size_t Pos = Begin;
  while (Pos < End) {
    size_t Eol = Raw.find("\r\n", Pos);
    if (Eol == std::string::npos || Eol > End)
      Eol = End;
    std::string Line = Raw.substr(Pos, Eol - Pos);
    Pos = Eol + 2;
    size_t Colon = Line.find(':');
    if (Colon == std::string::npos)
      continue;
    Out[lowered(trimmed(Line.substr(0, Colon)))] =
        trimmed(Line.substr(Colon + 1));
  }
}

bool sendAll(int Fd, const std::string &Data) {
  size_t Sent = 0;
  while (Sent < Data.size()) {
    ssize_t N = sendNoSignal(Fd, Data.data() + Sent, Data.size() - Sent);
    if (N <= 0)
      return false;
    Sent += static_cast<size_t>(N);
  }
  return true;
}

const char *reasonPhrase(int Code) {
  switch (Code) {
  case 200:
    return "OK";
  case 400:
    return "Bad Request";
  case 404:
    return "Not Found";
  case 405:
    return "Method Not Allowed";
  case 429:
    return "Too Many Requests";
  case 500:
    return "Internal Server Error";
  case 503:
    return "Service Unavailable";
  default:
    return "Response";
  }
}

/// Reads one framed message from \p Fd (blocking).
bool readFramed(int Fd, HttpFramer &F, std::string &Error) {
  char Chunk[16384];
  HttpFramer::Status S = HttpFramer::Status::NeedMore;
  while (S == HttpFramer::Status::NeedMore) {
    ssize_t N = ::recv(Fd, Chunk, sizeof Chunk, 0);
    if (N <= 0) {
      Error = "connection closed before the response was complete";
      return false;
    }
    S = F.feed(Chunk, static_cast<size_t>(N));
  }
  Error = F.Error;
  return S == HttpFramer::Status::Complete;
}

} // namespace

HttpFramer::Status HttpFramer::feed(const char *Data, size_t Size) {
  size_t Scanned = Buf.size();
  Buf.append(Data, Size);
  if (HeaderEnd == std::string::npos) {
    // Resume the search where the last chunk ended, less a partial
    // terminator, so a header block streamed in small pieces is scanned
    // once.
    HeaderEnd = Buf.find("\r\n\r\n", Scanned < 3 ? 0 : Scanned - 3);
    if (HeaderEnd == std::string::npos ? Buf.size() > MaxHeaderBytes
                                       : HeaderEnd > MaxHeaderBytes) {
      Error = "header block too large";
      return Status::Malformed;
    }
    if (HeaderEnd == std::string::npos)
      return Status::NeedMore;
    size_t FirstEol = Buf.find("\r\n");
    StartLine = Buf.substr(0, FirstEol);
    parseHeaderLines(Buf, FirstEol + 2, HeaderEnd, Headers);
    if (auto It = Headers.find("content-length"); It != Headers.end())
      Length = std::strtoull(It->second.c_str(), nullptr, 10);
    if (Length > MaxBodyBytes) {
      Error = "body too large";
      return Status::Malformed;
    }
  }
  size_t BodyStart = HeaderEnd + 4;
  if (Buf.size() < BodyStart + Length)
    return Status::NeedMore;
  Buf.erase(0, BodyStart);
  Buf.resize(Length);
  Body = std::move(Buf);
  return Status::Complete;
}

ssize_t checkfence::server::sendNoSignal(int Fd, const char *Data,
                                        size_t Size) {
#ifdef MSG_NOSIGNAL
  return ::send(Fd, Data, Size, MSG_NOSIGNAL);
#else
  return ::send(Fd, Data, Size, 0);
#endif
}

std::string checkfence::server::renderHttpResponse(const HttpResponse &R) {
  std::string Out = formatString("HTTP/1.1 %d %s\r\n", R.StatusCode,
                                 reasonPhrase(R.StatusCode));
  Out += "Content-Type: " + R.ContentType + "\r\n";
  Out += formatString("Content-Length: %zu\r\n", R.Body.size());
  for (const auto &[Name, Value] : R.Headers)
    Out += Name + ": " + Value + "\r\n";
  Out += "Connection: close\r\n\r\n";
  Out += R.Body;
  return Out;
}

bool checkfence::server::parseServerUrl(const std::string &Url,
                                        std::string &Host, int &Port,
                                        std::string &Error) {
  std::string Rest = Url;
  if (Rest.rfind("http://", 0) == 0) {
    Rest = Rest.substr(7);
  } else if (Rest.find("://") != std::string::npos) {
    Error = "only http:// URLs are supported";
    return false;
  }
  while (!Rest.empty() && Rest.back() == '/')
    Rest.pop_back();
  if (Rest.find('/') != std::string::npos) {
    Error = "server URLs cannot carry a path";
    return false;
  }
  size_t Colon = Rest.rfind(':');
  if (Colon == std::string::npos) {
    Host = Rest;
    Port = ServerDefaultPort;
  } else {
    Host = Rest.substr(0, Colon);
    Port = std::atoi(Rest.c_str() + Colon + 1);
  }
  if (Host.empty() || Port <= 0 || Port > 65535) {
    Error = "malformed server URL '" + Url + "'";
    return false;
  }
  return true;
}

HttpResult checkfence::server::httpRequest(
    const std::string &Host, int Port, const std::string &Method,
    const std::string &Path, const std::string &Body,
    const std::map<std::string, std::string> &ExtraHeaders) {
  HttpResult R;

  struct addrinfo Hints;
  std::memset(&Hints, 0, sizeof Hints);
  Hints.ai_family = AF_UNSPEC;
  Hints.ai_socktype = SOCK_STREAM;
  struct addrinfo *Addrs = nullptr;
  std::string PortStr = formatString("%d", Port);
  if (::getaddrinfo(Host.c_str(), PortStr.c_str(), &Hints, &Addrs) != 0 ||
      !Addrs) {
    R.Error = "cannot resolve host '" + Host + "'";
    return R;
  }
  int Fd = -1;
  for (struct addrinfo *A = Addrs; A; A = A->ai_next) {
    Fd = ::socket(A->ai_family, A->ai_socktype, A->ai_protocol);
    if (Fd < 0)
      continue;
    if (::connect(Fd, A->ai_addr, A->ai_addrlen) == 0)
      break;
    ::close(Fd);
    Fd = -1;
  }
  ::freeaddrinfo(Addrs);
  if (Fd < 0) {
    R.Error = formatString("cannot connect to %s:%d", Host.c_str(), Port);
    return R;
  }

  std::string Msg = Method + " " + Path + " HTTP/1.1\r\n";
  Msg += "Host: " + Host + "\r\n";
  Msg += formatString("Content-Length: %zu\r\n", Body.size());
  Msg += "Content-Type: application/json\r\n";
  for (const auto &[Name, Value] : ExtraHeaders)
    Msg += Name + ": " + Value + "\r\n";
  Msg += "Connection: close\r\n\r\n";
  Msg += Body;
  if (!sendAll(Fd, Msg)) {
    ::close(Fd);
    R.Error = "send failed";
    return R;
  }

  HttpFramer F;
  bool Read = readFramed(Fd, F, R.Error);
  ::close(Fd);
  if (!Read)
    return R;
  R.Headers = std::move(F.Headers);
  R.Body = std::move(F.Body);
  // "HTTP/1.1 200 OK"
  size_t Sp = F.StartLine.find(' ');
  if (Sp == std::string::npos) {
    R.Error = "malformed status line";
    return R;
  }
  R.StatusCode = std::atoi(F.StartLine.c_str() + Sp + 1);
  if (R.StatusCode <= 0) {
    R.Error = "malformed status line";
    return R;
  }
  R.Ok = true;
  return R;
}
