//===--- checkfence/Remote.h - client for a checkfenced daemon --*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
// Public API - this header is installed and stable; see docs/SERVER.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RemoteVerifier dispatches Requests to a running checkfenced daemon
/// (checkfence/Server.h) over HTTP + JSON-RPC and reconstructs the
/// results. Single checks come back as full checkfence::Result values
/// and matrices and sweeps as the same Report a local run returns, a
/// list of such Results: every field round-trips, so local rendering -
/// json(), table(), exit codes - is byte-identical to an in-process run.
/// Analysis and explore runs come back as the server-rendered report
/// strings plus the scalar fields a client needs for exit codes and
/// summaries.
///
/// Transport failures are reported out-of-band in RemoteStatus, never
/// conflated with verification verdicts: a connection refused is not an
/// ERROR result.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_PUBLIC_REMOTE_H
#define CHECKFENCE_PUBLIC_REMOTE_H

#include <memory>
#include <string>
#include <vector>

#include "checkfence/Request.h"
#include "checkfence/Result.h"

namespace checkfence {

/// Transport-level outcome of one remote call.
struct RemoteStatus {
  bool Ok = false;
  std::string Error; ///< transport or server-side dispatch problem
  /// HTTP status when a response arrived (200 on success, 429 when the
  /// daemon's queue was full, 0 when the transport failed earlier).
  int HttpStatus = 0;
  /// Parsed Retry-After seconds on a 429 (0 otherwise).
  int RetryAfterSeconds = 0;

  explicit operator bool() const { return Ok; }
};

/// An analysis report as served by the daemon.
struct RemoteAnalysis {
  bool Ok = false;
  std::string Error;
  std::string Table;
  std::string Json; ///< timing-free by construction (static analysis)
};

/// An explore report as served by the daemon. Corpus persistence happens
/// on the server's filesystem only when the server enables it; remote
/// requests' corpus() directories are ignored (see docs/SERVER.md).
struct RemoteExplore {
  bool Ok = false;
  std::string Error;
  bool Cancelled = false;
  unsigned long long Seed = 0;
  int Generated = 0;
  int Deduplicated = 0;
  int Run = 0;
  int Skips = 0;
  int Shrunk = 0;
  double WallSeconds = 0;
  std::string Json;
  std::string JsonNoTimings;
  std::vector<std::string> Warnings;
  std::vector<ExploreDivergence> Divergences;
};

class RemoteVerifier {
public:
  /// \p BaseUrl like "http://127.0.0.1:8417" (the scheme is optional;
  /// only http is supported, a path prefix is not).
  explicit RemoteVerifier(std::string BaseUrl);
  ~RemoteVerifier();
  RemoteVerifier(const RemoteVerifier &) = delete;
  RemoteVerifier &operator=(const RemoteVerifier &) = delete;

  /// Request priority class for the daemon's admission queue:
  /// "high", "normal" (default), or "low".
  void setPriority(std::string Priority);

  /// Server reachability + version probe.
  RemoteStatus version(std::string &VersionOut, int &SchemaOut);

  RemoteStatus check(const Request &Req, Result &Out);
  /// A request-level problem (empty matrix, bad model axis) is a
  /// transport success whose \p Out is !ok(), as in a local run.
  RemoteStatus matrix(const Request &Req, Report &Out);
  RemoteStatus analyze(const Request &Req, RemoteAnalysis &Out);
  RemoteStatus explore(const Request &Req, RemoteExplore &Out);
  RemoteStatus synthesize(const Request &Req, SynthOutcome &Out);
  RemoteStatus weakestModels(const Request &Req, WeakestOutcome &Out);

private:
  struct Impl;
  std::unique_ptr<Impl> Self;
};

} // namespace checkfence

#endif // CHECKFENCE_PUBLIC_REMOTE_H
