//===--- checkfence/Verifier.h - the verification service -------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
// Public API - this header is installed and stable; see docs/API.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Verifier is the service front of the engine: it owns a cross-run
/// result cache and a worker pool for batched matrices. Every check runs
/// on its own fresh incremental session (persistent SAT solvers that live
/// for that one check), so an uncached re-run reproduces its timing-free
/// result byte for byte. It is safe to share one Verifier across threads
/// (every checkfenced worker runs on one); individual requests run
/// synchronously on the calling thread (matrix cells fan out onto
/// workers).
///
/// The cache is keyed by (program fingerprint, model, engine options).
/// A hit returns the stored result without running anything - the
/// timing-free JSON of a hit is byte-identical to the original run's.
/// On a miss whose program fingerprint matches an earlier passing run,
/// the earlier run's final loop bounds seed the new run's initial bounds
/// (the paper's Fig. 10 re-run workflow). Configure CachePath to persist
/// the cache across processes.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_PUBLIC_VERIFIER_H
#define CHECKFENCE_PUBLIC_VERIFIER_H

#include "checkfence/Events.h"
#include "checkfence/Request.h"
#include "checkfence/Result.h"

#include <cstddef>
#include <memory>
#include <string>

namespace checkfence {

/// Cache observability counters.
struct CacheStats {
  size_t Entries = 0;
  size_t Hits = 0;
  size_t Misses = 0;
  size_t BoundsSeeded = 0; ///< runs whose initial bounds came from cache
};

struct VerifierConfig {
  /// Default worker-thread count for matrix programs and synthesis
  /// minimization when the request does not set its own (minimum 1).
  int Jobs = 1;
  /// Enable the in-memory cross-run result cache.
  bool EnableCache = true;
  /// When non-empty: load the cache from this file on construction and
  /// save it back on destruction (and on saveCache()). A non-empty file
  /// that is not a cache of this library version is left untouched.
  std::string CachePath;
};

/// Always zero: every check runs on a fresh session and no session is
/// kept between checks. Kept only so existing readers of these fields
/// still compile.
struct PoolStats {
  size_t IdleSessions = 0;
  unsigned long long IdleClauses = 0;
};

class Verifier {
public:
  explicit Verifier(VerifierConfig Config = VerifierConfig());
  ~Verifier();
  Verifier(const Verifier &) = delete;
  Verifier &operator=(const Verifier &) = delete;

  /// Runs a single check (Request::check). Errors - unknown names, bad
  /// notation, frontend failures - come back as Status::Error results.
  Result check(const Request &Req, EventSink *Sink = nullptr,
               CancelToken Token = CancelToken());

  /// Runs a batched matrix or lattice sweep (Request::matrix/sweep).
  Report matrix(const Request &Req, EventSink *Sink = nullptr,
                CancelToken Token = CancelToken());

  /// Runs a fence synthesis (Request::synthesis).
  SynthOutcome synthesize(const Request &Req, EventSink *Sink = nullptr,
                          CancelToken Token = CancelToken());

  /// Runs an active weakest-passing-model search
  /// (Request::weakestModel).
  WeakestOutcome weakestModels(const Request &Req,
                               EventSink *Sink = nullptr,
                               CancelToken Token = CancelToken());

  /// Answers a litmus reachability query (Request::litmus). Runs one
  /// synchronous SAT query: deadlines and cancel tokens do not apply
  /// here (there is no phase boundary to stop at) - bound long queries
  /// with Request::conflictBudget instead.
  LitmusOutcome observable(const Request &Req);

  /// Runs a static critical-cycle robustness analysis
  /// (Request::analyze). Purely static - no SAT solving, no sessions,
  /// no cache; the model rows fan out over jobs() workers but the
  /// outcome (and its JSON) is byte-identical at any job count.
  AnalysisOutcome analyze(const Request &Req);

  /// Runs a randomized differential exploration (Request::explore):
  /// seeded scenario generation, per-model oracle cross-checks through
  /// this Verifier, divergence shrinking, and corpus persistence. See
  /// docs/EXPLORE.md.
  ExploreOutcome explore(const Request &Req, EventSink *Sink = nullptr,
                         CancelToken Token = CancelToken());

  CacheStats cacheStats() const;
  /// Always zero (see PoolStats).
  PoolStats poolStats() const;
  void clearCache();
  /// Merges a cache file (\p Path, or the configured CachePath) into the
  /// cache; in-memory entries win. False when the file is missing or is
  /// not a cache of this library version: then nothing is merged.
  bool loadCache(const std::string &Path = std::string());
  /// Merges the cache into a file now (\p Path, or the configured
  /// CachePath) by a locked read-merge-rename, so concurrent processes
  /// sharing one file keep each other's entries. False, leaving the file
  /// alone, when the target is a non-empty file that is not a cache of
  /// this library version.
  bool saveCache(const std::string &Path = std::string()) const;

private:
  struct Impl;
  std::unique_ptr<Impl> Self;
};

} // namespace checkfence

#endif // CHECKFENCE_PUBLIC_VERIFIER_H
