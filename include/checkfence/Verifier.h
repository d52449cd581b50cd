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
/// result byte for byte. It is safe to share one Verifier across threads;
/// individual requests run synchronously on the calling thread (matrix
/// cells fan out onto workers).
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

namespace api {
class ResultCache; // internal representation behind SharedResultCache
}

/// Cache observability counters.
struct CacheStats {
  size_t Entries = 0;
  size_t Hits = 0;
  size_t Misses = 0;
  size_t BoundsSeeded = 0; ///< runs whose initial bounds came from cache
};

/// A copyable handle to a result cache that several Verifiers can share:
/// construct Verifiers whose VerifierConfig::SharedCache holds the same
/// handle and they hit/fill one cache (the checkfenced server does this
/// across its shards). An empty (default-constructed) handle means "the
/// Verifier owns a private cache".
///
/// Persistence moves to the handle's owner: a Verifier built on a shared
/// cache never loads or saves CachePath itself. load() *merges* the file
/// into the cache (in-memory entries win) and save() merges the cache
/// into the file via a locked read-merge-rename, so concurrent daemons
/// and ad-hoc CLI runs can share one cache file without clobbering each
/// other's entries.
class SharedResultCache {
public:
  /// An empty handle (no cache).
  SharedResultCache();
  ~SharedResultCache();
  SharedResultCache(const SharedResultCache &);
  SharedResultCache &operator=(const SharedResultCache &);

  /// A handle to a fresh, empty cache.
  static SharedResultCache create();

  bool valid() const { return Cache != nullptr; }

  /// Merges \p Path into the cache (see class comment). False when the
  /// file is missing or not a cache written by this library version.
  bool load(const std::string &Path);
  /// Merges the cache into \p Path atomically (temp file + rename under
  /// an advisory lock). False on I/O failure or an empty handle.
  bool save(const std::string &Path) const;

  CacheStats stats() const;
  void clear();

private:
  friend class Verifier;
  std::shared_ptr<api::ResultCache> Cache;
};

struct VerifierConfig {
  /// Default worker-thread count for matrix cells and synthesis
  /// minimization when the request does not set its own (minimum 1).
  int Jobs = 1;
  /// Enable the in-memory cross-run result cache.
  bool EnableCache = true;
  /// When non-empty: load the cache from this file on construction and
  /// save it back on destruction (and on saveCache()).
  std::string CachePath;
  /// Seed a run's initial loop bounds from a previous passing run of the
  /// same program (single checks only; matrix cells always start clean
  /// so reports stay byte-identical across job counts and cache states).
  bool ReuseBounds = true;
  /// When valid: use this shared cache instead of a private one. The
  /// Verifier then never loads or saves CachePath - persistence belongs
  /// to whoever owns the handle (see SharedResultCache).
  SharedResultCache SharedCache;
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
  /// Persists the cache now (to \p Path, or the configured CachePath).
  bool saveCache(const std::string &Path = std::string()) const;

private:
  struct Impl;
  std::unique_ptr<Impl> Self;
};

} // namespace checkfence

#endif // CHECKFENCE_PUBLIC_VERIFIER_H
