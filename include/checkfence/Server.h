//===--- checkfence/Server.h - the checkfenced daemon -----------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
// Public API - this header is installed and stable; see docs/SERVER.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CheckServer is the embeddable core of the `checkfenced` daemon: an
/// HTTP/1.1 + JSON-RPC 2.0 front over the Verifier API. Requests land in
/// a bounded priority queue and fan out over worker shards; each shard
/// owns one Verifier while all shards fill one shared result cache.
/// `/metrics` exposes the live counters in Prometheus text format,
/// `/status` as JSON.
///
/// Byte-identity contract: a request dispatched through the daemon (see
/// RemoteVerifier in checkfence/Remote.h) produces the same timing-free
/// reports, verdicts, and exit codes as the same request run in-process.
/// The daemon adds no verdict-relevant state - the shared cache already
/// guarantees hits are byte-identical to the original run.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_PUBLIC_SERVER_H
#define CHECKFENCE_PUBLIC_SERVER_H

#include <cstddef>
#include <memory>
#include <string>

#include "checkfence/Verifier.h"

namespace checkfence {

struct ServerConfig {
  /// TCP port to listen on; 0 = pick an ephemeral port (see
  /// CheckServer::port, the in-process test workflow).
  int Port = 8417;
  /// Bind address. The default stays loopback-only: the protocol has no
  /// authentication, so exposing it wider is an explicit decision.
  std::string BindAddress = "127.0.0.1";
  /// Worker shards. Each shard runs one request at a time on its own
  /// Verifier, so this is also the maximum number of in-flight requests.
  /// Requests hash to shards by program identity: identical concurrent
  /// misses queue on one shard, so the second is answered from the shared
  /// cache instead of being checked twice.
  int Shards = 2;
  /// Verifier worker threads per shard (VerifierConfig::Jobs). Requests
  /// cannot raise this: a remote jobs() value is clamped to the shard's
  /// allowance.
  int JobsPerShard = 1;
  /// Admission limit: requests beyond this many queued (not yet
  /// dispatched) are rejected with HTTP 429 + Retry-After.
  int QueueDepth = 64;
  /// When non-empty: merge this cache file into the shared result cache
  /// on start() and merge the cache back on shutdown (multi-process
  /// safe; see SharedResultCache).
  std::string CachePath;
  /// Hard per-request deadline in seconds (0 = none). A request's own
  /// deadline() still applies when tighter.
  double MaxRequestSeconds = 0;
  /// Minimum log level for the structured logger: "debug", "info",
  /// "warn", "error", or "off". Empty = leave the process-wide level
  /// unchanged (the library default is warn). Applied in start().
  std::string LogLevel;
  /// Requests whose shard-worker latency exceeds this many seconds are
  /// logged at warn level with their kind and timing (0 = never).
  double SlowRequestSeconds = 10;
};

/// A point-in-time snapshot of the daemon's counters (the `/metrics`
/// surface, aggregated over all shards).
struct ServerStats {
  unsigned long long Accepted = 0;  ///< connections accepted
  unsigned long long Served = 0;    ///< RPC requests answered
  unsigned long long Rejected = 0;  ///< 429 admission rejections
  unsigned long long Cancelled = 0; ///< requests finishing Cancelled
  unsigned long long Errors = 0;    ///< malformed / failed requests
  unsigned long long CellsCompleted = 0;     ///< matrix cells finished
  unsigned long long ScenariosChecked = 0;   ///< explore scenarios run
  size_t Queued = 0;   ///< requests waiting for a shard
  size_t InFlight = 0; ///< requests running on a shard
  CacheStats Cache;    ///< shared result cache, all shards
  PoolStats Pool;      ///< always zero (see PoolStats)
};

/// The daemon core. start() spawns the listener, watcher, and shard
/// worker threads and returns; requestStop() begins a graceful drain
/// (stop accepting, finish queued + in-flight work); waitStopped()
/// blocks until the drain completes and persists the cache.
class CheckServer {
public:
  explicit CheckServer(ServerConfig Config = ServerConfig());
  ~CheckServer(); ///< implies requestStop() + waitStopped()
  CheckServer(const CheckServer &) = delete;
  CheckServer &operator=(const CheckServer &) = delete;

  /// Binds, listens, and spawns the service threads. False + \p Error
  /// when the port cannot be bound.
  bool start(std::string &Error);

  /// The bound port (resolves ServerConfig::Port = 0 to the actual
  /// ephemeral port). Valid after start().
  int port() const;

  /// Begins a graceful drain. Safe to call more than once; not
  /// async-signal-safe - signal handlers should set a flag the main
  /// loop polls (the checkfenced CLI does this).
  void requestStop();
  /// True once requestStop() has been called.
  bool stopRequested() const;
  /// Blocks until all threads have drained and joined, then merges the
  /// cache into ServerConfig::CachePath.
  void waitStopped();

  ServerStats stats() const;

private:
  struct Impl;
  std::unique_ptr<Impl> Self;
};

} // namespace checkfence

#endif // CHECKFENCE_PUBLIC_SERVER_H
