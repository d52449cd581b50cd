//===- obs/Metrics.h - Counters, gauges, histograms, Prometheus text ------===//
//
// A small metrics registry. Three instrument kinds:
//
//  * Counter   - monotone u64, lock-free increment.
//  * Gauge     - i64 set/add, lock-free.
//  * Histogram - fixed bucket bounds, atomic per-bucket counts plus a
//                CAS-accumulated double sum; renders the standard
//                Prometheus `_bucket`/`_sum`/`_count` series with
//                cumulative `le` labels including `+Inf`, and supports
//                quantile estimation by linear interpolation within a
//                bucket (the same estimate Prometheus'
//                histogram_quantile() computes server-side).
//
// Instruments are registered once (construction order = render order,
// so /metrics output is deterministic given the same sequence of
// observations) and then updated without any registry lock. A histogram
// *family* shares help/type text across label values of one label key
// (e.g. checkfence_request_seconds{kind="check"}).
//
// Each owner (every CheckServer instance, tests) holds its own registry.
//
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_OBS_METRICS_H
#define CHECKFENCE_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace checkfence {
namespace obs {

class MetricsRegistry;

/// Monotone counter. `set()` exists for mirroring an external source of
/// truth (e.g. server atomics snapshot) into the registry at scrape
/// time; normal instrumentation uses `add()`.
class Counter {
public:
  void add(uint64_t N = 1) { Value.fetch_add(N, std::memory_order_relaxed); }
  void set(uint64_t N) { Value.store(N, std::memory_order_relaxed); }
  uint64_t value() const { return Value.load(std::memory_order_relaxed); }

private:
  friend class MetricsRegistry;
  Counter(std::string Name, std::string Help)
      : Name(std::move(Name)), Help(std::move(Help)) {}
  std::string Name;
  std::string Help;
  std::atomic<uint64_t> Value{0};
};

/// Instantaneous value.
class Gauge {
public:
  void set(int64_t N) { Value.store(N, std::memory_order_relaxed); }
  void add(int64_t N) { Value.fetch_add(N, std::memory_order_relaxed); }
  int64_t value() const { return Value.load(std::memory_order_relaxed); }

private:
  friend class MetricsRegistry;
  Gauge(std::string Name, std::string Help)
      : Name(std::move(Name)), Help(std::move(Help)) {}
  std::string Name;
  std::string Help;
  std::atomic<int64_t> Value{0};
};

/// Summary of a histogram's state at one instant.
struct HistogramSnapshot {
  uint64_t Count = 0;
  double Sum = 0;
  /// Estimated quantiles (linear interpolation inside the bucket that
  /// crosses rank q*Count). 0 when Count == 0.
  double P50 = 0, P90 = 0, P99 = 0;
};

/// Bucketed histogram with fixed upper bounds (exclusive of +Inf, which
/// is implicit). Thread-safe observation, no locks.
class Histogram {
public:
  void observe(double V);
  uint64_t count() const;
  double sum() const;
  /// Quantile estimate in [0,1]; 0 when empty.
  double quantile(double Q) const;
  HistogramSnapshot snapshot() const;
  const std::string &labelValue() const { return LabelValue; }

private:
  friend class MetricsRegistry;
  friend class HistogramFamily;
  Histogram(std::string Name, std::string Help, std::vector<double> Bounds,
            std::string LabelKey = std::string(),
            std::string LabelValue = std::string());
  std::string Name;
  std::string Help;
  std::string LabelKey;   ///< "" for an unlabelled histogram
  std::string LabelValue;
  std::vector<double> Bounds;
  /// One count per finite bound plus the +Inf overflow bucket.
  std::unique_ptr<std::atomic<uint64_t>[]> Buckets;
  std::atomic<uint64_t> SumBits{0}; ///< bit pattern of the double sum
};

/// Histograms sharing one metric name, distinguished by one label.
class HistogramFamily {
public:
  /// The histogram for `LabelValue`, creating it on first use. Creation
  /// takes the family lock; the returned pointer is stable thereafter,
  /// so callers on hot paths should resolve it once and cache it.
  Histogram &withLabel(const std::string &LabelValue);
  /// All histograms, in creation order.
  std::vector<Histogram *> all() const;

private:
  friend class MetricsRegistry;
  HistogramFamily(std::string Name, std::string Help, std::string LabelKey,
                  std::vector<double> Bounds)
      : Name(std::move(Name)), Help(std::move(Help)),
        LabelKey(std::move(LabelKey)), Bounds(std::move(Bounds)) {}
  std::string Name;
  std::string Help;
  std::string LabelKey;
  std::vector<double> Bounds;
  mutable std::mutex Mu;
  std::vector<std::unique_ptr<Histogram>> Members;
};

/// Latency bucket bounds (seconds) shared by the request and queue-wait
/// histograms: 1ms .. 120s, roughly 1-2.5-5 per decade.
const std::vector<double> &latencyBuckets();

/// Owns instruments and renders them in Prometheus text format.
/// Registration locks; updates via the returned references do not.
class MetricsRegistry {
public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  Counter &counter(const std::string &Name, const std::string &Help);
  Gauge &gauge(const std::string &Name, const std::string &Help);
  Histogram &histogram(const std::string &Name, const std::string &Help,
                       std::vector<double> Bounds);
  HistogramFamily &histogramFamily(const std::string &Name,
                                   const std::string &Help,
                                   const std::string &LabelKey,
                                   std::vector<double> Bounds);

  /// Prometheus text exposition: every instrument with # HELP / # TYPE
  /// headers, in registration order.
  std::string renderPrometheus() const;

private:
  struct Entry {
    enum class Kind { Counter, Gauge, Histogram, Family } K;
    std::unique_ptr<Counter> C;
    std::unique_ptr<Gauge> G;
    std::unique_ptr<Histogram> H;
    std::unique_ptr<HistogramFamily> F;
  };
  mutable std::mutex Mu;
  std::vector<Entry> Entries;
};

} // namespace obs
} // namespace checkfence

#endif // CHECKFENCE_OBS_METRICS_H
