//===- obs/Metrics.cpp - Metrics registry implementation ------------------===//

#include "obs/Metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace checkfence {
namespace obs {

namespace {

/// Renders a double the way Prometheus expects: integral values without
/// a trailing ".000000", others with enough digits to round-trip the
/// bucket bounds in use.
std::string promDouble(double V) {
  if (V == static_cast<int64_t>(V)) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(V));
    return Buf;
  }
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%g", V);
  return Buf;
}

double atomicSumLoad(const std::atomic<uint64_t> &Bits) {
  uint64_t Raw = Bits.load(std::memory_order_relaxed);
  double V;
  std::memcpy(&V, &Raw, sizeof(V));
  return V;
}

void atomicSumAdd(std::atomic<uint64_t> &Bits, double Delta) {
  uint64_t Old = Bits.load(std::memory_order_relaxed);
  for (;;) {
    double Cur;
    std::memcpy(&Cur, &Old, sizeof(Cur));
    double Next = Cur + Delta;
    uint64_t NewBits;
    std::memcpy(&NewBits, &Next, sizeof(NewBits));
    if (Bits.compare_exchange_weak(Old, NewBits, std::memory_order_relaxed))
      return;
  }
}

} // namespace

const std::vector<double> &latencyBuckets() {
  static const std::vector<double> Buckets = {
      0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
      0.5,   1,      2.5,   5,    10,    30,   60,  120};
  return Buckets;
}

Histogram::Histogram(std::string Name, std::string Help,
                     std::vector<double> Bounds, std::string LabelKey,
                     std::string LabelValue)
    : Name(std::move(Name)), Help(std::move(Help)),
      LabelKey(std::move(LabelKey)), LabelValue(std::move(LabelValue)),
      Bounds(std::move(Bounds)),
      Buckets(new std::atomic<uint64_t>[this->Bounds.size() + 1]) {
  for (size_t I = 0; I <= this->Bounds.size(); ++I)
    Buckets[I].store(0, std::memory_order_relaxed);
}

void Histogram::observe(double V) {
  size_t I = std::upper_bound(Bounds.begin(), Bounds.end(), V) -
             Bounds.begin();
  // upper_bound gives the first bound strictly greater than V, but
  // Prometheus buckets are `le` (inclusive): V exactly on a bound
  // belongs in that bound's bucket.
  if (I > 0 && Bounds[I - 1] == V)
    --I;
  Buckets[I].fetch_add(1, std::memory_order_relaxed);
  atomicSumAdd(SumBits, V);
}

uint64_t Histogram::count() const {
  uint64_t N = 0;
  for (size_t I = 0; I <= Bounds.size(); ++I)
    N += Buckets[I].load(std::memory_order_relaxed);
  return N;
}

double Histogram::sum() const { return atomicSumLoad(SumBits); }

double Histogram::quantile(double Q) const {
  uint64_t Total = count();
  if (Total == 0)
    return 0;
  double Rank = Q * static_cast<double>(Total);
  uint64_t Seen = 0;
  for (size_t I = 0; I <= Bounds.size(); ++I) {
    uint64_t InBucket = Buckets[I].load(std::memory_order_relaxed);
    if (Seen + InBucket >= Rank && InBucket > 0) {
      double Lo = I == 0 ? 0 : Bounds[I - 1];
      // The +Inf bucket has no upper edge; report its lower edge, as
      // histogram_quantile() does.
      if (I == Bounds.size())
        return Lo;
      double Hi = Bounds[I];
      double Within = (Rank - static_cast<double>(Seen)) /
                      static_cast<double>(InBucket);
      return Lo + (Hi - Lo) * Within;
    }
    Seen += InBucket;
  }
  return Bounds.empty() ? 0 : Bounds.back();
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot S;
  S.Count = count();
  S.Sum = sum();
  if (S.Count > 0) {
    S.P50 = quantile(0.50);
    S.P90 = quantile(0.90);
    S.P99 = quantile(0.99);
  }
  return S;
}

Histogram &HistogramFamily::withLabel(const std::string &LabelValue) {
  std::lock_guard<std::mutex> Lock(Mu);
  for (const std::unique_ptr<Histogram> &H : Members)
    if (H->LabelValue == LabelValue)
      return *H;
  Members.emplace_back(
      new Histogram(Name, Help, Bounds, LabelKey, LabelValue));
  return *Members.back();
}

std::vector<Histogram *> HistogramFamily::all() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<Histogram *> Out;
  Out.reserve(Members.size());
  for (const std::unique_ptr<Histogram> &H : Members)
    Out.push_back(H.get());
  return Out;
}

Counter &MetricsRegistry::counter(const std::string &Name,
                                  const std::string &Help) {
  std::lock_guard<std::mutex> Lock(Mu);
  for (Entry &E : Entries)
    if (E.K == Entry::Kind::Counter && E.C->Name == Name)
      return *E.C;
  Entries.push_back(Entry{Entry::Kind::Counter,
                          std::unique_ptr<Counter>(new Counter(Name, Help)),
                          nullptr, nullptr, nullptr});
  return *Entries.back().C;
}

Gauge &MetricsRegistry::gauge(const std::string &Name,
                              const std::string &Help) {
  std::lock_guard<std::mutex> Lock(Mu);
  for (Entry &E : Entries)
    if (E.K == Entry::Kind::Gauge && E.G->Name == Name)
      return *E.G;
  Entries.push_back(Entry{Entry::Kind::Gauge, nullptr,
                          std::unique_ptr<Gauge>(new Gauge(Name, Help)),
                          nullptr, nullptr});
  return *Entries.back().G;
}

Histogram &MetricsRegistry::histogram(const std::string &Name,
                                      const std::string &Help,
                                      std::vector<double> Bounds) {
  std::lock_guard<std::mutex> Lock(Mu);
  for (Entry &E : Entries)
    if (E.K == Entry::Kind::Histogram && E.H->Name == Name)
      return *E.H;
  Entries.push_back(
      Entry{Entry::Kind::Histogram, nullptr, nullptr,
            std::unique_ptr<Histogram>(
                new Histogram(Name, Help, std::move(Bounds))),
            nullptr});
  return *Entries.back().H;
}

HistogramFamily &MetricsRegistry::histogramFamily(
    const std::string &Name, const std::string &Help,
    const std::string &LabelKey, std::vector<double> Bounds) {
  std::lock_guard<std::mutex> Lock(Mu);
  for (Entry &E : Entries)
    if (E.K == Entry::Kind::Family && E.F->Name == Name)
      return *E.F;
  Entries.push_back(
      Entry{Entry::Kind::Family, nullptr, nullptr, nullptr,
            std::unique_ptr<HistogramFamily>(new HistogramFamily(
                Name, Help, LabelKey, std::move(Bounds)))});
  return *Entries.back().F;
}

namespace {

void renderHistogram(std::string &Out, const Histogram &H,
                     const std::string &Name,
                     const std::vector<double> &Bounds,
                     const std::string &LabelKey,
                     const std::string &LabelValue,
                     const std::unique_ptr<std::atomic<uint64_t>[]> &Buckets) {
  std::string Label;
  std::string LabelOnly;
  if (!LabelKey.empty()) {
    LabelOnly = LabelKey + "=\"" + LabelValue + "\"";
    Label = LabelOnly + ",";
  }
  uint64_t Cumulative = 0;
  char Buf[160];
  for (size_t I = 0; I < Bounds.size(); ++I) {
    Cumulative += Buckets[I].load(std::memory_order_relaxed);
    std::snprintf(Buf, sizeof(Buf), "%s_bucket{%sle=\"%s\"} %llu\n",
                  Name.c_str(), Label.c_str(),
                  promDouble(Bounds[I]).c_str(),
                  static_cast<unsigned long long>(Cumulative));
    Out += Buf;
  }
  Cumulative += Buckets[Bounds.size()].load(std::memory_order_relaxed);
  std::snprintf(Buf, sizeof(Buf), "%s_bucket{%sle=\"+Inf\"} %llu\n",
                Name.c_str(), Label.c_str(),
                static_cast<unsigned long long>(Cumulative));
  Out += Buf;
  std::string Braced = LabelOnly.empty() ? "" : "{" + LabelOnly + "}";
  std::snprintf(Buf, sizeof(Buf), "%s_sum%s %s\n", Name.c_str(),
                Braced.c_str(), promDouble(H.sum()).c_str());
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf), "%s_count%s %llu\n", Name.c_str(),
                Braced.c_str(), static_cast<unsigned long long>(Cumulative));
  Out += Buf;
}

} // namespace

std::string MetricsRegistry::renderPrometheus() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::string Out;
  char Buf[160];
  for (const Entry &E : Entries) {
    switch (E.K) {
    case Entry::Kind::Counter:
      Out += "# HELP " + E.C->Name + " " + E.C->Help + "\n";
      Out += "# TYPE " + E.C->Name + " counter\n";
      std::snprintf(Buf, sizeof(Buf), "%s %llu\n", E.C->Name.c_str(),
                    static_cast<unsigned long long>(E.C->value()));
      Out += Buf;
      break;
    case Entry::Kind::Gauge:
      Out += "# HELP " + E.G->Name + " " + E.G->Help + "\n";
      Out += "# TYPE " + E.G->Name + " gauge\n";
      std::snprintf(Buf, sizeof(Buf), "%s %lld\n", E.G->Name.c_str(),
                    static_cast<long long>(E.G->value()));
      Out += Buf;
      break;
    case Entry::Kind::Histogram:
      Out += "# HELP " + E.H->Name + " " + E.H->Help + "\n";
      Out += "# TYPE " + E.H->Name + " histogram\n";
      renderHistogram(Out, *E.H, E.H->Name, E.H->Bounds, E.H->LabelKey,
                      E.H->LabelValue, E.H->Buckets);
      break;
    case Entry::Kind::Family: {
      Out += "# HELP " + E.F->Name + " " + E.F->Help + "\n";
      Out += "# TYPE " + E.F->Name + " histogram\n";
      for (Histogram *H : E.F->all())
        renderHistogram(Out, *H, H->Name, H->Bounds, H->LabelKey,
                        H->LabelValue, H->Buckets);
      break;
    }
    }
  }
  return Out;
}

} // namespace obs
} // namespace checkfence
