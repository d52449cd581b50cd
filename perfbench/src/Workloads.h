//===--- Workloads.h - seeded inputs of the repo benchmark ------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The inputs of the four benchmark workloads (sweep, explore, repair,
/// serve) as pure functions of the workload seed. Both benchmark binaries
/// include this header: the workload driver (public API only) and the
/// layer probe (src/ entry points), so a traced run probes exactly the
/// programs and scenarios the workload ran. Standard library only.
///
/// The op *sets* are fixed; the seed decides the order ops run in (one
/// fresh permutation per pass), the explore generator seeds, and the
/// serve request stream. Every run therefore does the same work per pass
/// whatever the seed, which keeps throughput comparable across seeds.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: a tiny, portable, seedable generator (std::shuffle and the
/// std distributions are not reproducible across standard libraries).
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N) (N > 0; the modulo bias is irrelevant here).
  uint64_t below(uint64_t N) { return next() % N; }
  /// Uniform in [0, 1).
  double unit() { return (next() >> 11) * (1.0 / 9007199254740992.0); }

private:
  uint64_t State;
};

/// Independent sub-streams per purpose, so adding a draw to one input
/// never shifts another.
inline Rng streamFor(uint64_t Seed, uint64_t Purpose) {
  Rng Mix(Seed ^ (Purpose * 0xd1b54a32d192ed03ULL));
  return Rng(Mix.next());
}

/// A Fisher-Yates permutation of [0, N).
inline std::vector<int> permutation(Rng &R, int N) {
  std::vector<int> P(N);
  for (int I = 0; I < N; ++I)
    P[I] = I;
  for (int I = N - 1; I > 0; --I) {
    int J = static_cast<int>(R.below(static_cast<uint64_t>(I) + 1));
    std::swap(P[I], P[J]);
  }
  return P;
}

/// FNV-1a, for the input digest printed by every run.
inline uint64_t fnv1a(const std::string &Text,
                      uint64_t H = 0xcbf29ce484222325ULL) {
  for (unsigned char C : Text) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

/// One catalog program: an (impl, test) pair with or without its fences.
struct Program {
  std::string Impl;
  std::string Test;
  bool Strip = false;
  std::string label() const {
    return Impl + ":" + Test + (Strip ? ":stripped" : ":fenced");
  }
};

/// Upper bound on passes any run can make; pass orders are generated up
/// front (before timing) for this many.
inline constexpr int MaxPasses = 64;

/// Nominal wall time of one sweep pass, one repair pass and one explore
/// call, measured with this benchmark on a 4-vCPU 2.0 GHz VM. A run of
/// --seconds S does round(S / nominal) of them, so the work a run does
/// depends only on S - never on how fast the machine happens to be
/// during the run - and runs of one length stay comparable.
inline constexpr double SweepPassSeconds = 10.0;
inline constexpr double RepairPassSeconds = 12.5;
inline constexpr double ExploreCallSeconds = 0.25;

/// Repair runs at least three passes (48 ops) whatever the run length:
/// its tail percentile, p75, needs ten ops beyond it.
inline constexpr int MinRepairPasses = 3;

/// Worker threads of the sweep workload's matrix calls. One: at two, the
/// cells that ran together or alone with a racing portfolio helper made
/// identical cells differ by 9% between runs and p50 by up to 19%, and
/// the host-speed correction (HostSpeed.h) cannot tell which of two CPUs
/// a cell ran on.
inline constexpr int SweepJobs = 1;

inline int unitsFor(double Seconds, double Nominal) {
  long Units = std::lround(Seconds / Nominal);
  return static_cast<int>(std::max(1L, std::min(Units, 1L << 20)));
}

//===----------------------------------------------------------------------===//
// sweep: lattice sweeps, one Verifier::matrix per program
//===----------------------------------------------------------------------===//

/// Cheap queue/stack cells and the set cells in both variants. No hard
/// cell: snark D0 took 40% of a pass and is memory-bound, so its time
/// followed the host's memory contention, which the host-speed correction
/// does not see (it moved by 50% between runs whose corrected other cells
/// agreed within 5%); msn Tpc2 takes 15 s a sweep.
inline std::vector<Program> sweepPrograms() {
  std::vector<Program> Out;
  const char *Both[][2] = {{"ms2", "T0"},     {"ms2", "Ti2"},
                           {"msn", "T0"},     {"treiber", "U0"},
                           {"lazylist", "Sac"}, {"harris", "Sac"}};
  for (auto &P : Both) {
    Out.push_back({P[0], P[1], false});
    Out.push_back({P[0], P[1], true});
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// repair: fence synthesis and weakest-model searches
//===----------------------------------------------------------------------===//

struct RepairOp {
  enum class Kind { Synth, Weakest } K = Kind::Synth;
  Program P;
  std::string Model; ///< synthesis target model (Synth only)
  std::string label() const {
    return K == Kind::Synth ? "synth:" + P.Impl + ":" + P.Test + ":" + Model
                            : "weakest:" + P.label();
  }
};

inline std::vector<std::pair<std::string, std::string>> repairCells() {
  return {{"msn", "T0"},
          {"ms2", "T0"},
          {"treiber", "U0"},
          {"lazylist", "Sac"},
          {"harris", "Sac"}};
}

/// Both searches on every cell, except four that finish in about 20 ms
/// (pso synthesis and the fenced weakest-model search of ms2 and
/// treiber): with them, the 20 ops of a pass split 10 / 5 / 5 into small
/// (< 0.15 s), middle (0.3-0.5 s) and large (> 1 s) ops, so p50 and p75
/// fell exactly on the gaps between those groups and jumped by 15-20%
/// between runs. Without them p50 and p75 fall inside the middle and the
/// large group.
inline std::vector<RepairOp> repairOps() {
  std::vector<RepairOp> Out;
  for (auto &[Impl, Test] : repairCells()) {
    const bool Trivial = Impl == "ms2" || Impl == "treiber";
    for (const char *M : {"relaxed", "pso"})
      if (!Trivial || std::string(M) != "pso")
        Out.push_back({RepairOp::Kind::Synth, {Impl, Test, true}, M});
    if (!Trivial)
      Out.push_back({RepairOp::Kind::Weakest, {Impl, Test, false}, ""});
    Out.push_back({RepairOp::Kind::Weakest, {Impl, Test, true}, ""});
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// explore: pure-litmus differential exploration
//===----------------------------------------------------------------------===//

inline std::vector<std::string> exploreModels() {
  return {"sc", "tso", "pso", "relaxed"};
}

/// Scenarios per Verifier::explore call.
inline constexpr int ExploreChunk = 100;

/// One generator seed per explore call: a fixed pool of \p Count seeds in
/// an order drawn from the workload seed. Scenario cost is heavy-tailed
/// (the slowest 1% of scenarios take about a quarter of the time), so a
/// seeded pool made throughput differ by about 10% between seeds; a
/// fixed pool keeps every seed's work identical, like sweep and repair.
inline std::vector<uint64_t> exploreSeeds(uint64_t Seed, int Count) {
  Rng Pool = streamFor(0x5eedULL, 2);
  std::vector<uint64_t> Seeds;
  for (int I = 0; I < Count; ++I)
    Seeds.push_back(Pool.next() >> 1);
  Rng R = streamFor(Seed, 2);
  std::vector<uint64_t> Out;
  for (int I : permutation(R, Count))
    Out.push_back(Seeds[I]);
  return Out;
}

//===----------------------------------------------------------------------===//
// serve: a Zipf request stream against an in-process CheckServer
//===----------------------------------------------------------------------===//

/// The seven cells behind the serve stream.
inline std::vector<std::pair<std::string, std::string>> serveCells() {
  return {{"ms2", "T0"},       {"ms2", "Ti2"},    {"msn", "T0"},
          {"treiber", "U0"},   {"lazylist", "Sac"}, {"harris", "Sac"},
          {"snark", "D0"}};
}

struct ServeKey {
  Program P;
  std::string Model; ///< empty for analyze requests
  bool Analyze = false;
  std::string label() const {
    return Analyze ? "analyze:" + P.Impl + ":" + P.Test
                   : P.label() + ":" + Model;
  }
};

/// 7 cells x {sc, tso, pso, relaxed} x {fenced, stripped} checks, then
/// one analyze key per cell.
inline std::vector<ServeKey> serveKeys() {
  std::vector<ServeKey> Out;
  for (auto &[Impl, Test] : serveCells())
    for (const char *M : {"sc", "tso", "pso", "relaxed"})
      for (bool Strip : {false, true})
        Out.push_back({{Impl, Test, Strip}, M, false});
  for (auto &[Impl, Test] : serveCells())
    Out.push_back({{Impl, Test, false}, "", true});
  return Out;
}

inline constexpr int ServeClients = 4;
inline constexpr int ServeStreamLength = 1 << 16;
/// Out of 1000 requests, how many are analyze requests.
inline constexpr int ServeAnalyzePerMille = 100;

/// The request stream: indices into serveKeys(). Checks follow a Zipf(1)
/// law over a popularity ranking of the check keys; analyze requests
/// pick a cell uniformly. The ranking is fixed (a permutation drawn from
/// a constant seed, mixing cells and models): which programs are hot
/// sets the cost of a cache hit, so a seeded ranking would make hit
/// latency differ between seeds. The seed draws the sequence.
///
/// The stream opens with every check once, in seeded order: the cache
/// fills at the start of every run. Left to the Zipf draw, the rarest
/// keys first appeared anywhere in the window, and when the misses
/// happened moved throughput by up to a third between seeds.
inline std::vector<int> serveStream(uint64_t Seed) {
  std::vector<ServeKey> Keys = serveKeys();
  int Checks = 0;
  for (const ServeKey &K : Keys)
    Checks += !K.Analyze;
  const int Analyzes = static_cast<int>(Keys.size()) - Checks;

  Rng Rank = streamFor(0x5eedULL, 3);
  std::vector<int> ByRank = permutation(Rank, Checks);
  std::vector<double> Cdf(Checks);
  double Sum = 0;
  for (int R = 0; R < Checks; ++R)
    Cdf[R] = (Sum += 1.0 / (R + 1));
  for (double &C : Cdf)
    C /= Sum;

  Rng R = streamFor(Seed, 4);
  std::vector<int> Out = permutation(R, Checks);
  Out.reserve(ServeStreamLength);
  while (Out.size() < static_cast<size_t>(ServeStreamLength)) {
    if (static_cast<int>(R.below(1000)) < ServeAnalyzePerMille) {
      Out.push_back(Checks + static_cast<int>(R.below(Analyzes)));
      continue;
    }
    double U = R.unit();
    int Lo = 0;
    while (Lo + 1 < Checks && Cdf[Lo] < U)
      ++Lo;
    Out.push_back(ByRank[Lo]);
  }
  return Out;
}

/// Per-pass op orders for the pass-based workloads (sweep, repair).
inline std::vector<std::vector<int>> passOrders(uint64_t Seed, int Ops) {
  Rng R = streamFor(Seed, 1);
  std::vector<std::vector<int>> Out;
  for (int P = 0; P < MaxPasses; ++P)
    Out.push_back(permutation(R, Ops));
  return Out;
}

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
