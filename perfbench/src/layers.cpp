//===--- layers.cpp - per-layer probe of the repo benchmark ------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
// The traced run's second half. The workload driver sees the library
// only through the public API, whose counters cover the engine layers
// (encode, sat, engine, harness, api, server) but not the front of the
// pipeline. This probe calls the public entry point of each remaining
// layer on the very inputs the workload ran (same seed, Workloads.h),
// with a span around every call:
//
//   frontend.compileC            frontend::compileC
//   trans.flatten                trans::Flattener
//   analysis.analyzeRobustness   analysis::analyzeRobustness
//   explore.generate             explore::Generator::at
//   memmodel.checkReadsFrom      memmodel::checkReadsFrom
//   memmodel.enumerateAxiomatic  memmodel::enumerateAxiomatic
//
// It runs a fixed amount of work (no time budget) and writes its spans
// plus a few counts; run.py folds them into the per-layer metrics.
//
//   perfbench_layers --workload W --seed N --seconds S --out FILE
//                    --trace-out FILE
//
//===----------------------------------------------------------------------===//

#include "Spans.h"
#include "Workloads.h"

#include "analysis/CriticalCycles.h"
#include "checker/CheckFence.h"
#include "explore/Differential.h"
#include "explore/Generator.h"
#include "frontend/Lowering.h"
#include "harness/Catalog.h"
#include "harness/TestSpec.h"
#include "impls/Impls.h"
#include "memmodel/AxiomaticEnumerator.h"
#include "memmodel/MemoryModel.h"
#include "memmodel/ReadsFromOracle.h"
#include "trans/Flattener.h"
#include "trans/RangeAnalysis.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace checkfence;
using namespace perfbench;

namespace {

SpanRecorder Spans;

struct Counts {
  int Programs = 0;       ///< programs lowered by the frontend
  int FrontendErrors = 0; ///< programs that failed to lower or flatten
  long long FlatInstrs = 0;
  int Analyses = 0;
  int RfCalls = 0;
  int EnumCalls = 0;
  int OracleSkips = 0;
};

/// Lowers and flattens one program; false (counted) on failure.
bool lowerAndFlatten(const std::string &Source, bool Strip,
                     const harness::TestSpec &Test, lsl::Program &Prog,
                     trans::FlatProgram &Flat, Counts &C) {
  frontend::DiagEngine Diags;
  frontend::LoweringOptions LO;
  LO.StripFences = Strip;
  bool Ok = false;
  {
    SpanRecorder::Scope S(Spans, "frontend.compileC");
    Ok = frontend::compileC(Source, {}, Prog, Diags, LO);
  }
  ++C.Programs;
  if (!Ok) {
    ++C.FrontendErrors;
    return false;
  }
  std::vector<std::string> Threads = harness::buildTestThreads(Prog, Test);
  trans::LoopBounds Bounds = checker::CheckOptions{}.InitialBounds;
  SpanRecorder::Scope S(Spans, "trans.flatten");
  trans::Flattener F(Prog, Flat, Bounds);
  for (size_t T = 0; T < Threads.size(); ++T)
    if (!F.flattenThread(Threads[T], static_cast<int>(T))) {
      ++C.FrontendErrors;
      return false;
    }
  C.FlatInstrs += Flat.UnrolledInstrCount;
  return true;
}

/// Frontend, flattening and robustness analysis of catalog programs
/// under \p Models (the analysis-eligible ones).
void probeCatalog(const std::vector<Program> &Progs,
                  const std::vector<memmodel::ModelParams> &Models,
                  Counts &C) {
  for (const Program &P : Progs) {
    SpanRecorder::Scope Root(Spans, "probe.program");
    lsl::Program Prog;
    trans::FlatProgram Flat;
    if (!lowerAndFlatten(impls::sourceFor(P.Impl), P.Strip,
                         harness::testByName(P.Test), Prog, Flat, C))
      continue;
    trans::RangeInfo Ranges = trans::analyzeRanges(Flat);
    analysis::AnalysisOptions AO;
    for (const memmodel::ModelParams &M : Models) {
      if (!analysis::analysisEligible(M))
        continue;
      SpanRecorder::Scope S(Spans, "analysis.analyzeRobustness");
      analysis::analyzeRobustness(Flat, Ranges, M, AO);
      ++C.Analyses;
    }
  }
}

/// The explore workload's first scenarios: generation, frontend,
/// flattening, and the litmus oracle each model uses in explore.
void probeExplore(uint64_t Seed, double Seconds, Counts &C) {
  const size_t Calls = 3;
  std::vector<memmodel::ModelParams> Models;
  for (const std::string &Name : exploreModels())
    Models.push_back(*memmodel::modelFromName(Name));
  const uint64_t MaxWork = explore::DiffOptions{}.OracleMaxOrders;

  std::vector<uint64_t> Seeds =
      exploreSeeds(Seed, unitsFor(Seconds, ExploreCallSeconds));
  Seeds.resize(std::min(Seeds.size(), Calls));
  for (uint64_t ChunkSeed : Seeds) {
    explore::GeneratorLimits Limits;
    Limits.SymbolicPerMille = 0;
    explore::Generator Gen(ChunkSeed, Limits);
    for (int I = 0; I < ExploreChunk; ++I) {
      SpanRecorder::Scope Root(Spans, "probe.scenario");
      explore::Scenario S;
      {
        SpanRecorder::Scope G(Spans, "explore.generate");
        S = Gen.at(I);
      }
      lsl::Program Prog;
      frontend::DiagEngine Diags;
      bool Ok = false;
      {
        SpanRecorder::Scope F(Spans, "frontend.compileC");
        Ok = frontend::compileC(S.Source, {}, Prog, Diags);
      }
      ++C.Programs;
      if (!Ok) {
        ++C.FrontendErrors;
        continue;
      }
      harness::TestSpec Spec;
      Spec.Name = "probe";
      for (size_t T = 0; T < S.ThreadArgs.size(); ++T)
        Spec.Threads.push_back({harness::OpSpec{
            "t" + std::to_string(T) + "_op", S.ThreadArgs[T], false,
            false}});
      std::vector<std::string> Threads =
          harness::buildTestThreads(Prog, Spec);
      trans::FlatProgram Flat;
      {
        SpanRecorder::Scope F(Spans, "trans.flatten");
        trans::Flattener Fl(Prog, Flat, trans::LoopBounds{});
        for (size_t T = 0; T < Threads.size() && Ok; ++T)
          Ok = Fl.flattenThread(Threads[T], static_cast<int>(T));
      }
      if (!Ok) {
        ++C.FrontendErrors;
        continue;
      }
      C.FlatInstrs += Flat.UnrolledInstrCount;
      for (const memmodel::ModelParams &M : Models) {
        if (memmodel::readsFromEligible(M)) {
          memmodel::ReadsFromOptions RO;
          RO.Model = M;
          RO.MaxAssignments = MaxWork;
          SpanRecorder::Scope O(Spans, "memmodel.checkReadsFrom");
          C.OracleSkips += !memmodel::checkReadsFrom(Flat, RO).Ok;
          ++C.RfCalls;
        } else {
          memmodel::AxiomaticOptions AO;
          AO.Model = M;
          AO.MaxOrders = MaxWork;
          SpanRecorder::Scope O(Spans, "memmodel.enumerateAxiomatic");
          C.OracleSkips += !memmodel::enumerateAxiomatic(Flat, AO).Ok;
          ++C.EnumCalls;
        }
      }
    }
  }
}

std::vector<memmodel::ModelParams> named(std::vector<std::string> Names) {
  std::vector<memmodel::ModelParams> Out;
  for (const std::string &N : Names)
    Out.push_back(*memmodel::modelFromName(N));
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  std::string Workload, Out, TraceOut;
  uint64_t Seed = 1;
  double Seconds = 10;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string Flag = argv[I], V = argv[I + 1];
    if (Flag == "--workload")
      Workload = V;
    else if (Flag == "--seed")
      Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      Seconds = std::atof(V.c_str());
    else if (Flag == "--out")
      Out = V;
    else if (Flag == "--trace-out")
      TraceOut = V;
  }
  if (Workload.empty() || Out.empty() || TraceOut.empty()) {
    std::fprintf(stderr, "usage: perfbench_layers --workload W --seed N "
                         "--seconds S --out FILE --trace-out FILE\n");
    return 64;
  }
  Spans.enable();

  Counts C;
  if (Workload == "sweep") {
    probeCatalog(sweepPrograms(), memmodel::latticeModels(), C);
  } else if (Workload == "explore") {
    probeExplore(Seed, Seconds, C);
  } else if (Workload == "repair") {
    std::vector<Program> Progs;
    for (auto &[Impl, Test] : repairCells())
      for (bool Strip : {false, true})
        Progs.push_back({Impl, Test, Strip});
    probeCatalog(Progs, named({"relaxed", "pso"}), C);
  } else if (Workload == "serve") {
    std::vector<Program> Progs;
    for (auto &[Impl, Test] : serveCells())
      for (bool Strip : {false, true})
        Progs.push_back({Impl, Test, Strip});
    probeCatalog(Progs, named(exploreModels()), C);
  } else {
    std::fprintf(stderr, "perfbench_layers: unknown workload '%s'\n",
                 Workload.c_str());
    return 64;
  }

  std::FILE *F = std::fopen(Out.c_str(), "w");
  if (!F)
    return 1;
  std::fprintf(F,
               "{\"programs\": %d, \"frontend_errors\": %d, "
               "\"flat_instrs\": %lld, \"analyses\": %d, \"rf_calls\": %d, "
               "\"enum_calls\": %d, \"oracle_skips\": %d}\n",
               C.Programs, C.FrontendErrors, C.FlatInstrs, C.Analyses,
               C.RfCalls, C.EnumCalls, C.OracleSkips);
  if (std::fclose(F) != 0 || !Spans.write(TraceOut))
    return 1;
  return C.FrontendErrors ? 1 : 0;
}
