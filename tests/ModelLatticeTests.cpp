//===--- ModelLatticeTests.cpp - parametric model lattice tests -------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
// Covers the ModelParams descriptor: string grammar round-trips, the
// lattice order and its algebraic properties, the weakest-passing-model
// computation (pure and active-search forms), and end-to-end verdict
// monotonicity - anything that passes under a model must pass under every
// stronger model - on real implementations and catalog tests.
//
//===----------------------------------------------------------------------===//

#include "checkfence/checkfence.h"

#include "engine/WeakestModelSearch.h"
#include "harness/Catalog.h"

#include <gtest/gtest.h>

#include <map>

using namespace checkfence;
using namespace checkfence::engine;
using namespace checkfence::harness;
using memmodel::atLeastAsStrong;
using memmodel::latticeModels;
using memmodel::ModelParams;
using memmodel::modelFromName;
using memmodel::modelName;
using memmodel::namedModels;
using memmodel::strictlyStronger;

namespace {

/// All 2^6 descriptor combinations.
std::vector<ModelParams> allCombos() {
  std::vector<ModelParams> Out;
  for (int Bits = 0; Bits < 64; ++Bits) {
    ModelParams P;
    P.OrderLoadLoad = Bits & 1;
    P.OrderLoadStore = Bits & 2;
    P.OrderStoreLoad = Bits & 4;
    P.OrderStoreStore = Bits & 8;
    P.StoreForwarding = Bits & 16;
    P.SerialOps = Bits & 32;
    Out.push_back(P);
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Descriptor string grammar
//===----------------------------------------------------------------------===//

TEST(ModelParamsParser, RoundTripsEveryCombination) {
  for (const ModelParams &P : allCombos()) {
    auto Back = modelFromName(P.str());
    ASSERT_TRUE(Back.has_value()) << P.str();
    EXPECT_EQ(P, *Back) << P.str();
  }
}

TEST(ModelParamsParser, RoundTripsEveryDisplayName) {
  // modelName substitutes registry names; both forms must parse back to
  // the same point.
  for (const ModelParams &P : allCombos()) {
    auto Back = modelFromName(modelName(P));
    ASSERT_TRUE(Back.has_value()) << modelName(P);
    EXPECT_EQ(P, *Back) << modelName(P);
  }
}

TEST(ModelParamsParser, NamedModelsParseByName) {
  for (const memmodel::NamedModel &N : namedModels()) {
    auto P = modelFromName(N.Name);
    ASSERT_TRUE(P.has_value()) << N.Name;
    EXPECT_EQ(N.Params, *P) << N.Name;
    EXPECT_EQ(N.Name, modelName(N.Params));
  }
}

TEST(ModelParamsParser, DescriptorStringsAndCaseInsensitivity) {
  EXPECT_EQ(ModelParams::pso(), *modelFromName("po:LL+LS,fwd"));
  EXPECT_EQ(ModelParams::pso(), *modelFromName("PO:ll+ls,FWD"));
  EXPECT_EQ(ModelParams::sc(), *modelFromName("po:all"));
  EXPECT_EQ(ModelParams::sc(), *modelFromName("po:ll+ls+sl+ss"));
  EXPECT_EQ(ModelParams::serial(), *modelFromName("po:all,serial"));
  EXPECT_EQ(ModelParams::relaxed(), *modelFromName("po:none,fwd"));
  EXPECT_EQ("pso", modelName(*modelFromName("po:ll+ls,fwd")));
}

TEST(ModelParamsParser, RejectsMalformedStrings) {
  EXPECT_FALSE(modelFromName("").has_value());
  EXPECT_FALSE(modelFromName("po:").has_value());
  EXPECT_FALSE(modelFromName("po:xx").has_value());
  EXPECT_FALSE(modelFromName("po:ll+").has_value());
  EXPECT_FALSE(modelFromName("po:+ll").has_value());
  EXPECT_FALSE(modelFromName("po:ll,").has_value());
  EXPECT_FALSE(modelFromName("po:ll+ls,fwd,").has_value());
  EXPECT_FALSE(modelFromName("po:ll,,fwd").has_value());
  EXPECT_FALSE(modelFromName("po:ll,fwd,bogus").has_value());
  EXPECT_FALSE(modelFromName("weak").has_value());
  EXPECT_FALSE(modelFromName("ll+ls,fwd").has_value());
}

TEST(ModelParamsParser, RejectsMultiCopyAtomicityClauses) {
  // A single total <M is multi-copy atomic, so every point is; the
  // grammar has no clause to say so or to ask for the opposite.
  for (const char *Name : {"po:none,nomca", "po:all,mca"}) {
    EXPECT_FALSE(modelFromName(Name).has_value()) << Name;
    EXPECT_FALSE(validModelName(Name)) << Name;
  }
}

//===----------------------------------------------------------------------===//
// The lattice order
//===----------------------------------------------------------------------===//

TEST(ModelLattice, OrderIsReflexiveAndTransitive) {
  const std::vector<ModelParams> Combos = allCombos();
  for (const ModelParams &A : Combos)
    EXPECT_TRUE(atLeastAsStrong(A, A)) << A.str();
  for (const ModelParams &A : Combos)
    for (const ModelParams &B : Combos)
      for (const ModelParams &C : Combos)
        if (atLeastAsStrong(A, B) && atLeastAsStrong(B, C))
          EXPECT_TRUE(atLeastAsStrong(A, C))
              << A.str() << " >= " << B.str() << " >= " << C.str();
}

TEST(ModelLattice, SerialIsTheTop) {
  for (const ModelParams &P : allCombos()) {
    EXPECT_TRUE(atLeastAsStrong(ModelParams::serial(), P)) << P.str();
    if (!P.SerialOps)
      EXPECT_FALSE(atLeastAsStrong(P, ModelParams::serial())) << P.str();
  }
}

TEST(ModelLattice, DegenerateSerialPointsAreOnlySelfComparable) {
  // "po:none,serial" orders a thread's invocations freely - SC forbids
  // that, so it must not sit above (or below) anything but itself;
  // treating it as the top would make monotone inference unsound.
  ModelParams Degenerate = *modelFromName("po:none,serial");
  EXPECT_TRUE(atLeastAsStrong(Degenerate, Degenerate));
  EXPECT_FALSE(atLeastAsStrong(Degenerate, ModelParams::sc()));
  EXPECT_FALSE(atLeastAsStrong(ModelParams::sc(), Degenerate));
  EXPECT_FALSE(atLeastAsStrong(Degenerate, ModelParams::relaxed()));
  EXPECT_TRUE(atLeastAsStrong(ModelParams::serial(), Degenerate));
}

TEST(ModelLattice, NamedChainIsStrictlyDecreasing) {
  const std::vector<ModelParams> Chain = {
      ModelParams::serial(), ModelParams::sc(),  ModelParams::tso(),
      ModelParams::pso(),    ModelParams::rmo(), ModelParams::relaxed()};
  for (size_t I = 0; I < Chain.size(); ++I)
    for (size_t J = I + 1; J < Chain.size(); ++J)
      EXPECT_TRUE(strictlyStronger(Chain[I], Chain[J]))
          << modelName(Chain[I]) << " vs " << modelName(Chain[J]);
}

TEST(ModelLattice, ForwardingIsANoOpUnderStoreLoadOrder) {
  // sc with and without the forwarding bit are semantically equal: with
  // store-load program order preserved, every own earlier store is
  // already <M-before the load.
  ModelParams ScFwd = ModelParams::sc();
  ScFwd.StoreForwarding = true;
  EXPECT_TRUE(atLeastAsStrong(ModelParams::sc(), ScFwd));
  EXPECT_TRUE(atLeastAsStrong(ScFwd, ModelParams::sc()));
}

TEST(ModelLattice, ForwardingIsOtherwiseIncomparable) {
  // Without store-load order, adding forwarding changes which store a
  // load *must* read, in both directions.
  ModelParams NoFwd = *modelFromName("po:none");
  EXPECT_FALSE(atLeastAsStrong(NoFwd, ModelParams::relaxed()));
  EXPECT_FALSE(atLeastAsStrong(ModelParams::relaxed(), NoFwd));
}

TEST(ModelLattice, LatticeModelsAreDistinctAndSweepWorthy) {
  const std::vector<ModelParams> &L = latticeModels();
  ASSERT_GE(L.size(), 8u) << "the --models lattice sweep must cover >= 8 "
                             "models";
  for (size_t I = 0; I < L.size(); ++I)
    for (size_t J = I + 1; J < L.size(); ++J)
      EXPECT_NE(L[I], L[J]) << I << " vs " << J;
  // Strongest first, as documented: no later model is strictly stronger
  // than an earlier one.
  for (size_t I = 0; I < L.size(); ++I)
    for (size_t J = I + 1; J < L.size(); ++J)
      EXPECT_FALSE(strictlyStronger(L[J], L[I]))
          << modelName(L[J]) << " vs " << modelName(L[I]);
}

//===----------------------------------------------------------------------===//
// Weakest-passing computation
//===----------------------------------------------------------------------===//

TEST(WeakestPassing, PicksMinimalElements) {
  std::vector<ModelVerdict> V = {
      {ModelParams::serial(), true}, {ModelParams::sc(), true},
      {ModelParams::tso(), true},    {ModelParams::pso(), false},
      {ModelParams::relaxed(), false}};
  std::vector<ModelParams> W = weakestPassing(V);
  ASSERT_EQ(1u, W.size());
  EXPECT_EQ(ModelParams::tso(), W[0]);
}

TEST(WeakestPassing, KeepsIncomparableMinimals) {
  // tso {ll,ls,ss} and po:ll+ls+sl,fwd are incomparable; both survive.
  std::vector<ModelVerdict> V = {{ModelParams::sc(), true},
                                 {*modelFromName("po:ll+ls+sl,fwd"), true},
                                 {ModelParams::tso(), true},
                                 {ModelParams::pso(), false}};
  std::vector<ModelParams> W = weakestPassing(V);
  ASSERT_EQ(2u, W.size());
  EXPECT_EQ(*modelFromName("po:ll+ls+sl,fwd"), W[0]);
  EXPECT_EQ(ModelParams::tso(), W[1]);
}

TEST(WeakestPassing, EmptyWhenNothingPasses) {
  std::vector<ModelVerdict> V = {{ModelParams::sc(), false},
                                 {ModelParams::relaxed(), false}};
  EXPECT_TRUE(weakestPassing(V).empty());
}

TEST(WeakestPassing, DeduplicatesSemanticallyEqualModels) {
  ModelParams ScFwd = ModelParams::sc();
  ScFwd.StoreForwarding = true;
  std::vector<ModelVerdict> V = {{ModelParams::sc(), true}, {ScFwd, true}};
  std::vector<ModelParams> W = weakestPassing(V);
  ASSERT_EQ(1u, W.size());
  EXPECT_EQ(ModelParams::sc(), W[0]);
}

TEST(WeakestModelSearchTest, ActiveWalkPrunesByMonotonicity) {
  // A synthetic monotone verdict: pass exactly when at least as strong as
  // pso. The search must find pso as the unique weakest passing model
  // while actually running only a fraction of the lattice.
  int Ran = 0;
  CellFn Fake = [&Ran](const MatrixCell &Cell) {
    ++Ran;
    checker::CheckResult R;
    R.Status = atLeastAsStrong(Cell.Model, ModelParams::pso())
                   ? Status::Pass
                   : Status::Fail;
    return R;
  };
  // Feed the lattice strongest-first (its documented order); the search
  // must reorder it weakest-first internally, and do so deterministically.
  WeakestModelSearch Search(latticeModels());
  WeakestSummary S = Search.run("fake", "T0", Fake);
  ASSERT_EQ(1u, S.Weakest.size());
  EXPECT_EQ(ModelParams::pso(), S.Weakest[0]);
  EXPECT_EQ(static_cast<int>(latticeModels().size()),
            S.ModelsChecked);
  EXPECT_EQ(Ran, S.CellsRun);
  EXPECT_GT(S.CellsInferred, 0) << "monotone pruning never fired";
  EXPECT_LT(S.CellsRun, static_cast<int>(latticeModels().size()));

  // A second identical search must walk the same order and reach the
  // same result (the internal weakest-first sort is deterministic).
  WeakestSummary S2 = WeakestModelSearch(latticeModels()).run("fake", "T0",
                                                              Fake);
  EXPECT_EQ(S.CellsRun, S2.CellsRun) << "walk order not stable";
  ASSERT_EQ(S.Weakest.size(), S2.Weakest.size());
  EXPECT_EQ(S.Weakest[0], S2.Weakest[0]);
}

//===----------------------------------------------------------------------===//
// End-to-end monotonicity on real checks
//===----------------------------------------------------------------------===//

namespace {

/// Sweeps the full lattice for (Impl, Test) and asserts that the verdicts
/// are monotone: every model at least as strong as a passing model also
/// passes. Fills \p ByName with the verdicts for extra per-pair
/// assertions (void return: gtest ASSERTs require it).
void expectMonotone(const std::string &Impl, const std::string &Test,
                    bool StripFences, std::map<std::string, bool> &ByName) {
  RunOptions Opts;
  Opts.StripFences = StripFences;
  CellFn Run = catalogCellRunner(Opts);

  std::vector<ModelVerdict> Verdicts;
  for (const ModelParams &M : latticeModels()) {
    MatrixCell Cell;
    Cell.Impl = Impl;
    Cell.Test = Test;
    Cell.Model = M;
    checker::CheckResult R = Run(Cell);
    ASSERT_TRUE(R.Status == Status::Pass ||
                R.Status == Status::Fail)
        << Impl << ":" << Test << " on " << modelName(M) << ": "
        << R.Message;
    Verdicts.push_back({M, R.passed()});
    ByName[modelName(M)] = R.passed();
  }

  for (const ModelVerdict &Weak : Verdicts)
    for (const ModelVerdict &Strong : Verdicts) {
      if (!atLeastAsStrong(Strong.Model, Weak.Model))
        continue;
      if (Weak.Passed)
        EXPECT_TRUE(Strong.Passed)
            << Impl << ":" << Test << " passed under "
            << modelName(Weak.Model) << " but failed under the stronger "
            << modelName(Strong.Model);
    }
}

} // namespace

TEST(LatticeMonotonicity, TreiberU0Fenced) {
  std::map<std::string, bool> V;
  expectMonotone("treiber", "U0", false, V);
  EXPECT_TRUE(V["sc"]);
  EXPECT_TRUE(V["relaxed"]) << "shipped fences must verify on relaxed";
}

TEST(LatticeMonotonicity, TreiberUi2Stripped) {
  std::map<std::string, bool> V;
  expectMonotone("treiber", "Ui2", true, V);
  EXPECT_TRUE(V["sc"]) << "stripping fences cannot break SC";
  EXPECT_TRUE(V["serial"]);
}

TEST(LatticeMonotonicity, MsnT0Fenced) {
  std::map<std::string, bool> V;
  expectMonotone("msn", "T0", false, V);
  EXPECT_TRUE(V["relaxed"]) << "shipped fences must verify on relaxed";
}

TEST(LatticeMonotonicity, MsnT0Stripped) {
  std::map<std::string, bool> V;
  expectMonotone("msn", "T0", true, V);
  // The Sec. 4.2 claim: msn's fences are load-load and store-store, both
  // no-ops on TSO, so the unfenced queue still verifies there - but not
  // one lattice step weaker.
  EXPECT_TRUE(V["tso"]);
  EXPECT_FALSE(V["pso"]);
  EXPECT_FALSE(V["relaxed"]);
}

//===----------------------------------------------------------------------===//
// Matrix integration: weakest-passing summary, determinism across jobs
//===----------------------------------------------------------------------===//

TEST(MatrixWeakest, LatticeSweepReportsWeakestDeterministically) {
  std::vector<MatrixCell> Cells;
  for (const ModelParams &M : latticeModels()) {
    MatrixCell Cell;
    Cell.Impl = "msn";
    Cell.Test = "T0";
    Cell.Model = M;
    Cells.push_back(Cell);
  }
  RunOptions Opts;
  Opts.StripFences = true;
  MatrixReport R1 = MatrixRunner(1).run(Cells, catalogCellRunner(Opts));
  MatrixReport R4 = MatrixRunner(4).run(Cells, catalogCellRunner(Opts));
  EXPECT_EQ(R1.json(false), R4.json(false))
      << "timing-free lattice reports must be byte-identical across jobs";

  std::vector<WeakestSummary> S = summarizeReport(R1);
  ASSERT_EQ(1u, S.size());
  EXPECT_EQ("msn", S[0].Impl);
  EXPECT_EQ("T0", S[0].Test);
  ASSERT_FALSE(S[0].Weakest.empty());
  // tso and po:ll+ls+sl,fwd are the two incomparable minimal passing
  // points for the unfenced queue.
  EXPECT_EQ(2u, S[0].Weakest.size());
  EXPECT_NE(std::string::npos, R1.json(false).find("\"weakest_passing\""));
}

} // namespace
