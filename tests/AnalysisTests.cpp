//===--- AnalysisTests.cpp - critical-cycle analysis vs. SAT/enumerator ------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
// Differential testing of the static critical-cycle (delay-set)
// robustness analysis:
//
//  * delay sets of the named models match their lattice order bits,
//  * eligibility markers agree between the analysis, the model registry,
//    and the public catalog,
//  * targeted litmus shapes: store buffering is not robust until fenced,
//    disjoint-location programs are robust everywhere, and a plain
//    store->load of one address is a coherence hazard exactly on the
//    forwarding-free points,
//  * "robust" is sound against the brute-force axiomatic enumerator
//    (robust => the model's observation set equals sc's) across a
//    64-seed generated-program sweep,
//  * "robust" is sound against the SAT pipeline: wherever the analysis
//    proves a generated litmus program or a catalog impl robust, runCheck
//    at that point decides exactly as at sc, and runCheckFresh agrees,
//  * the Verifier's analyze() surface is deterministic at any job count.
//
//===----------------------------------------------------------------------===//

#include "checkfence/checkfence.h"

#include "analysis/CriticalCycles.h"
#include "checker/CheckFence.h"
#include "checker/SolveContext.h"
#include "explore/Generator.h"
#include "frontend/Lowering.h"
#include "harness/Catalog.h"
#include "harness/TestSpec.h"
#include "impls/Impls.h"
#include "memmodel/AxiomaticEnumerator.h"
#include "trans/RangeAnalysis.h"

#include "gtest/gtest.h"

using namespace checkfence;

namespace {

/// Compile + build test threads + encode, returning the FlatProgram via
/// SolveContext (the same flattening every checker layer sees).
struct FlatCase {
  lsl::Program Prog;
  std::vector<std::string> Threads;
  std::unique_ptr<checker::SolveContext> Ctx;

  bool build(const std::string &Source, const std::vector<int> &Args) {
    frontend::DiagEngine Diags;
    if (!frontend::compileC(Source, {}, Prog, Diags)) {
      ADD_FAILURE() << "compile failed:\n" << Diags.str();
      return false;
    }
    harness::TestSpec Spec;
    Spec.Name = "analysis";
    for (size_t T = 0; T < Args.size(); ++T)
      Spec.Threads.push_back({harness::OpSpec{
          "t" + std::to_string(T) + "_op", Args[T], false, false}});
    Threads = harness::buildTestThreads(Prog, Spec);
    return encode();
  }

  /// Catalog impl \p Impl under catalog test \p Test.
  bool buildCatalog(const std::string &Impl, const std::string &Test) {
    frontend::DiagEngine Diags;
    if (!frontend::compileC(impls::sourceFor(Impl), {}, Prog, Diags)) {
      ADD_FAILURE() << Impl << ": compile failed:\n" << Diags.str();
      return false;
    }
    Threads = harness::buildTestThreads(Prog, harness::testByName(Test));
    return encode();
  }

  bool encode() {
    checker::ProblemConfig Cfg;
    Ctx = std::make_unique<checker::SolveContext>(Prog, Threads,
                                                  trans::LoopBounds{}, Cfg);
    if (!Ctx->encoding().ok()) {
      ADD_FAILURE() << "encode failed: " << Ctx->encoding().error();
      return false;
    }
    return true;
  }

  analysis::RobustnessResult analyze(const memmodel::ModelParams &M) {
    trans::RangeInfo R = trans::analyzeRanges(Ctx->encoding().flat());
    return analysis::analyzeRobustness(Ctx->encoding().flat(), R, M);
  }
};

const char *SBLitmus = R"(
extern void observe(int v);
extern void fence(char *type);
int x; int y;
void init_op(void) { x = 0; y = 0; }
void t0_op(void) { x = 1; observe(y); }
void t1_op(void) { y = 1; observe(x); }
)";

const char *SBLitmusFenced = R"(
extern void observe(int v);
extern void fence(char *type);
int x; int y;
void init_op(void) { x = 0; y = 0; }
void t0_op(void) { x = 1; fence("store-load"); observe(y); }
void t1_op(void) { y = 1; fence("store-load"); observe(x); }
)";

const char *DisjointLitmus = R"(
extern void observe(int v);
int x; int y;
void init_op(void) { x = 0; y = 0; }
void t0_op(void) { x = 1; x = 2; observe(x); }
void t1_op(void) { y = 1; y = 2; observe(y); }
)";

const char *StoreLoadSameAddr = R"(
extern void observe(int v);
int x;
void init_op(void) { x = 0; }
void t0_op(void) { x = 1; observe(x); }
)";

} // namespace

//===----------------------------------------------------------------------===//
// Delay sets and eligibility
//===----------------------------------------------------------------------===//

TEST(AnalysisDelaySets, NamedModelsMatchTheirOrderBits) {
  analysis::DelaySet SC =
      analysis::delaySetFor(memmodel::ModelParams::sc());
  EXPECT_EQ(SC.count(), 0);
  EXPECT_FALSE(SC.Forwarding);

  analysis::DelaySet TSO =
      analysis::delaySetFor(memmodel::ModelParams::tso());
  EXPECT_FALSE(TSO.LoadLoad);
  EXPECT_FALSE(TSO.LoadStore);
  EXPECT_TRUE(TSO.StoreLoad);
  EXPECT_FALSE(TSO.StoreStore);
  EXPECT_TRUE(TSO.Forwarding);

  analysis::DelaySet PSO =
      analysis::delaySetFor(memmodel::ModelParams::pso());
  EXPECT_TRUE(PSO.StoreLoad);
  EXPECT_TRUE(PSO.StoreStore);
  EXPECT_FALSE(PSO.LoadLoad);

  analysis::DelaySet Relaxed =
      analysis::delaySetFor(memmodel::ModelParams::relaxed());
  EXPECT_EQ(Relaxed.count(), 4);
  EXPECT_TRUE(Relaxed.Forwarding);
}

TEST(AnalysisDelaySets, EligibilityMarkersAgreeWithTheCatalog) {
  for (const ModelDesc &D : listModels()) {
    auto M = memmodel::modelFromName(D.Name);
    ASSERT_TRUE(M.has_value()) << D.Name;
    EXPECT_EQ(D.Analysis, analysis::analysisEligible(*M)) << D.Name;
  }
  // The one named point outside the fragment is the serial mining model.
  EXPECT_FALSE(
      analysis::analysisEligible(memmodel::ModelParams::serial()));
  EXPECT_TRUE(analysis::analysisEligible(memmodel::ModelParams::sc()));
}

//===----------------------------------------------------------------------===//
// Targeted litmus shapes
//===----------------------------------------------------------------------===//

TEST(AnalysisVerdicts, StoreBufferingIsNotRobustUntilFenced) {
  FlatCase Unfenced, Fenced;
  ASSERT_TRUE(Unfenced.build(SBLitmus, {0, 0}));
  ASSERT_TRUE(Fenced.build(SBLitmusFenced, {0, 0}));

  // sc delays nothing, so everything is robust under it.
  EXPECT_TRUE(Unfenced.analyze(memmodel::ModelParams::sc()).Robust);

  for (const memmodel::ModelParams &M : memmodel::latticeModels()) {
    if (!analysis::analysisEligible(M))
      continue;
    analysis::RobustnessResult R = Unfenced.analyze(M);
    analysis::RobustnessResult RF = Fenced.analyze(M);
    if (analysis::delaySetFor(M).StoreLoad) {
      // The classic SB cycle rides on the store->load delay.
      EXPECT_FALSE(R.Robust) << memmodel::modelName(M);
      EXPECT_GT(R.CyclePairs, 0) << memmodel::modelName(M);
      EXPECT_FALSE(R.Cycles.empty()) << memmodel::modelName(M);
      EXPECT_FALSE(R.Cuts.empty()) << memmodel::modelName(M);
      // An always-executed store-load fence in both threads cuts it.
      EXPECT_TRUE(RF.Robust) << memmodel::modelName(M);
    } else {
      EXPECT_TRUE(R.Robust) << memmodel::modelName(M);
    }
  }
}

TEST(AnalysisVerdicts, DisjointLocationsAreRobustEverywhere) {
  FlatCase C;
  ASSERT_TRUE(C.build(DisjointLitmus, {0, 0}));
  for (const memmodel::ModelParams &M : memmodel::latticeModels()) {
    if (!analysis::analysisEligible(M))
      continue;
    // No inter-thread conflict edge exists, and the same-address
    // store->store / store->load pairs are statically enforced (axiom 1)
    // or forwarding-covered - except on the forwarding-free points,
    // where the store->load of the same address is a coherence hazard.
    analysis::RobustnessResult R = C.analyze(M);
    bool Hazard = !analysis::delaySetFor(M).Forwarding &&
                  analysis::delaySetFor(M).StoreLoad;
    EXPECT_EQ(R.Robust, !Hazard) << memmodel::modelName(M);
    EXPECT_EQ(R.CyclePairs, 0) << memmodel::modelName(M);
  }
}

TEST(AnalysisVerdicts, SameAddressStoreLoadHazardNeedsForwarding) {
  FlatCase C;
  ASSERT_TRUE(C.build(StoreLoadSameAddr, {0}));
  // One thread, one address: no critical cycle can exist, so the only
  // possible weakness is the load overtaking its own store - real
  // exactly when the model delays store->load without forwarding.
  analysis::RobustnessResult Fwd =
      C.analyze(memmodel::ModelParams::relaxed());
  EXPECT_TRUE(Fwd.Robust);
  auto NoFwd = memmodel::modelFromName("po:none");
  ASSERT_TRUE(NoFwd.has_value());
  analysis::RobustnessResult Bare = C.analyze(*NoFwd);
  EXPECT_FALSE(Bare.Robust);
  EXPECT_GT(Bare.CoherenceHazards, 0);
  EXPECT_EQ(Bare.CyclePairs, 0);
}

//===----------------------------------------------------------------------===//
// Robustness is sound against the brute-force enumerator
//===----------------------------------------------------------------------===//

TEST(AnalysisDifferential, RobustImpliesScEqualObservations64Seeds) {
  explore::GeneratorLimits Limits;
  Limits.SymbolicPerMille = 0; // litmus programs only
  int Robust = 0, Compared = 0;
  for (unsigned long long Seed = 1; Seed <= 64; ++Seed) {
    explore::Generator Gen(Seed, Limits);
    explore::Scenario S = Gen.at(0);
    FlatCase C;
    ASSERT_TRUE(C.build(S.Source, S.ThreadArgs)) << "seed " << Seed;

    memmodel::AxiomaticOptions ScOpts;
    ScOpts.Model = memmodel::ModelParams::sc();
    memmodel::OracleResult ScObs =
        memmodel::enumerateAxiomatic(C.Ctx->encoding().flat(), ScOpts);

    for (const memmodel::ModelParams &M : memmodel::latticeModels()) {
      if (!analysis::analysisEligible(M))
        continue;
      analysis::RobustnessResult R = C.analyze(M);
      if (!R.Robust)
        continue;
      ++Robust;
      memmodel::AxiomaticOptions MOpts;
      MOpts.Model = M;
      memmodel::OracleResult MObs =
          memmodel::enumerateAxiomatic(C.Ctx->encoding().flat(), MOpts);
      if (!ScObs.Ok || !MObs.Ok)
        continue; // outside the enumerator fragment (or over budget)
      ++Compared;
      EXPECT_EQ(MObs.Observations, ScObs.Observations)
          << "robust program observed non-sc behaviour on "
          << memmodel::modelName(M) << " (seed " << Seed << ")\n"
          << S.Source;
    }
  }
  // The sweep must exercise the claim, not vacuously pass.
  EXPECT_GT(Robust, 0);
  EXPECT_GT(Compared, 0);
}

//===----------------------------------------------------------------------===//
// Robustness against the SAT pipeline: robust points decide as sc does
//===----------------------------------------------------------------------===//

namespace {

/// On every analysis-eligible point other than sc where the analysis
/// proves \p C robust, runCheck must give sc's status and specification,
/// and the fresh reference pipeline must agree with it. Returns how many
/// robust points were checked.
int checkRobustPointsDecideAsSc(FlatCase &C, const std::string &Label) {
  const memmodel::ModelParams Sc = memmodel::ModelParams::sc();
  std::optional<checker::CheckResult> AtSc;
  int Robust = 0;
  for (const memmodel::ModelParams &M : memmodel::latticeModels()) {
    if (M == Sc || !analysis::analysisEligible(M) || !C.analyze(M).Robust)
      continue;
    ++Robust;
    checker::CheckOptions Opts;
    if (!AtSc) {
      Opts.Model = Sc;
      AtSc = checker::runCheck(C.Prog, C.Threads, Opts);
    }
    Opts.Model = M;
    checker::CheckResult R = checker::runCheck(C.Prog, C.Threads, Opts);
    checker::CheckResult F = checker::runCheckFresh(C.Prog, C.Threads, Opts);
    std::string Where = Label + " on " + memmodel::modelName(M);
    EXPECT_EQ(R.Status, AtSc->Status) << Where;
    EXPECT_EQ(R.Spec, AtSc->Spec) << Where;
    EXPECT_EQ(F.Status, R.Status) << Where;
    EXPECT_EQ(F.Spec, R.Spec) << Where;
    EXPECT_EQ(F.FinalBounds, R.FinalBounds) << Where;
  }
  return Robust;
}

} // namespace

TEST(AnalysisSoundness, RobustLitmusPointsDecideAsSc) {
  explore::GeneratorLimits Limits;
  Limits.SymbolicPerMille = 0;
  explore::Generator Gen(7, Limits);
  int Robust = 0;
  for (int I = 0; I < 12; ++I) {
    explore::Scenario S = Gen.at(I);
    FlatCase C;
    ASSERT_TRUE(C.build(S.Source, S.ThreadArgs)) << "scenario " << I;
    Robust += checkRobustPointsDecideAsSc(C, "litmus-" + std::to_string(I));
  }
  // Generated litmus programs are frequently robust: the property must
  // be exercised somewhere in this stream, not pass vacuously.
  EXPECT_GT(Robust, 0);
}

TEST(AnalysisSoundness, RobustCatalogPointsDecideAsSc) {
  // Every catalog impl on its kind's smallest test, across the lattice.
  // Lock-free impls keep critical cycles alive on the weak points even
  // with their shipped fences, so few or no robust points is the
  // expected outcome; log the count rather than assert it.
  int Robust = 0;
  for (const impls::ImplInfo &I : impls::allImpls()) {
    std::string TestName;
    for (const TestDesc &T : listTests())
      if (T.Kind == I.Kind) {
        TestName = T.Name;
        break;
      }
    ASSERT_FALSE(TestName.empty()) << I.Name;
    FlatCase C;
    ASSERT_TRUE(C.buildCatalog(I.Name, TestName)) << I.Name;
    Robust += checkRobustPointsDecideAsSc(C, I.Name + "/" + TestName);
  }
  RecordProperty("catalog_robust_points", Robust);
}

//===----------------------------------------------------------------------===//
// The public analyze() surface
//===----------------------------------------------------------------------===//

TEST(AnalyzeRequest, LatticeRowsAndJobDeterminism) {
  Verifier V;
  AnalysisOutcome A = V.analyze(Request::analyze("msn", "T0"));
  ASSERT_TRUE(A.Ok) << A.Error;
  EXPECT_EQ(A.Models.size(), memmodel::latticeModels().size());
  EXPECT_GT(A.Loads, 0);
  EXPECT_GT(A.Stores, 0);

  int Eligible = 0, Ineligible = 0;
  for (const AnalysisModelRow &Row : A.Models) {
    (Row.Eligible ? Eligible : Ineligible)++;
    EXPECT_FALSE(Row.Reason.empty()) << Row.Model;
    if (!Row.Eligible)
      EXPECT_FALSE(Row.Robust) << Row.Model;
  }
  EXPECT_GT(Eligible, 0);
  EXPECT_GT(Ineligible, 0); // the serial mining point

  // msn's shipped placement keeps the tests passing but the program is
  // not whole-program robust on the weak points: the lint must say so.
  EXPECT_FALSE(A.allRobust());

  // Byte-identical JSON at any job count (the CI smoke contract).
  std::string J1 = A.json();
  VerifierConfig Cfg;
  Cfg.Jobs = 4;
  Verifier V4(Cfg);
  AnalysisOutcome A4 = V4.analyze(Request::analyze("msn", "T0"));
  ASSERT_TRUE(A4.Ok);
  EXPECT_EQ(J1, A4.json());

  // Narrowed model axis and error paths.
  AnalysisOutcome One =
      V.analyze(Request::analyze("msn", "T0").model("tso"));
  ASSERT_TRUE(One.Ok);
  ASSERT_EQ(One.Models.size(), 1u);
  EXPECT_EQ(One.Models[0].Model, "tso");
  AnalysisOutcome Bad =
      V.analyze(Request::analyze("msn", "T0").model("nonsense"));
  EXPECT_FALSE(Bad.Ok);
  AnalysisOutcome BadImpl = V.analyze(Request::analyze("nope", "T0"));
  EXPECT_FALSE(BadImpl.Ok);
}

TEST(AnalyzeRequest, SourceRequestsAnalyzeLikeCatalogOnes) {
  // A built-in source submitted as a user source must produce the same
  // analysis as the catalog name (modulo the display label).
  Verifier V;
  Request ByName = Request::analyze("treiber", "U0");
  Request BySource =
      Request::analyze()
          .source(implementationSource("treiber").substr(
              preludeSource().size()))
          .label("treiber")
          .dataType("stack")
          .notation(harness::findCatalogEntry("U0")->Notation);
  AnalysisOutcome A = V.analyze(ByName);
  AnalysisOutcome B = V.analyze(BySource);
  ASSERT_TRUE(A.Ok) << A.Error;
  ASSERT_TRUE(B.Ok) << B.Error;
  // The test label differs ("U0" vs. the notation's "custom"); every
  // analysis result must not.
  EXPECT_EQ(A.Loads, B.Loads);
  EXPECT_EQ(A.Stores, B.Stores);
  EXPECT_EQ(A.Fences, B.Fences);
  ASSERT_EQ(A.Models.size(), B.Models.size());
  for (size_t I = 0; I < A.Models.size(); ++I) {
    EXPECT_EQ(A.Models[I].Robust, B.Models[I].Robust);
    EXPECT_EQ(A.Models[I].DelayedPairs, B.Models[I].DelayedPairs);
    EXPECT_EQ(A.Models[I].CyclePairs, B.Models[I].CyclePairs);
    EXPECT_EQ(A.Models[I].Cycles, B.Models[I].Cycles);
  }
}
