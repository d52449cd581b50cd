//===--- CheckerTests.cpp - end-to-end pipeline tests ----------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "checker/Unrolling.h"
#include "explore/Generator.h"
#include "frontend/Lowering.h"
#include "harness/Catalog.h"
#include "impls/Impls.h"
#include "memmodel/ReferenceExecutor.h"

#include "gtest/gtest.h"

using namespace checkfence;
using namespace checkfence::checker;
using namespace checkfence::harness;

namespace {

RunOptions relaxedOpts() {
  RunOptions O;
  O.Check.Model = memmodel::ModelParams::relaxed();
  return O;
}

RunOptions scOpts() {
  RunOptions O;
  O.Check.Model = memmodel::ModelParams::sc();
  return O;
}

//===----------------------------------------------------------------------===//
// Reference implementations against themselves (sanity).
//===----------------------------------------------------------------------===//

TEST(RefImpls, QueueSpecOnT0) {
  // For T0 = (e | d): X in {EMPTY, A} -> spec has exactly the serial
  // observations: A in {0,1}, X in {2, A}.
  CheckResult R = runTest(impls::referenceFor("queue"), testByName("T0"),
                          scOpts());
  ASSERT_EQ(R.Status, Status::Pass) << R.Message;
  // Observations: (A, X): (0,2), (0,0), (1,2), (1,1).
  EXPECT_EQ(R.Spec.size(), 4u);
  for (const Observation &O : R.Spec) {
    ASSERT_EQ(O.Values.size(), 2u);
    ASSERT_TRUE(O.Values[0].isInt());
    ASSERT_TRUE(O.Values[1].isInt());
    int64_t A = O.Values[0].intValue();
    int64_t X = O.Values[1].intValue();
    EXPECT_TRUE(X == 2 || X == A);
  }
}

TEST(RefImpls, SetSpecOnSac) {
  // Sac = (a | c): add(v1) in thread 1, contains(v2) in thread 2.
  CheckResult R = runTest(impls::referenceFor("set"), testByName("Sac"),
                          scOpts());
  ASSERT_EQ(R.Status, Status::Pass) << R.Message;
  for (const Observation &O : R.Spec) {
    ASSERT_EQ(O.Values.size(), 4u); // a-arg, a-ret, c-arg, c-ret
    int64_t AddArg = O.Values[0].intValue();
    int64_t AddRet = O.Values[1].intValue();
    int64_t CArg = O.Values[2].intValue();
    int64_t CRet = O.Values[3].intValue();
    EXPECT_EQ(AddRet, 1); // fresh set: add always succeeds
    if (CArg != AddArg)
      EXPECT_EQ(CRet, 0); // other key never present
  }
}

//===----------------------------------------------------------------------===//
// Cross-validation: SAT-based serial mining vs explicit-state enumeration.
//===----------------------------------------------------------------------===//

void crossValidateSpec(const std::string &Source, const std::string &Test) {
  frontend::DiagEngine Diags;
  lsl::Program Prog;
  ASSERT_TRUE(frontend::compileC(Source, {}, Prog, Diags))
      << Diags.str();
  TestSpec Spec = testByName(Test);
  std::vector<std::string> Threads = buildTestThreads(Prog, Spec);

  // SAT-based mining.
  ProblemConfig Cfg;
  Cfg.Model = memmodel::ModelParams::serial();
  SolveContext Ctx(Prog, Threads, {}, Cfg);
  ProblemEncoding &Enc = Ctx.encoding();
  ASSERT_TRUE(Enc.ok()) << Enc.error();
  MiningOutcome Mined = mineSpecification(Ctx);
  ASSERT_TRUE(Mined.Ok) << Mined.Error;
  ASSERT_FALSE(Mined.SequentialBug);

  // Explicit-state enumeration of the same flat program.
  memmodel::RefOptions RO;
  RO.InvocationGranularity = true;
  memmodel::OracleResult RefSet = memmodel::enumerateExecutions(Enc.flat(), RO);
  ASSERT_TRUE(RefSet.Ok) << RefSet.Error;

  std::set<Observation> RefObs;
  for (const memmodel::RefObservation &O : RefSet.Observations) {
    Observation C;
    C.Error = O.Error;
    C.Values = O.Values;
    RefObs.insert(C);
  }
  EXPECT_EQ(Mined.Spec, RefObs)
      << "mined " << Mined.Spec.size() << " vs enumerated "
      << RefObs.size();
}

//===----------------------------------------------------------------------===//
// One shared unrolling under every lattice point.
//===----------------------------------------------------------------------===//

/// At every lattice point, a context built on one shared Unrolling is the
/// same SAT instance as one that unrolls the program itself, and mines
/// the same observation set.
void expectSharedUnrollingEncodesAlike(
    const lsl::Program &Prog, const std::vector<std::string> &Threads) {
  std::shared_ptr<const Unrolling> Shared = unroll(Prog, Threads, {});
  ASSERT_TRUE(Shared->ok()) << Shared->Error;
  for (const memmodel::ModelParams &M : memmodel::latticeModels()) {
    SCOPED_TRACE(memmodel::modelName(M));
    ProblemConfig Cfg;
    Cfg.Model = M;
    SolveContext Own(Prog, Threads, {}, Cfg);
    SolveContext OnShared(Shared, Cfg);
    ASSERT_TRUE(Own.encoding().ok()) << Own.encoding().error();
    ASSERT_TRUE(OnShared.encoding().ok()) << OnShared.encoding().error();
    EXPECT_EQ(&OnShared.encoding().flat(), &Shared->Flat);
    const EncodeStats &A = Own.encoding().stats();
    const EncodeStats &B = OnShared.encoding().stats();
    EXPECT_EQ(A.SatVars, B.SatVars);
    EXPECT_EQ(A.SatClauses, B.SatClauses);
    EXPECT_EQ(A.UnrolledInstrs, B.UnrolledInstrs);
    MiningOutcome MinedOwn = mineSpecification(Own);
    MiningOutcome MinedShared = mineSpecification(OnShared);
    EXPECT_EQ(MinedOwn.Ok, MinedShared.Ok);
    EXPECT_EQ(MinedOwn.SequentialBug, MinedShared.SequentialBug);
    EXPECT_EQ(MinedOwn.Spec, MinedShared.Spec);
  }
  // The contexts are gone; nothing else kept the unrolling.
  EXPECT_EQ(Shared.use_count(), 1);
}

TEST(SharedUnrolling, Ms2T0EncodesAlikeAtEveryLatticePoint) {
  frontend::DiagEngine Diags;
  lsl::Program Prog;
  ASSERT_TRUE(frontend::compileC(impls::sourceFor("ms2"), {}, Prog, Diags))
      << Diags.str();
  std::vector<std::string> Threads =
      buildTestThreads(Prog, testByName("T0"));
  expectSharedUnrollingEncodesAlike(Prog, Threads);
}

TEST(SharedUnrolling, ExploreLitmusEncodesAlikeAtEveryLatticePoint) {
  explore::GeneratorLimits Limits;
  Limits.SymbolicPerMille = 0;
  explore::Scenario S = explore::Generator(1, Limits).at(0);
  ASSERT_EQ(S.K, explore::Scenario::Kind::Litmus);
  frontend::DiagEngine Diags;
  lsl::Program Prog;
  ASSERT_TRUE(frontend::compileC(S.Source, {}, Prog, Diags)) << Diags.str();
  TestSpec Spec;
  Spec.Name = "explore";
  for (size_t T = 0; T < S.ThreadArgs.size(); ++T)
    Spec.Threads.push_back(
        {OpSpec{"t" + std::to_string(T) + "_op", S.ThreadArgs[T], false,
                false}});
  expectSharedUnrollingEncodesAlike(Prog, buildTestThreads(Prog, Spec));
}

TEST(SharedUnrolling, UnknownThreadProcedureIsAnEncodingError) {
  frontend::DiagEngine Diags;
  lsl::Program Prog;
  ASSERT_TRUE(frontend::compileC(impls::sourceFor("ms2"), {}, Prog, Diags))
      << Diags.str();
  const std::string Expected =
      "flattening failed: unknown thread procedure 'no_such_thread'";
  std::shared_ptr<const Unrolling> U = unroll(Prog, {"no_such_thread"}, {});
  EXPECT_FALSE(U->ok());
  EXPECT_EQ(U->Error, Expected);
  SolveContext Ctx(Prog, {"no_such_thread"}, {}, ProblemConfig{});
  EXPECT_FALSE(Ctx.encoding().ok());
  EXPECT_EQ(Ctx.encoding().error(), Expected);
  EXPECT_EQ(Ctx.encoding().stats().UnrolledInstrs, 0);
}

TEST(CrossValidation, RefQueueT0) {
  crossValidateSpec(impls::referenceFor("queue"), "T0");
}

TEST(CrossValidation, RefQueueTi2) {
  crossValidateSpec(impls::referenceFor("queue"), "Ti2");
}

TEST(CrossValidation, RefSetSacr) {
  crossValidateSpec(impls::referenceFor("set"), "Sacr");
}

TEST(CrossValidation, RefDequeD0) {
  crossValidateSpec(impls::referenceFor("deque"), "D0");
}

TEST(CrossValidation, MsnQueueT0) {
  crossValidateSpec(impls::sourceFor("msn"), "T0");
}

//===----------------------------------------------------------------------===//
// The headline results (Sec. 4) on the smallest tests.
//===----------------------------------------------------------------------===//

TEST(EndToEnd, MsnPassesT0OnRelaxedWithFences) {
  CheckResult R =
      runTest(impls::sourceFor("msn"), testByName("T0"), relaxedOpts());
  EXPECT_EQ(R.Status, Status::Pass) << R.Message;
}

TEST(EndToEnd, MsnFailsT0OnRelaxedWithoutFences) {
  RunOptions O = relaxedOpts();
  O.StripFences = true;
  CheckResult R = runTest(impls::sourceFor("msn"), testByName("T0"), O);
  EXPECT_EQ(R.Status, Status::Fail) << R.Message;
  ASSERT_TRUE(R.Counterexample.has_value());
}

TEST(EndToEnd, MsnPassesT0OnSCWithoutFences) {
  // The unfenced algorithm is correct under sequential consistency.
  RunOptions O = scOpts();
  O.StripFences = true;
  CheckResult R = runTest(impls::sourceFor("msn"), testByName("T0"), O);
  EXPECT_EQ(R.Status, Status::Pass) << R.Message;
}

TEST(EndToEnd, LazylistBugFoundOnSac) {
  RunOptions O = scOpts();
  O.Defines = {"LAZYLIST_INIT_BUG"};
  CheckResult R =
      runTest(impls::sourceFor("lazylist"), testByName("Sac"), O);
  EXPECT_EQ(R.Status, Status::SequentialBug) << R.Message;
  ASSERT_TRUE(R.Counterexample.has_value());
}

TEST(EndToEnd, LazylistPassesSacOnRelaxedWithFences) {
  CheckResult R = runTest(impls::sourceFor("lazylist"), testByName("Sac"),
                          relaxedOpts());
  EXPECT_EQ(R.Status, Status::Pass) << R.Message;
}

} // namespace
