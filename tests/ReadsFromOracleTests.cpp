//===--- ReadsFromOracleTests.cpp - polynomial oracle vs. brute force --------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
// Differential testing of the reads-from oracle: on every non-serial
// point of the relaxation lattice its observation set must equal the
// AxiomaticEnumerator's brute-force order enumeration (and under sc the
// ReferenceExecutor's interleaving enumeration), across hand-written
// litmus shapes, randomly generated programs and the explore generator's
// own litmus stream. The two checkers share the StaticExecution kernel
// (fragment, static edges, evaluation of one execution) and differ in
// their search: total orders against reads-from maps. Also covered:
// lattice monotonicity of the oracle's observation sets, the typed skip
// reasons both oracles report (and their byte-identical messages), the
// eligibility predicate over the lattice, and the explore runner's skip
// accounting and report being independent of which oracle answered.
//
//===----------------------------------------------------------------------===//

#include "checkfence/checkfence.h"

#include "checker/SpecMiner.h"
#include "explore/Differential.h"
#include "explore/Explore.h"
#include "frontend/Lowering.h"
#include "harness/TestSpec.h"
#include "memmodel/AxiomaticEnumerator.h"
#include "memmodel/ReadsFromOracle.h"
#include "memmodel/ReferenceExecutor.h"

#include "ObservationPrint.h"

#include "gtest/gtest.h"

#include <random>
#include <sstream>

using namespace checkfence;
using namespace checkfence::checker;
using namespace checkfence::harness;

namespace {

/// The lattice points the fast oracle covers: every non-serial one.
std::vector<memmodel::ModelParams> eligibleModels() {
  std::vector<memmodel::ModelParams> Out;
  for (const memmodel::ModelParams &M : memmodel::latticeModels())
    if (memmodel::readsFromEligible(M))
      Out.push_back(M);
  return Out;
}

bool isSubset(const std::set<memmodel::RefObservation> &A,
              const std::set<memmodel::RefObservation> &B) {
  return std::includes(B.begin(), B.end(), A.begin(), A.end());
}

struct ThreadOps {
  std::string Proc;
  int NumArgs = 0;
};

/// Compiles \p Source, builds one thread per \p Ops entry, and checks the
/// reads-from oracle against the order enumerator on every point of
/// \p Models (and against the ReferenceExecutor under sc). Skips must
/// agree too - same typed reason, same message; each one is appended to
/// \p Skips as "label on model: message" when given. Returns the number
/// of points where observation sets were actually compared.
int compareOracles(const std::string &Source,
                   const std::vector<ThreadOps> &Ops,
                   const std::string &Label,
                   const std::vector<memmodel::ModelParams> &Models =
                       eligibleModels(),
                   std::vector<std::string> *Skips = nullptr) {
  frontend::DiagEngine Diags;
  lsl::Program Prog;
  EXPECT_TRUE(frontend::compileC(Source, {}, Prog, Diags))
      << Label << ":\n" << Source << "\n" << Diags.str();

  TestSpec Spec;
  Spec.Name = "rf-oracle";
  for (const ThreadOps &Op : Ops)
    Spec.Threads.push_back({OpSpec{Op.Proc, Op.NumArgs, false, false}});
  std::vector<std::string> Threads = buildTestThreads(Prog, Spec);

  // Per-point sets that compared cleanly, for the monotonicity check.
  std::vector<std::pair<memmodel::ModelParams,
                        std::set<memmodel::RefObservation>>>
      CleanSets;

  int Compared = 0;
  for (const memmodel::ModelParams &Model : Models) {
    ProblemConfig Cfg;
    Cfg.Model = Model;
    SolveContext Ctx(Prog, Threads, {}, Cfg);
    ProblemEncoding &Enc = Ctx.encoding();
    if (!Enc.ok()) {
      ADD_FAILURE() << Label << ": " << Enc.error();
      return Compared;
    }

    memmodel::ReadsFromOptions RO;
    RO.Model = Model;
    memmodel::OracleResult RF = memmodel::checkReadsFrom(Enc.flat(), RO);
    memmodel::AxiomaticOptions AO;
    AO.Model = Model;
    memmodel::OracleResult Slow = memmodel::enumerateAxiomatic(Enc.flat(), AO);

    // Fragment/skip agreement is part of the contract: the explore
    // report must not depend on which oracle ran.
    EXPECT_EQ(RF.Ok, Slow.Ok)
        << Label << " on " << memmodel::modelName(Model)
        << ": rf='" << RF.Error << "' enum='" << Slow.Error << "'\n"
        << Source;
    if (!RF.Ok || !Slow.Ok) {
      if (!RF.Ok && !Slow.Ok) {
        EXPECT_EQ(RF.Reason, Slow.Reason) << Label;
        EXPECT_EQ(RF.Error, Slow.Error) << Label;
      }
      if (Skips)
        Skips->push_back(Label + " on " + memmodel::modelName(Model) +
                         ": " + RF.Error);
      continue;
    }

    EXPECT_EQ(RF.Observations, Slow.Observations)
        << Label << " disagrees on " << memmodel::modelName(Model)
        << "\n  reads-from: " << show(RF.Observations)
        << "\n  enumerator: " << show(Slow.Observations) << "\n"
        << Source;

    if (Model == memmodel::ModelParams::sc()) {
      memmodel::OracleResult Interleaved =
          memmodel::enumerateExecutions(Enc.flat(), memmodel::RefOptions{});
      EXPECT_TRUE(Interleaved.Ok) << Label << ": " << Interleaved.Error;
      EXPECT_EQ(RF.Observations, Interleaved.Observations)
          << Label << " disagrees with the reference executor under sc"
          << "\n  reads-from: " << show(RF.Observations)
          << "\n  reference:  " << show(Interleaved.Observations) << "\n"
          << Source;
    }

    CleanSets.emplace_back(Model, RF.Observations);
    ++Compared;
  }

  // Lattice monotonicity of the oracle's own verdicts: every execution
  // allowed under a stronger point is allowed under a weaker one.
  for (size_t A = 0; A < CleanSets.size(); ++A)
    for (size_t B = 0; B < CleanSets.size(); ++B) {
      if (A == B || !memmodel::atLeastAsStrong(CleanSets[A].first,
                                               CleanSets[B].first))
        continue;
      EXPECT_TRUE(isSubset(CleanSets[A].second, CleanSets[B].second))
          << Label << ": " << memmodel::modelName(CleanSets[A].first)
          << " not-subset-of " << memmodel::modelName(CleanSets[B].first)
          << "\n  " << show(CleanSets[A].second) << "\n  "
          << show(CleanSets[B].second) << "\n" << Source;
    }
  return Compared;
}

#define LITMUS_HEADER                                                        \
  "extern void observe(int v);\n"                                           \
  "extern void fence(char *type);\n"

//===----------------------------------------------------------------------===//
// Hand-written litmus shapes.
//===----------------------------------------------------------------------===//

TEST(ReadsFromOracle, StoreBuffering) {
  compareOracles(LITMUS_HEADER R"(
int x; int y;
void init_op(void) { x = 0; y = 0; }
void t1_op(void) { x = 1; observe(y); }
void t2_op(void) { y = 1; observe(x); }
)",
                 {{"t1_op"}, {"t2_op"}}, "sb");
}

TEST(ReadsFromOracle, StoreBufferingFenced) {
  compareOracles(LITMUS_HEADER R"(
int x; int y;
void init_op(void) { x = 0; y = 0; }
void t1_op(void) { x = 1; fence("store-load"); observe(y); }
void t2_op(void) { y = 1; fence("store-load"); observe(x); }
)",
                 {{"t1_op"}, {"t2_op"}}, "sb+fence");
}

TEST(ReadsFromOracle, MessagePassingFenced) {
  compareOracles(LITMUS_HEADER R"(
int data; int flag;
void init_op(void) { data = 0; flag = 0; }
void producer_op(void) { data = 1; fence("store-store"); flag = 1; }
void consumer_op(void) { int f = flag; fence("load-load"); int d = data;
                         observe(f); observe(d); }
)",
                 {{"producer_op"}, {"consumer_op"}}, "mp+fences");
}

TEST(ReadsFromOracle, Iriw) {
  compareOracles(LITMUS_HEADER R"(
int x; int y;
void init_op(void) { x = 0; y = 0; }
void w1_op(void) { x = 1; }
void w2_op(void) { y = 1; }
void r1_op(void) { int a = x; fence("load-load"); int b = y;
                   observe(a); observe(b); }
void r2_op(void) { int c = y; fence("load-load"); int d = x;
                   observe(c); observe(d); }
)",
                 {{"w1_op"}, {"w2_op"}, {"r1_op"}, {"r2_op"}}, "iriw");
}

TEST(ReadsFromOracle, CoherenceAndForwarding) {
  // Same-address stores plus a reader: exercises the coherence
  // disjunctions and the store-forwarding visibility rule.
  compareOracles(LITMUS_HEADER R"(
int x;
void init_op(void) { x = 0; }
void writer_op(void) { x = 1; x = 2; observe(x); }
void reader_op(void) { int a = x; int b = x; observe(a); observe(b); }
)",
                 {{"writer_op"}, {"reader_op"}}, "coherence+fwd");
}

TEST(ReadsFromOracle, AtomicIncrements) {
  // Atomic blocks become contracted supernodes in the constraint graph.
  compareOracles(LITMUS_HEADER R"(
int x;
void init_op(void) { x = 0; }
void incr_op(void) {
  int t;
  atomic { t = x; x = t + 1; }
  observe(t);
}
)",
                 {{"incr_op"}, {"incr_op"}}, "atomic-incr");
}

TEST(ReadsFromOracle, SymbolicArguments) {
  // Choice values are enumerated outside the per-assignment search; the
  // budget spans all of them.
  compareOracles(LITMUS_HEADER R"(
int x; int y;
void init_op(void) { x = 0; y = 0; }
void w_op(int v) { x = v; y = v + 1; }
void r_op(void) { int a = y; int b = x; observe(a); observe(b); }
)",
                 {{"w_op", 1}, {"r_op"}}, "choice-args");
}

TEST(ReadsFromOracle, DependentData) {
  // Store data depending on loads chains value evaluation across the
  // reads-from assignment (and can go cyclic - then both sides skip).
  compareOracles(LITMUS_HEADER R"(
int x; int y;
void init_op(void) { x = 0; y = 0; }
void t1_op(void) { x = 1; }
void t2_op(void) { int r = x; y = r; }
void t3_op(void) { int s = y; observe(s); }
)",
                 {{"t1_op"}, {"t2_op"}, {"t3_op"}}, "dep-data");
}

TEST(ReadsFromOracle, ThreeThreadsMixed) {
  compareOracles(LITMUS_HEADER R"(
int x; int y; int z;
void init_op(void) { x = 0; y = 0; z = 0; }
void t1_op(void) { x = 1; fence("store-store"); y = 1; }
void t2_op(void) { int a = y; z = 2; observe(a); }
void t3_op(void) { int b = z; int c = x; observe(b); observe(c); }
)",
                 {{"t1_op"}, {"t2_op"}, {"t3_op"}}, "3t-mixed");
}

//===----------------------------------------------------------------------===//
// Randomly generated programs (property sweep), same shape family as the
// AxiomaticOracleTests generator: branch-free threads over shared
// variables with constant/argument/loaded stores, random fences, atomic
// read-modify-write blocks, and observations.
//===----------------------------------------------------------------------===//

struct GenProgram {
  std::string Source;
  std::vector<ThreadOps> Ops;
};

GenProgram generate(unsigned Seed) {
  std::mt19937 Rng(Seed);
  auto Pick = [&](int N) { return static_cast<int>(Rng() % N); };
  const char *Vars[] = {"x", "y", "z"};
  const char *Fences[] = {"load-load", "load-store", "store-load",
                          "store-store"};

  int NumVars = 2 + Pick(2);
  int NumThreads = 2 + Pick(2);
  int Budget = 7;

  std::ostringstream Src;
  Src << LITMUS_HEADER;
  for (int V = 0; V < NumVars; ++V)
    Src << "int " << Vars[V] << ";\n";
  Src << "void init_op(void) {";
  for (int V = 0; V < NumVars; ++V)
    Src << " " << Vars[V] << " = 0;";
  Src << " }\n";

  GenProgram Out;
  int RegNum = 0;
  for (int T = 0; T < NumThreads; ++T) {
    int Len = 1 + Pick(3);
    bool UsesArg = false;
    std::ostringstream Body;
    for (int S = 0; S < Len && Budget > 0; ++S) {
      switch (Pick(6)) {
      case 0: // store constant
        Body << "  " << Vars[Pick(NumVars)] << " = " << 1 + Pick(2)
             << ";\n";
        Budget -= 1;
        break;
      case 1: // store the symbolic argument
        Body << "  " << Vars[Pick(NumVars)] << " = v;\n";
        UsesArg = true;
        Budget -= 1;
        break;
      case 2: { // load and observe
        int R = RegNum++;
        Body << "  int r" << R << " = " << Vars[Pick(NumVars)]
             << "; observe(r" << R << ");\n";
        Budget -= 1;
        break;
      }
      case 3: { // load and republish (dependent store data)
        int R = RegNum++;
        Body << "  int r" << R << " = " << Vars[Pick(NumVars)] << "; "
             << Vars[Pick(NumVars)] << " = r" << R << ";\n";
        Budget -= 2;
        break;
      }
      case 4: // fence
        Body << "  fence(\"" << Fences[Pick(4)] << "\");\n";
        break;
      case 5: { // atomic read-modify-write
        int R = RegNum++;
        const char *V = Vars[Pick(NumVars)];
        Body << "  int r" << R << ";\n  atomic { r" << R << " = " << V
             << "; " << V << " = r" << R << " + 1; }\n  observe(r" << R
             << ");\n";
        Budget -= 2;
        break;
      }
      }
    }
    std::string Proc = "t" + std::to_string(T) + "_op";
    Src << "void " << Proc << "(" << (UsesArg ? "int v" : "void")
        << ") {\n"
        << Body.str() << "}\n";
    Out.Ops.push_back({Proc, UsesArg ? 1 : 0});
  }
  Out.Source = Src.str();
  return Out;
}

class RandomRf : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomRf, OracleMatchesEnumerator) {
  GenProgram G = generate(GetParam());
  int Compared = compareOracles(G.Source, G.Ops,
                                "seed " + std::to_string(GetParam()));
  // At the very least sc must have been comparable: no cyclic value
  // dependency can arise where <M embeds all of <p.
  EXPECT_GE(Compared, 1) << G.Source;
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomRf, ::testing::Range(0u, 64u));

TEST(ReadsFromOracle, ExploreLitmusStreamMatchesEnumerator) {
  // The explore generator's own litmus stream (seed 1, no symbolic
  // scenarios): its first 120 programs on the nine non-serial lattice
  // points, 1080 cells. Every reads-from set must equal the
  // enumerator's. Exactly four cells skip, both oracles alike:
  // litmus-75 is a load-buffering shape whose stores copy the loaded
  // values, so on the four points that drop load-store order (rmo,
  // po:ss,fwd, relaxed, po:none) a load may read a store that depends
  // on it - a cyclic value dependency, outside both oracles' fragment.
  explore::GeneratorLimits Limits;
  Limits.SymbolicPerMille = 0;
  explore::Generator Gen(1, Limits);
  const std::vector<memmodel::ModelParams> Models = eligibleModels();
  ASSERT_EQ(Models.size(), 9u);
  int Compared = 0;
  std::vector<std::string> Skips;
  for (int I = 0; I < 120; ++I) {
    explore::Scenario S = Gen.at(I);
    ASSERT_EQ(S.K, explore::Scenario::Kind::Litmus) << I;
    std::vector<ThreadOps> Ops;
    for (size_t T = 0; T < S.ThreadArgs.size(); ++T)
      Ops.push_back({"t" + std::to_string(T) + "_op", S.ThreadArgs[T]});
    Compared += compareOracles(S.Source, Ops, S.label(), Models, &Skips);
  }
  const std::vector<std::string> ExpectedSkips = {
      "litmus-75 on rmo: cyclic value dependency",
      "litmus-75 on po:ss,fwd: cyclic value dependency",
      "litmus-75 on relaxed: cyclic value dependency",
      "litmus-75 on po:none: cyclic value dependency"};
  EXPECT_EQ(Skips, ExpectedSkips);
  EXPECT_EQ(Compared, 1080 - static_cast<int>(ExpectedSkips.size()));
}

//===----------------------------------------------------------------------===//
// Typed skip reasons: both oracles classify identically and render the
// exact same message - the explore skip strings depend on it.
//===----------------------------------------------------------------------===//

struct CompiledLitmus {
  lsl::Program Prog;
  std::vector<std::string> Threads;
};

CompiledLitmus compileLitmus(const std::string &Source,
                             const std::vector<ThreadOps> &Ops) {
  CompiledLitmus Out;
  frontend::DiagEngine Diags;
  EXPECT_TRUE(frontend::compileC(Source, {}, Out.Prog, Diags))
      << Diags.str();
  TestSpec Spec;
  Spec.Name = "skip";
  for (const ThreadOps &Op : Ops)
    Spec.Threads.push_back({OpSpec{Op.Proc, Op.NumArgs, false, false}});
  Out.Threads = buildTestThreads(Out.Prog, Spec);
  return Out;
}

const char *GuardDependsSource = LITMUS_HEADER R"(
int x; int y;
void init_op(void) { x = 0; y = 0; }
void t0_op(void) { int r = x; if (r) { y = 1; } }
void t1_op(void) { x = 1; observe(y); }
)";

/// \p N same-address stores, one statement each.
std::string stores(int N) {
  std::string Out;
  for (int I = 0; I < N; ++I)
    Out += " x = " + std::to_string(I + 1) + ";";
  return Out;
}

struct SkipRow {
  const char *Label;
  std::string Source;
  std::vector<ThreadOps> Ops;
  memmodel::ModelParams Model;
  /// Both oracles' search budget; 0 keeps the defaults.
  uint64_t Budget;
  memmodel::OracleSkip Expected;
  /// The user-facing text both oracles must print, spelled out.
  const char *Message;
};

/// One input per skip reason, run through both oracles on the same model:
/// equal typed reason, equal message, and that message is the canonical
/// one. Two rows need care:
///  - A fence guard is an event guard: both oracles check the guard of
///    every event, fences included, while collecting accesses, so a
///    load-dependent fence guard reports GuardDependsOnLoad (the
///    fence-guard row pins that).
///  - CyclicValueDependency needs a model without load-store program
///    order: where load-store order is kept each load precedes its
///    dependent stores in <M, so no value cycle survives. The row uses
///    relaxed.
std::vector<SkipRow> skipRows() {
  memmodel::ModelParams Sc = memmodel::ModelParams::sc();
  const std::string AddrDepends = R"(
int x; int *p;
void init_op(void) { x = 0; p = &x; }
void t1_op(void) { observe(x); }
void t0_op(void) { int *q = p; *q = 1;)";
  return {
      {"guard", GuardDependsSource, {{"t0_op"}, {"t1_op"}}, Sc, 0,
       memmodel::OracleSkip::GuardDependsOnLoad, "guard depends on a load"},
      {"address", LITMUS_HEADER + AddrDepends + " }\n",
       {{"t0_op"}, {"t1_op"}}, Sc, 0,
       memmodel::OracleSkip::AddressDependsOnLoad, "address depends on a load"},
      {"fence-guard", LITMUS_HEADER R"(
int x; int y;
void init_op(void) { x = 0; y = 0; }
void t0_op(void) { y = 1; int r = x; if (r) { fence("store-load"); } }
void t1_op(void) { x = 1; observe(y); }
)",
       {{"t0_op"}, {"t1_op"}}, Sc, 0,
       memmodel::OracleSkip::GuardDependsOnLoad, "guard depends on a load"},
      {"bound-mark", LITMUS_HEADER R"(
int x;
void init_op(void) { x = 0; }
void t0_op(void) { while (x == 0) { } }
void t1_op(void) { x = 1; }
)",
       {{"t0_op"}, {"t1_op"}}, Sc, 0,
       memmodel::OracleSkip::BoundMarkDependsOnLoad,
       "loop-bound mark depends on a load"},
      {"exceeds", LITMUS_HEADER R"(
int x;
void init_op(void) { x = 0; }
void t0_op(void) { int i; for (i = 0; i < 2; i++) { x = i; } }
void t1_op(void) { observe(x); }
)",
       {{"t0_op"}, {"t1_op"}}, Sc, 0,
       memmodel::OracleSkip::ExceedsLoopBounds,
       "program exceeds its loop bounds"},
      // 1 init store + 62 = 63 executed accesses.
      {"too-many", LITMUS_HEADER "int x;\nvoid init_op(void) { x = 0; }\n"
                   "void t0_op(void) {" + stores(62) + " }\n",
       {{"t0_op"}}, Sc, 0, memmodel::OracleSkip::TooManyAccesses,
       "too many accesses for the bitmask search"},
      {"budget", LITMUS_HEADER R"(
int x; int y;
void init_op(void) { x = 0; y = 0; }
void t1_op(void) { x = 1; observe(y); }
void t2_op(void) { y = 1; observe(x); }
)",
       {{"t1_op"}, {"t2_op"}}, Sc, 1, memmodel::OracleSkip::BudgetExceeded,
       "search budget exceeded"},
      {"cyclic", LITMUS_HEADER R"(
int x; int y;
void init_op(void) { x = 0; y = 0; }
void t1_op(void) { int r = x; y = r; observe(r); }
void t2_op(void) { int s = y; x = s; }
)",
       {{"t1_op"}, {"t2_op"}}, memmodel::ModelParams::relaxed(), 0,
       memmodel::OracleSkip::CyclicValueDependency, "cyclic value dependency"},
      // Precedence: a load-dependent address is reported before the
      // access-count limit, however many accesses follow it.
      {"address-before-too-many",
       LITMUS_HEADER + AddrDepends + stores(62) + " }\n",
       {{"t0_op"}, {"t1_op"}}, Sc, 0,
       memmodel::OracleSkip::AddressDependsOnLoad, "address depends on a load"},
  };
}

TEST(OracleSkips, BothOraclesReportEveryReasonAlike) {
  for (const SkipRow &Row : skipRows()) {
    SCOPED_TRACE(Row.Label);
    CompiledLitmus L = compileLitmus(Row.Source, Row.Ops);
    ProblemConfig Cfg;
    Cfg.Model = Row.Model;
    SolveContext Ctx(L.Prog, L.Threads, {}, Cfg);
    ProblemEncoding &Enc = Ctx.encoding();
    ASSERT_TRUE(Enc.ok()) << Enc.error();

    memmodel::ReadsFromOptions RO;
    RO.Model = Row.Model;
    memmodel::AxiomaticOptions AO;
    AO.Model = Row.Model;
    if (Row.Budget) {
      RO.MaxAssignments = Row.Budget;
      AO.MaxOrders = Row.Budget;
    }
    memmodel::OracleResult RF = memmodel::checkReadsFrom(Enc.flat(), RO);
    memmodel::OracleResult Slow = memmodel::enumerateAxiomatic(Enc.flat(), AO);

    EXPECT_FALSE(RF.Ok);
    EXPECT_FALSE(Slow.Ok);
    EXPECT_EQ(RF.Reason, Row.Expected);
    EXPECT_EQ(Slow.Reason, Row.Expected);
    EXPECT_EQ(RF.Error, Row.Message);
    EXPECT_EQ(Slow.Error, RF.Error);
    EXPECT_EQ(memmodel::oracleSkipMessage(Slow.Reason), Slow.Error);
  }
}

ProblemConfig scConfig() {
  ProblemConfig Cfg;
  Cfg.Model = memmodel::ModelParams::sc();
  return Cfg;
}

/// Store buffering under sc, the two oracle budget tests' input.
struct ScStoreBuffering {
  CompiledLitmus L = compileLitmus(LITMUS_HEADER R"(
int x; int y;
void init_op(void) { x = 0; y = 0; }
void t1_op(void) { x = 1; observe(y); }
void t2_op(void) { y = 1; observe(x); }
)",
                                   {{"t1_op"}, {"t2_op"}});
  SolveContext Ctx{L.Prog, L.Threads, {}, scConfig()};
};

/// The three sc outcomes of store buffering: (r1, r2) != (0, 0).
const std::set<memmodel::RefObservation> &scStoreBufferingOutcomes() {
  static const std::set<memmodel::RefObservation> Outcomes = [] {
    std::set<memmodel::RefObservation> Out;
    for (auto [R1, R2] : {std::pair{0, 1}, {1, 0}, {1, 1}})
      Out.insert({false, {lsl::Value::integer(R1), lsl::Value::integer(R2)}});
    return Out;
  }();
  return Outcomes;
}

TEST(OracleSkips, EnumeratorBudgetCountsEveryOrder) {
  // The init stores come first, then the two 2-access sc chains
  // interleave: C(4,2) = 6 total orders, which share 3 reads-from maps.
  // The budget counts orders, not evaluated maps: 5 runs out, 6 answers.
  ScStoreBuffering Sb;
  ProblemEncoding &Enc = Sb.Ctx.encoding();
  ASSERT_TRUE(Enc.ok()) << Enc.error();
  memmodel::AxiomaticOptions AO;
  AO.Model = memmodel::ModelParams::sc();

  AO.MaxOrders = 5;
  memmodel::OracleResult Short = memmodel::enumerateAxiomatic(Enc.flat(), AO);
  EXPECT_FALSE(Short.Ok);
  EXPECT_EQ(Short.Reason, memmodel::OracleSkip::BudgetExceeded);
  EXPECT_EQ(Short.Error, "search budget exceeded");

  AO.MaxOrders = 6;
  memmodel::OracleResult Full = memmodel::enumerateAxiomatic(Enc.flat(), AO);
  EXPECT_TRUE(Full.Ok) << Full.Error;
  EXPECT_EQ(Full.Reason, memmodel::OracleSkip::None);
  EXPECT_EQ(Full.Error, "");
  EXPECT_EQ(Full.Observations, scStoreBufferingOutcomes());
}

TEST(OracleSkips, ReferenceExecutorReportsItsBudget) {
  // Steps count executed events over the whole interleaving tree: 2 init
  // stores, then the tree of the two 2-event threads, whose 2 + 4 + 6 + 6
  // nodes of depth 1..4 are one event each. 20 steps decide it; one less
  // truncates the last interleaving, which must be a skip, not a
  // silently partial answer.
  ScStoreBuffering Sb;
  ProblemEncoding &Enc = Sb.Ctx.encoding();
  ASSERT_TRUE(Enc.ok()) << Enc.error();
  memmodel::RefOptions RO;

  RO.MaxSteps = 19;
  memmodel::OracleResult Short = memmodel::enumerateExecutions(Enc.flat(), RO);
  EXPECT_FALSE(Short.Ok);
  EXPECT_EQ(Short.Reason, memmodel::OracleSkip::BudgetExceeded);
  EXPECT_EQ(Short.Error, "search budget exceeded");

  RO.MaxSteps = 20;
  memmodel::OracleResult Full = memmodel::enumerateExecutions(Enc.flat(), RO);
  EXPECT_TRUE(Full.Ok) << Full.Error;
  EXPECT_EQ(Full.Reason, memmodel::OracleSkip::None);
  EXPECT_EQ(Full.Observations, scStoreBufferingOutcomes());
}

TEST(ReferenceExecutor, ForgetsEachChoiceAssignmentsValues) {
  // No event runs, so the search reaches its one leaf without a step.
  // The operation value the leaf memoizes (v + 1) belongs to one Choice
  // assignment and must be forgotten before the next: the observations
  // (v, v + 1) are (0,1) and (1,2), as the enumerator finds.
  CompiledLitmus L = compileLitmus(LITMUS_HEADER R"(
void init_op(void) { }
void t0_op(int v) { observe(v + 1); }
)",
                                   {{"t0_op", 1}});
  SolveContext Ctx(L.Prog, L.Threads, {}, scConfig());
  ProblemEncoding &Enc = Ctx.encoding();
  ASSERT_TRUE(Enc.ok()) << Enc.error();
  memmodel::OracleResult Ref =
      memmodel::enumerateExecutions(Enc.flat(), memmodel::RefOptions{});
  memmodel::AxiomaticOptions AO;
  AO.Model = memmodel::ModelParams::sc();
  memmodel::OracleResult Slow = memmodel::enumerateAxiomatic(Enc.flat(), AO);
  ASSERT_TRUE(Ref.Ok) << Ref.Error;
  ASSERT_TRUE(Slow.Ok) << Slow.Error;
  EXPECT_EQ(Ref.Observations.size(), 2u);
  EXPECT_EQ(Ref.Observations, Slow.Observations);
}

//===----------------------------------------------------------------------===//
// Eligibility: one predicate, "not serial", over the whole lattice.
//===----------------------------------------------------------------------===//

TEST(OracleEligibility, RegistryMatchesPredicate) {
  for (const memmodel::ModelParams &M : memmodel::latticeModels())
    EXPECT_EQ(memmodel::readsFromEligible(M), !M.SerialOps)
        << memmodel::modelName(M);
}

//===----------------------------------------------------------------------===//
// Explore integration: skip accounting is oracle-agnostic, and fast-mode
// outcomes match enumerator-mode outcomes scenario by scenario.
//===----------------------------------------------------------------------===//

explore::Scenario litmusScenario(const std::string &Source, int Index) {
  explore::Scenario S;
  S.K = explore::Scenario::Kind::Litmus;
  S.Index = Index;
  S.Source = Source;
  return S;
}

TEST(ExploreOracle, SkipStringsMatchTypedReasons) {
  Verifier V;
  explore::DiffOptions Opts;
  Opts.Models = {memmodel::ModelParams::sc(), memmodel::ModelParams::tso(),
                 memmodel::ModelParams::relaxed()};

  explore::Scenario S = litmusScenario(GuardDependsSource, 0);
  std::string Expected = std::string(memmodel::oracleSkipMessage(
      memmodel::OracleSkip::GuardDependsOnLoad));

  for (bool Fast : {true, false}) {
    Opts.UseFastOracle = Fast;
    explore::ScenarioOutcome Out =
        explore::DifferentialRunner(V, Opts).run(S);
    EXPECT_TRUE(Out.Divergences.empty());
    ASSERT_EQ(Out.Skips.size(), 3u) << "fast=" << Fast;
    EXPECT_EQ(Out.Skips[0], "sc: " + Expected);
    EXPECT_EQ(Out.Skips[1], "tso: " + Expected);
    EXPECT_EQ(Out.Skips[2], "relaxed: " + Expected);
  }
}

TEST(ExploreOracle, FastModeMatchesEnumeratorMode) {
  Verifier V;
  explore::DiffOptions Fast;
  Fast.Models = {memmodel::ModelParams::sc(), memmodel::ModelParams::tso(),
                 memmodel::ModelParams::pso()};
  // Sample every scenario: the enumerator double-checks each fast-oracle
  // answer inline on top of the outcome comparison below.
  Fast.UseFastOracle = true;
  Fast.EnumeratorSamplePeriod = 1;
  explore::DiffOptions Slow = Fast;
  Slow.UseFastOracle = false;

  for (unsigned Seed = 0; Seed < 12; ++Seed) {
    GenProgram G = generate(Seed);
    explore::Scenario S =
        litmusScenario(G.Source, static_cast<int>(Seed));
    explore::ScenarioOutcome A =
        explore::DifferentialRunner(V, Fast).run(S);
    explore::ScenarioOutcome B =
        explore::DifferentialRunner(V, Slow).run(S);
    EXPECT_TRUE(A.Divergences.empty()) << G.Source;
    EXPECT_TRUE(B.Divergences.empty()) << G.Source;
    EXPECT_EQ(A.Ran, B.Ran) << G.Source;
    EXPECT_EQ(A.Skips, B.Skips) << G.Source;
    EXPECT_EQ(A.Summary, B.Summary) << G.Source;
  }
}

/// One explore run compared across the two litmus oracles: the fast
/// reads-from oracle (with the given enumerator sampling) against the
/// order enumerator alone.
struct OracleIdentityCase {
  const char *Name;
  int Budget;
  std::vector<memmodel::ModelParams> Models;
  explore::GeneratorLimits Limits;
  /// EnumeratorSamplePeriod of the fast-oracle run.
  int SamplePeriod;
};

std::vector<OracleIdentityCase> oracleIdentityCases() {
  using memmodel::ModelParams;
  std::vector<OracleIdentityCase> Cases;
  // Retiring the enumerator entirely (no inline sampling) must not move
  // one byte of the timing-free report. pso at a wider access budget,
  // with no sc reference leg, makes order enumeration costly.
  OracleIdentityCase Wide{"pso-wide", 60, {ModelParams::pso()}, {}, 0};
  Wide.Limits.AccessBudget = 12;
  Wide.Limits.MaxThreads = 4;
  Wide.Limits.MaxVars = 4;
  Cases.push_back(Wide);
  // The CI explore smoke's axis: 600 pure-litmus scenarios over
  // sc/tso/pso/relaxed, with the default inline sampling.
  OracleIdentityCase Axis{"ci-axis",
                          600,
                          {ModelParams::sc(), ModelParams::tso(),
                           ModelParams::pso(), ModelParams::relaxed()},
                          {},
                          explore::DiffOptions().EnumeratorSamplePeriod};
  Cases.push_back(Axis);
  for (OracleIdentityCase &C : Cases)
    C.Limits.SymbolicPerMille = 0;
  return Cases;
}

TEST(ExploreOracle, ReportIsByteIdenticalOnEitherOracle) {
  for (const OracleIdentityCase &C : oracleIdentityCases()) {
    SCOPED_TRACE(C.Name);
    explore::ExploreOptions Opts;
    Opts.Seed = 1;
    Opts.Budget = C.Budget;
    Opts.Models = C.Models;
    Opts.Limits = C.Limits;
    explore::ExploreOptions Fast = Opts;
    Fast.Diff.UseFastOracle = true;
    Fast.Diff.EnumeratorSamplePeriod = C.SamplePeriod;
    explore::ExploreOptions Slow = Opts;
    Slow.Diff.UseFastOracle = false;

    Verifier VF, VS;
    explore::ExploreReport F = explore::runExplore(VF, Fast);
    explore::ExploreReport S = explore::runExplore(VS, Slow);
    ASSERT_TRUE(F.Ok) << F.Error;
    ASSERT_TRUE(S.Ok) << S.Error;
    EXPECT_EQ(F.Run, C.Budget);
    EXPECT_EQ(F.divergenceCount(), 0);
    EXPECT_EQ(S.divergenceCount(), 0);
    EXPECT_EQ(F.json(/*IncludeTimings=*/false),
              S.json(/*IncludeTimings=*/false));
  }
}

} // namespace
