//===--- AxiomaticOracleTests.cpp - encoder vs. brute-force axioms ----------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
// Differential testing of the SAT encoding: for litmus-sized programs, the
// observation set mined from the propositional encoding (Sec. 3.2.1) must
// equal the set produced by AxiomaticEnumerator, which implements the same
// Sec. 2.3.2 axioms by literally enumerating total orders. The two
// implementations share no code beyond the FlatProgram representation and
// the model trait table, so agreement across hand-written litmus shapes
// and randomly generated programs exercises the order encoding, the
// visibility/maximality clauses, fences, atomic exclusivity, store
// forwarding, and seriality on all five models.
//
//===----------------------------------------------------------------------===//

#include "checker/SpecMiner.h"
#include "frontend/Lowering.h"
#include "harness/TestSpec.h"
#include "memmodel/AxiomaticEnumerator.h"

#include "ObservationPrint.h"
#include "StoreBufferExecutor.h"

#include "gtest/gtest.h"

#include <random>
#include <sstream>

using namespace checkfence;
using namespace checkfence::checker;
using namespace checkfence::harness;
using lsl::Value;

namespace {

constexpr auto SER = memmodel::ModelParams::serial();
constexpr auto SC = memmodel::ModelParams::sc();
constexpr auto TSO = memmodel::ModelParams::tso();
constexpr auto PSO = memmodel::ModelParams::pso();
constexpr auto RLX = memmodel::ModelParams::relaxed();

const std::vector<memmodel::ModelParams> &allFive() {
  static const std::vector<memmodel::ModelParams> Models = {SER, SC, TSO, PSO,
                                                          RLX};
  return Models;
}

std::set<memmodel::RefObservation> toRef(const ObservationSet &S) {
  std::set<memmodel::RefObservation> Out;
  for (const Observation &O : S) {
    memmodel::RefObservation R;
    R.Error = O.Error;
    R.Values = O.Values;
    Out.insert(std::move(R));
  }
  return Out;
}

struct ThreadOps {
  std::string Proc;
  int NumArgs = 0;
};

/// Compiles \p Source, builds one thread per \p Ops entry, and checks that
/// the mined and the enumerated observation sets agree on every model.
/// Returns the number of models actually compared (cyclic-dependency
/// programs are skipped on the models where they arise).
int compareAllModels(const std::string &Source,
                     const std::vector<ThreadOps> &Ops,
                     const std::string &Label) {
  frontend::DiagEngine Diags;
  lsl::Program Prog;
  EXPECT_TRUE(frontend::compileC(Source, {}, Prog, Diags))
      << Label << ":\n" << Source << "\n" << Diags.str();

  TestSpec Spec;
  Spec.Name = "oracle";
  for (const ThreadOps &Op : Ops)
    Spec.Threads.push_back({OpSpec{Op.Proc, Op.NumArgs, false, false}});
  std::vector<std::string> Threads = buildTestThreads(Prog, Spec);

  int Compared = 0;
  for (memmodel::ModelParams Model : allFive()) {
    ProblemConfig Cfg;
    Cfg.Model = Model;
    SolveContext Ctx(Prog, Threads, {}, Cfg);
    ProblemEncoding &Enc = Ctx.encoding();
    if (!Enc.ok()) {
      ADD_FAILURE() << Label << ": " << Enc.error();
      return Compared;
    }

    memmodel::AxiomaticOptions AO;
    AO.Model = Model;
    memmodel::OracleResult Oracle =
        memmodel::enumerateAxiomatic(Enc.flat(), AO);
    if (!Oracle.Ok && Oracle.Error == "cyclic value dependency")
      continue; // thin-air shape: the enumerator cannot decide it
    if (!Oracle.Ok) {
      ADD_FAILURE() << Label << ": oracle: " << Oracle.Error;
      return Compared;
    }

    MiningOutcome Mined = mineSpecification(Ctx);
    if (!Mined.Ok && !Mined.SequentialBug) {
      ADD_FAILURE() << Label << ": miner: " << Mined.Error;
      return Compared;
    }

    std::set<memmodel::RefObservation> FromSat = toRef(Mined.Spec);
    EXPECT_EQ(FromSat, Oracle.Observations)
        << Label << " disagrees on " << memmodel::modelName(Model)
        << "\n  sat:    " << show(FromSat)
        << "\n  oracle: " << show(Oracle.Observations) << "\n"
        << Source;
    ++Compared;
  }
  return Compared;
}

#define LITMUS_HEADER                                                        \
  "extern void observe(int v);\n"                                           \
  "extern void fence(char *type);\n"

//===----------------------------------------------------------------------===//
// Hand-written litmus shapes.
//===----------------------------------------------------------------------===//

TEST(AxiomaticOracle, StoreBuffering) {
  compareAllModels(LITMUS_HEADER R"(
int x; int y;
void init_op(void) { x = 0; y = 0; }
void t1_op(void) { x = 1; observe(y); }
void t2_op(void) { y = 1; observe(x); }
)",
                   {{"t1_op"}, {"t2_op"}}, "sb");
}

TEST(AxiomaticOracle, StoreBufferingFenced) {
  compareAllModels(LITMUS_HEADER R"(
int x; int y;
void init_op(void) { x = 0; y = 0; }
void t1_op(void) { x = 1; fence("store-load"); observe(y); }
void t2_op(void) { y = 1; fence("store-load"); observe(x); }
)",
                   {{"t1_op"}, {"t2_op"}}, "sb+fence");
}

TEST(AxiomaticOracle, MessagePassing) {
  compareAllModels(LITMUS_HEADER R"(
int data; int flag;
void init_op(void) { data = 0; flag = 0; }
void producer_op(void) { data = 1; flag = 1; }
void consumer_op(void) { int f = flag; int d = data;
                         observe(f); observe(d); }
)",
                   {{"producer_op"}, {"consumer_op"}}, "mp");
}

TEST(AxiomaticOracle, MessagePassingFenced) {
  compareAllModels(LITMUS_HEADER R"(
int data; int flag;
void init_op(void) { data = 0; flag = 0; }
void producer_op(void) { data = 1; fence("store-store"); flag = 1; }
void consumer_op(void) { int f = flag; fence("load-load"); int d = data;
                         observe(f); observe(d); }
)",
                   {{"producer_op"}, {"consumer_op"}}, "mp+fences");
}

TEST(AxiomaticOracle, LoadBuffering) {
  compareAllModels(LITMUS_HEADER R"(
int x; int y;
void init_op(void) { x = 0; y = 0; }
void t1_op(void) { int r = x; y = 1; observe(r); }
void t2_op(void) { int r = y; x = 1; observe(r); }
)",
                   {{"t1_op"}, {"t2_op"}}, "lb");
}

TEST(AxiomaticOracle, Iriw) {
  compareAllModels(LITMUS_HEADER R"(
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

TEST(AxiomaticOracle, CoherenceAndForwarding) {
  compareAllModels(LITMUS_HEADER R"(
int x;
void init_op(void) { x = 0; }
void writer_op(void) { x = 1; x = 2; observe(x); }
void reader_op(void) { int a = x; int b = x; observe(a); observe(b); }
)",
                   {{"writer_op"}, {"reader_op"}}, "coherence+fwd");
}

TEST(AxiomaticOracle, AtomicIncrements) {
  compareAllModels(LITMUS_HEADER R"(
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

TEST(AxiomaticOracle, SymbolicArguments) {
  // Choice values (the {0,1} operation arguments) are enumerated by both
  // sides; the argument value is part of the observation vector.
  compareAllModels(LITMUS_HEADER R"(
int x; int y;
void init_op(void) { x = 0; y = 0; }
void w_op(int v) { x = v; y = v + 1; }
void r_op(void) { int a = y; int b = x; observe(a); observe(b); }
)",
                   {{"w_op", 1}, {"r_op"}}, "choice-args");
}

TEST(AxiomaticOracle, DependentData) {
  // The consumer republishes what it read: store data is load-dependent
  // (supported by the oracle as long as no cyclic dependency arises).
  compareAllModels(LITMUS_HEADER R"(
int x; int y;
void init_op(void) { x = 0; y = 0; }
void t1_op(void) { x = 1; }
void t2_op(void) { int r = x; y = r; }
void t3_op(void) { int s = y; observe(s); }
)",
                   {{"t1_op"}, {"t2_op"}, {"t3_op"}}, "dep-data");
}

TEST(AxiomaticOracle, ThreeThreadsMixed) {
  compareAllModels(LITMUS_HEADER R"(
int x; int y; int z;
void init_op(void) { x = 0; y = 0; z = 0; }
void t1_op(void) { x = 1; fence("store-store"); y = 1; }
void t2_op(void) { int a = y; z = 2; observe(a); }
void t3_op(void) { int b = z; int c = x; observe(b); observe(c); }
)",
                   {{"t1_op"}, {"t2_op"}, {"t3_op"}}, "3t-mixed");
}

//===----------------------------------------------------------------------===//
// The operational store-buffer machine (x86-TSO style) agrees with the
// axiomatic TSO/PSO encodings: a third, machine-flavored semantics with
// FIFO / per-address buffers, forwarding, barrier tokens and load
// stalling. Atomic blocks are outside its fragment.
//===----------------------------------------------------------------------===//

int compareBufferMachine(const std::string &Source,
                         const std::vector<ThreadOps> &Ops,
                         const std::string &Label) {
  frontend::DiagEngine Diags;
  lsl::Program Prog;
  EXPECT_TRUE(frontend::compileC(Source, {}, Prog, Diags))
      << Label << ":\n" << Source << "\n" << Diags.str();

  TestSpec Spec;
  Spec.Name = "buffer";
  for (const ThreadOps &Op : Ops)
    Spec.Threads.push_back({OpSpec{Op.Proc, Op.NumArgs, false, false}});
  std::vector<std::string> Threads = buildTestThreads(Prog, Spec);

  int Compared = 0;
  for (memmodel::ModelParams Model : {TSO, PSO}) {
    ProblemConfig Cfg;
    Cfg.Model = Model;
    SolveContext Ctx(Prog, Threads, {}, Cfg);
    ProblemEncoding &Enc = Ctx.encoding();
    if (!Enc.ok()) {
      ADD_FAILURE() << Label << ": " << Enc.error();
      return Compared;
    }

    memmodel::StoreBufferOptions BO;
    BO.Model = Model;
    memmodel::StoreBufferResult Machine =
        memmodel::enumerateStoreBuffer(Enc.flat(), BO);
    if (!Machine.Ok) {
      ADD_FAILURE() << Label << ": machine: " << Machine.Error;
      return Compared;
    }

    MiningOutcome Mined = mineSpecification(Ctx);
    if (!Mined.Ok && !Mined.SequentialBug) {
      ADD_FAILURE() << Label << ": miner: " << Mined.Error;
      return Compared;
    }

    std::set<memmodel::RefObservation> FromSat = toRef(Mined.Spec);
    EXPECT_EQ(FromSat, Machine.Observations)
        << Label << " disagrees on " << memmodel::modelName(Model)
        << "\n  axiomatic: " << show(FromSat)
        << "\n  machine:   " << show(Machine.Observations) << "\n"
        << Source;
    ++Compared;
  }
  return Compared;
}

TEST(BufferMachine, ClassicLitmusShapes) {
  compareBufferMachine(LITMUS_HEADER R"(
int x; int y;
void init_op(void) { x = 0; y = 0; }
void t1_op(void) { x = 1; observe(y); }
void t2_op(void) { y = 1; observe(x); }
)",
                       {{"t1_op"}, {"t2_op"}}, "sb");
  compareBufferMachine(LITMUS_HEADER R"(
int data; int flag;
void init_op(void) { data = 0; flag = 0; }
void producer_op(void) { data = 1; flag = 1; }
void consumer_op(void) { int f = flag; int d = data;
                         observe(f); observe(d); }
)",
                       {{"producer_op"}, {"consumer_op"}}, "mp");
  compareBufferMachine(LITMUS_HEADER R"(
int data; int flag;
void init_op(void) { data = 0; flag = 0; }
void producer_op(void) { data = 1; fence("store-store"); flag = 1; }
void consumer_op(void) { int f = flag; int d = data;
                         observe(f); observe(d); }
)",
                       {{"producer_op"}, {"consumer_op"}}, "mp+ss");
  compareBufferMachine(LITMUS_HEADER R"(
int x; int y;
void init_op(void) { x = 0; y = 0; }
void t1_op(void) { x = 1; fence("store-load"); observe(y); }
void t2_op(void) { y = 1; fence("store-load"); observe(x); }
)",
                       {{"t1_op"}, {"t2_op"}}, "sb+sl");
  compareBufferMachine(LITMUS_HEADER R"(
int x;
void init_op(void) { x = 0; }
void writer_op(void) { x = 1; x = 2; observe(x); }
void reader_op(void) { int a = x; int b = x; observe(a); observe(b); }
)",
                       {{"writer_op"}, {"reader_op"}}, "coherence+fwd");
  compareBufferMachine(LITMUS_HEADER R"(
int x; int y;
void init_op(void) { x = 0; y = 0; }
void w1_op(void) { x = 1; }
void w2_op(void) { y = 1; }
void r1_op(void) { int a = x; int b = y; observe(a); observe(b); }
void r2_op(void) { int c = y; int d = x; observe(c); observe(d); }
)",
                       {{"w1_op"}, {"w2_op"}, {"r1_op"}, {"r2_op"}},
                       "iriw");
}

TEST(BufferMachine, StoreLoadFenceDoesNotOrderStores) {
  // The subtle case that distinguishes a faithful store-load fence from a
  // full drain on PSO: two stores around a store-load fence stay mutually
  // unordered (the fence only adds store-to-load edges).
  compareBufferMachine(LITMUS_HEADER R"(
int x; int y;
void init_op(void) { x = 0; y = 0; }
void w_op(void) { x = 1; fence("store-load"); y = 1; }
void r_op(void) { int a = y; int b = x; observe(a); observe(b); }
)",
                       {{"w_op"}, {"r_op"}}, "sl-between-stores");
}

TEST(BufferMachine, ArgumentsAndDependentData) {
  compareBufferMachine(LITMUS_HEADER R"(
int x; int y; int z;
void init_op(void) { x = 0; y = 0; z = 0; }
void w_op(int v) { x = v; y = v + 1; }
void relay_op(void) { int r = y; z = r; }
void r_op(void) { int s = z; int t = x; observe(s); observe(t); }
)",
                       {{"w_op", 1}, {"relay_op"}, {"r_op"}}, "relay");
}

//===----------------------------------------------------------------------===//
// Randomly generated programs (property sweep). The generator emits
// branch-free threads over three shared variables with stores of
// constants/arguments/loaded values, fences of random kinds, atomic
// read-modify-write blocks, and observations.
//===----------------------------------------------------------------------===//

struct GenProgram {
  std::string Source;
  std::vector<ThreadOps> Ops;
};

GenProgram generate(unsigned Seed, bool AllowAtomic = true) {
  std::mt19937 Rng(Seed);
  auto Pick = [&](int N) { return static_cast<int>(Rng() % N); };
  const char *Vars[] = {"x", "y", "z"};
  const char *Fences[] = {"load-load", "load-store", "store-load",
                          "store-store"};

  int NumVars = 2 + Pick(2);
  int NumThreads = 2 + Pick(2);
  // Access budget keeps the permutation search cheap: the init stores are
  // sequenced, so the search space is the interleavings of the bodies.
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
      switch (Pick(AllowAtomic ? 6 : 5)) {
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

class RandomLitmus : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomLitmus, EncoderMatchesOracle) {
  GenProgram G = generate(GetParam());
  int Compared = compareAllModels(
      G.Source, G.Ops, "seed " + std::to_string(GetParam()));
  // At the very least the strong models must have been comparable (no
  // cyclic dependencies arise under Serial/SC where <M embeds <p).
  EXPECT_GE(Compared, 2) << G.Source;
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomLitmus,
                         ::testing::Range(0u, 64u));

class RandomBufferMachine : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomBufferMachine, AxiomaticMatchesOperational) {
  GenProgram G = generate(GetParam(), /*AllowAtomic=*/false);
  int Compared = compareBufferMachine(
      G.Source, G.Ops, "buffer seed " + std::to_string(GetParam()));
  EXPECT_EQ(Compared, 2) << G.Source;
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomBufferMachine,
                         ::testing::Range(100u, 148u));

} // namespace
