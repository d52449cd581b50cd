//===--- Catalog.cpp - the paper's test catalog (Fig. 8) --------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "harness/Catalog.h"

#include "frontend/Lowering.h"
#include "impls/Impls.h"
#include "obs/Log.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace checkfence;
using namespace checkfence::harness;

OpAlphabet checkfence::harness::queueAlphabet() {
  return {
      {"e", "enqueue_op", 1, false},
      {"d", "dequeue_op", 0, true},
  };
}

OpAlphabet checkfence::harness::setAlphabet() {
  return {
      {"a", "add_op", 1, true},
      {"c", "contains_op", 1, true},
      {"r", "remove_op", 1, true},
  };
}

OpAlphabet checkfence::harness::dequeAlphabet() {
  return {
      {"al", "pushleft_op", 1, false},
      {"ar", "pushright_op", 1, false},
      {"rl", "popleft_op", 0, true},
      {"rr", "popright_op", 0, true},
  };
}

OpAlphabet checkfence::harness::stackAlphabet() {
  return {
      {"u", "push_op", 1, false},
      {"o", "pop_op", 0, true},
  };
}

OpAlphabet checkfence::harness::alphabetFor(const std::string &Kind) {
  if (Kind == "queue")
    return queueAlphabet();
  if (Kind == "set")
    return setAlphabet();
  if (Kind == "deque")
    return dequeAlphabet();
  if (Kind == "stack")
    return stackAlphabet();
  return {};
}

const std::vector<CatalogEntry> &checkfence::harness::paperTests() {
  static const std::vector<CatalogEntry> Tests = {
      // Queue tests (Fig. 8, left column).
      {"T0", "queue", "( e | d )"},
      {"T1", "queue", "( e | e | d | d )"},
      {"Tpc2", "queue", "( ee | dd )"},
      {"Tpc3", "queue", "( eee | ddd )"},
      {"Tpc4", "queue", "( eeee | dddd )"},
      {"Tpc5", "queue", "( eeeee | ddddd )"},
      {"Tpc6", "queue", "( eeeeee | dddddd )"},
      {"Ti2", "queue", "e ( ed | de )"},
      {"Ti3", "queue", "e ( de | dde )"},
      {"T53", "queue", "( eeee | d | d )"},
      {"T54", "queue", "( eee | e | d | d )"},
      {"T55", "queue", "( ee | e | e | d | d )"},
      {"T56", "queue", "( e | e | e | e | d | d )"},
      // Set tests.
      {"Sac", "set", "( a | c )"},
      {"Sar", "set", "( a | r )"},
      {"Sacr", "set", "( a | c | r )"},
      {"Saa", "set", "( a | a )"},
      {"Saacr", "set", "a ( a | c | r )"},
      {"Sacr2", "set", "aar ( a | c | r )"},
      {"Saaarr", "set", "aaa ( r | rc )"},
      {"S1", "set", "(a' | a' | c' | c' | r' | r')"},
      {"Sarr", "set", "( a | r | r )"},
      // Deque tests.
      {"D0", "deque", "(al rr | ar rl)"},
      {"Da", "deque", "al al (rr rr | rl rl)"},
      {"Db", "deque", "(rr rl | ar | al)"},
      {"Dm", "deque", "(a'l a'l a'l | r'r r'r r'r | r'l | a'r)"},
      {"Dq", "deque", "(a'l | a'l | a'r | a'r | r'l | r'l | r'r | r'r )"},
  };
  return Tests;
}

const std::vector<CatalogEntry> &checkfence::harness::extensionTests() {
  // The larger tests use primed (no-retry) operations, the paper's device
  // for loops whose lazy unrolling does not converge (Fig. 8 uses it for
  // S1 and the deque tests Dm/Dq). Treiber's push loop carries no
  // load-load fence chain, so unprimed multi-retry tests diverge on
  // Relaxed (see EXPERIMENTS.md).
  static const std::vector<CatalogEntry> Tests = {
      {"U0", "stack", "( u | o )"},
      {"U1", "stack", "( u' | u' | o' | o' )"},
      {"Upc2", "stack", "( u'u' | o'o' )"},
      {"Upc3", "stack", "( u'u'u' | o'o'o' )"},
      {"Ui2", "stack", "u ( u'o' | o'u' )"},
      {"U53", "stack", "( u'u'u'u' | o' | o' )"},
  };
  return Tests;
}

const CatalogEntry *
checkfence::harness::findCatalogEntry(const std::string &Name) {
  for (const std::vector<CatalogEntry> *List :
       {&paperTests(), &extensionTests()})
    for (const CatalogEntry &E : *List)
      if (E.Name == Name)
        return &E;
  return nullptr;
}

bool checkfence::harness::catalogTest(const std::string &Name, TestSpec &Out,
                                      std::string &Error) {
  const CatalogEntry *E = findCatalogEntry(Name);
  if (!E) {
    Error = "unknown catalog test '" + Name + "'";
    return false;
  }
  std::string Err;
  if (!parseTestNotation(E->Notation, alphabetFor(E->Kind), Out, Err)) {
    Error = "catalog test " + Name + " failed to parse: " + Err;
    return false;
  }
  Out.Name = Name;
  return true;
}

TestSpec checkfence::harness::testByName(const std::string &Name) {
  TestSpec Spec;
  std::string Error;
  if (!catalogTest(Name, Spec, Error)) {
    obs::logf(obs::LogLevel::Error, "harness", "%s", Error.c_str());
    std::abort();
  }
  return Spec;
}

bool checkfence::harness::compileTest(const std::string &Source,
                                      const TestSpec &Test,
                                      const RunOptions &Opts,
                                      CompiledTest &Out, std::string &Error) {
  frontend::LoweringOptions LO;
  LO.StripFences = Opts.StripFences;
  LO.StripFenceLines = Opts.StripFenceLines;
  frontend::DiagEngine Diags;
  if (!frontend::compileC(Source, Opts.Defines, Out.Impl, Diags, LO)) {
    Error = "frontend error:\n" + Diags.str();
    return false;
  }
  Out.Threads = buildTestThreads(Out.Impl, Test);

  if (!Opts.SpecSource.empty()) {
    frontend::DiagEngine SpecDiags;
    if (!frontend::compileC(Opts.SpecSource, Opts.Defines, Out.Spec.emplace(),
                            SpecDiags)) {
      Error = "frontend error in reference:\n" + SpecDiags.str();
      return false;
    }
    buildTestThreads(*Out.Spec, Test); // same names by construction
  }
  return true;
}

checker::CheckResult
checkfence::harness::runTest(const std::string &ImplSource,
                             const TestSpec &Test, const RunOptions &Opts) {
  CompiledTest C;
  checker::CheckResult Result;
  if (!compileTest(ImplSource, Test, Opts, C, Result.Message)) {
    Result.Status = Status::Error;
    return Result;
  }
  return checker::runCheck(C.Impl, C.Threads, Opts.Check, C.spec());
}

std::vector<engine::MatrixCell> checkfence::harness::expandMatrix(
    const std::vector<std::string> &Impls,
    const std::vector<std::string> &Tests,
    const std::vector<memmodel::ModelParams> &Models) {
  std::vector<std::string> UseImpls = Impls;
  if (UseImpls.empty())
    for (const impls::ImplInfo &I : impls::allImpls())
      UseImpls.push_back(I.Name);
  std::vector<memmodel::ModelParams> UseModels = Models;
  if (UseModels.empty())
    UseModels.push_back(checker::CheckOptions{}.Model); // the one default

  std::vector<engine::MatrixCell> Cells;
  for (const std::string &Impl : UseImpls) {
    const impls::ImplInfo *Info = impls::findImpl(Impl);
    std::string Kind = Info ? Info->Kind : "";
    std::vector<std::string> UseTests = Tests;
    if (UseTests.empty()) {
      for (const std::vector<CatalogEntry> *List :
           {&paperTests(), &extensionTests()})
        for (const CatalogEntry &E : *List)
          if (E.Kind == Kind)
            UseTests.push_back(E.Name);
    }
    if (!Info && UseTests.empty())
      UseTests.push_back("?"); // keep a cell so the runner reports the typo
    for (const std::string &Test : UseTests) {
      const CatalogEntry *E = findCatalogEntry(Test);
      if (E && !Kind.empty() && E->Kind != Kind)
        continue; // kind mismatch: the impl cannot run this test
      for (memmodel::ModelParams Model : UseModels) {
        engine::MatrixCell Cell;
        Cell.Impl = Impl;
        Cell.Test = Test;
        Cell.Model = Model;
        Cells.push_back(Cell);
      }
    }
  }
  return Cells;
}

engine::CellFn
checkfence::harness::catalogCellRunner(const RunOptions &Base) {
  return [Base](const engine::MatrixCell &Cell) -> checker::CheckResult {
    checker::CheckResult R;
    if (!impls::findImpl(Cell.Impl)) {
      R.Status = Status::Error;
      R.Message = "unknown implementation '" + Cell.Impl + "'";
      return R;
    }
    TestSpec Spec;
    if (!catalogTest(Cell.Test, Spec, R.Message)) {
      R.Status = Status::Error;
      return R;
    }
    RunOptions Opts = Base;
    Opts.Check.Model = Cell.Model;
    if (!Opts.Check.Fresh) // the reference pipeline starts from Base's bounds
      for (const auto &[Loop, Bound] : Cell.SeedBounds) {
        int &Initial = Opts.Check.InitialBounds[Loop];
        Initial = std::max(Initial, Bound);
      }
    return runTest(impls::sourceFor(Cell.Impl), Spec, Opts);
  };
}
