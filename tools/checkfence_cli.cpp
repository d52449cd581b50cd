//===--- checkfence_cli.cpp - the command-line front door -------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
// Usage:
//   checkfence [options] <impl> <test>
//   checkfence [options] --file impl.c --kind queue --notation "( e | d )"
//   checkfence --matrix [--impls a,b] [--tests x,y] [--models m,n] [options]
//
//   <impl>  one of: ms2 msn lazylist harris snark treiber  (or --file <path>)
//   <test>  a Fig. 8 test name (T0, Tpc3, Sac, D0, ...) or --notation
//
// The CLI is a thin shell over the public API (include/checkfence/): it
// parses flags into a checkfence::Request, dispatches it on a
// checkfence::Verifier - or, with --remote URL, on a running checkfenced
// daemon via RemoteVerifier - and renders the result. Both dispatch paths
// feed one set of emit functions, so remote output and exit codes are
// byte-identical to a local run. Exit codes follow the verdict: 0 pass,
// 1 fail, 2 sequential bug, 3 bounds exhausted, 4 error, 5 cancelled;
// usage/I-O problems exit 64.
//
//===----------------------------------------------------------------------===//

#include "checkfence/Remote.h"
#include "checkfence/checkfence.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace checkfence;

namespace {

constexpr int ExitUsage = 64; // EX_USAGE: bad flags, unreadable files

void usage() {
  std::printf(
      "usage: checkfence [options] <impl> <test>\n"
      "  impl: ms2 | msn | lazylist | harris | snark | treiber | --file <path>\n"
      "  test: a Fig. 8 name (T0, Tpc3, Sac, D0, ...) or --notation "
      "\"( e | d )\"\n"
      "options:\n"
      "  --model <m>          target model (default: relaxed): a name\n"
      "                       (sc tso pso rmo relaxed serial) or a\n"
      "                       descriptor like po:ll+ls,fwd\n"
      "  --strip-fences       remove all fence() calls\n"
      "  --strip-line N       remove the fence on line N (repeatable)\n"
      "  --define NAME        preprocessor define\n"
      "  --refspec            mine the spec from the reference impl\n"
      "  --no-range           disable range-analysis optimizations\n"
      "  --kind queue|set|deque|stack  type for --file/--notation\n"
      "  --spec               print the mined observation set\n"
      "  --synth              synthesize a fence placement instead of\n"
      "                       checking (starts from stripped fences)\n"
      "  --analyze            static critical-cycle robustness lint\n"
      "                       instead of checking: per-lattice-point\n"
      "                       delay pairs, verdicts, witness cycles,\n"
      "                       and suggested fence cuts - no SAT solving\n"
      "                       (--models narrows the axis; JSON output\n"
      "                       is byte-identical at any --jobs)\n"
      "  --matrix             run an (impl x test x model) matrix\n"
      "  --impls a,b          matrix implementations (default: all)\n"
      "  --tests x,y          matrix tests (default: kind-matching)\n"
      "  --models m,n         matrix/explore models (default: --model,\n"
      "                       explore: sc,tso,relaxed); 'all' = every\n"
      "                       named model, 'lattice' = the full\n"
      "                       relaxation-lattice sweep\n"
      "  --explore            randomized differential exploration:\n"
      "                       generated scenarios cross-checked against\n"
      "                       the axiomatic/reference oracles\n"
      "  --seed N             explore generation seed (default 1)\n"
      "  --budget N           explore scenarios to run (default 100)\n"
      "  --no-shrink          keep divergent scenarios unshrunk\n"
      "  --corpus DIR         persist seen-scenario fingerprints and\n"
      "                       shrunk repros in DIR across runs\n"
      "  --jobs N             worker threads for matrix programs (a\n"
      "                       program's cells run strongest model\n"
      "                       first), synth minimization, explore\n"
      "                       scenarios or analyze rows; each check\n"
      "                       runs on one solver\n"
      "  --symbolic N         explore: symbolic catalog tests per 1000\n"
      "                       scenarios, the rest litmus (default 300;\n"
      "                       0 = pure litmus, the oracle fragment)\n"
      "  --deadline S         cancel cooperatively after S seconds\n"
      "  --cache PATH         persist the cross-run result cache at PATH\n"
      "  --no-cache           bypass the result cache\n"
      "  --remote URL         dispatch to a running checkfenced daemon\n"
      "                       (http://host:port, see docs/SERVER.md);\n"
      "                       output and exit codes match a local run.\n"
      "                       --jobs, --corpus, and --cache describe the\n"
      "                       daemon's resources and are decided by it\n"
      "  --trace PATH         write a Chrome trace-event JSON timeline\n"
      "                       of this run (load in ui.perfetto.dev; see\n"
      "                       docs/OBSERVABILITY.md). With --remote the\n"
      "                       file also contains the server-side spans.\n"
      "                       Purely observational: reports and verdicts\n"
      "                       are byte-identical with or without it\n"
      "  --json PATH          write a JSON report ('-' = stdout)\n"
      "  --no-timings         omit timing fields from the JSON report\n"
      "                       (byte-identical output at any --jobs)\n"
      "  --quiet              verdict only\n"
      "  --list               list implementations and tests\n"
      "  --version            print the library version\n"
      "  --schema             print the JSON report schema version\n"
      "exit codes: 0 pass, 1 fail, 2 sequential bug, 3 bounds exhausted,\n"
      "            4 error, 5 cancelled, 64 usage/I-O\n");
}

/// Writes \p Content to \p Path ("-" = stdout). False on I/O failure.
bool writeReport(const std::string &Path, const std::string &Content) {
  if (Path == "-") {
    std::printf("%s", Content.c_str());
    return true;
  }
  std::ofstream Out(Path);
  if (!Out) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    return false;
  }
  Out << Content;
  return true;
}

std::vector<std::string> splitList(const std::string &S) {
  std::vector<std::string> Out;
  std::string Cur;
  for (char C : S) {
    if (C == ',') {
      if (!Cur.empty())
        Out.push_back(Cur);
      Cur.clear();
    } else {
      Cur += C;
    }
  }
  if (!Cur.empty())
    Out.push_back(Cur);
  return Out;
}

void listCatalog() {
  std::printf("implementations:\n");
  for (const ImplDesc &I : listImplementations())
    std::printf("  %-9s (%s)  %s\n", I.Name.c_str(), I.Kind.c_str(),
                I.Description.c_str());
  std::printf("tests:\n");
  for (const TestDesc &T : listTests())
    std::printf("  %-8s (%s)  %s\n", T.Name.c_str(), T.Kind.c_str(),
                T.Notation.c_str());
  std::printf("models (strongest first; + = critical-cycle analysis):\n");
  for (const ModelDesc &M : listModels())
    std::printf("  %-8s %-16s %s %s\n", M.Name.c_str(),
                M.Descriptor.c_str(), M.Analysis ? "+" : " ",
                M.Note.c_str());
}

//===----------------------------------------------------------------------===//
// Emit functions - the single rendering path both dispatch modes feed.
// Local runs hand over the in-process outcome; remote runs hand over the
// same type, decoded off the wire (analyses: the daemon's rendered
// strings, which RemoteAnalysis carries). Identical inputs here is what
// makes `--remote` byte-identical to a local run.
//===----------------------------------------------------------------------===//

int emitExplore(const ExploreOutcome &E, const std::string &JsonPath,
                bool NoTimings, bool Quiet) {
  if (!E.ok()) {
    std::fprintf(stderr, "%s\n", E.error().c_str());
    return ExitUsage;
  }
  if (!JsonPath.empty() && !writeReport(JsonPath, E.json(!NoTimings)))
    return ExitUsage;
  for (const std::string &W : E.warnings())
    std::fprintf(stderr, "warning: %s\n", W.c_str());
  const std::vector<ExploreDivergence> Divergences = E.divergences();
  if (!Quiet) {
    std::printf("explore: seed %llu, %d generated, %d deduplicated, "
                "%d run, %d skips, %d divergences (%.1fs)\n",
                E.seed(), E.generated(), E.deduplicated(), E.run(),
                E.skips(), static_cast<int>(Divergences.size()),
                E.wallSeconds());
    for (const ExploreDivergence &D : Divergences) {
      std::string Where =
          D.ReproPath.empty() ? std::string() : " -> " + D.ReproPath;
      std::printf("DIVERGENCE %s [%s%s%s] %d threads, %d ops%s\n",
                  D.Label.c_str(), D.Kind.c_str(),
                  D.Model.empty() ? "" : " @ ",
                  D.Model.c_str(), D.Threads, D.Ops, Where.c_str());
      if (!D.Notation.empty())
        std::printf("  notation: %s\n", D.Notation.c_str());
      std::printf("  %s\n", D.Detail.c_str());
    }
  }
  if (E.cancelled())
    return exitCodeFor(Status::Cancelled);
  return Divergences.empty() ? 0 : 1;
}

int emitMatrix(const Report &R, const std::string &JsonPath,
               bool NoTimings, bool Quiet) {
  if (!R.ok()) {
    std::fprintf(stderr, "%s\n", R.error().c_str());
    return ExitUsage;
  }
  if (!Quiet)
    std::printf("%s", R.table().c_str());
  if (!JsonPath.empty() && !writeReport(JsonPath, R.json(!NoTimings)))
    return ExitUsage;
  if (R.allCompleted())
    return 0;
  // Cancelled-only incompleteness (a --deadline expiry) reports as
  // CANCELLED; any errored cell dominates.
  return exitCodeFor(R.count(Status::Error) > 0 ? Status::Error
                                                : Status::Cancelled);
}

int emitAnalysis(const RemoteAnalysis &A, const std::string &JsonPath,
                 bool Quiet) {
  if (!A.Ok) {
    std::fprintf(stderr, "%s\n", A.Error.c_str());
    return exitCodeFor(Status::Error);
  }
  if (!Quiet)
    std::printf("%s", A.Table.c_str());
  if (!JsonPath.empty() && !writeReport(JsonPath, A.Json))
    return ExitUsage;
  return 0;
}

int emitSynth(const SynthOutcome &S, const std::string &JsonPath,
              bool NoTimings, bool Quiet) {
  if (!Quiet)
    for (const std::string &Step : S.Log)
      std::printf("%s\n", Step.c_str());
  if (!JsonPath.empty() && !writeReport(JsonPath, S.json(!NoTimings)))
    return ExitUsage;
  if (S.Cancelled) {
    std::printf("SYNTHESIS CANCELLED: %s\n", S.Message.c_str());
    return exitCodeFor(Status::Cancelled);
  }
  if (!S.Success) {
    std::printf("SYNTHESIS FAILED: %s\n", S.Message.c_str());
    return 1;
  }
  std::printf("%s (%d checks, %.1fs)\n", S.Message.c_str(), S.ChecksRun,
              S.TotalSeconds);
  for (const SynthFence &F : S.Fences)
    std::printf("  insert %s fence at line %d\n", F.Kind.c_str(),
                F.Line);
  return 0;
}

int emitCheck(const Result &R, const std::string &JsonPath,
              bool NoTimings, bool Quiet, bool PrintSpec) {
  if (!JsonPath.empty() && !writeReport(JsonPath, R.json(!NoTimings)))
    return ExitUsage;

  std::printf("%s\n", statusName(R.Verdict));
  if (Quiet)
    return exitCodeFor(R.Verdict);

  std::printf("%s\n", R.Message.c_str());
  std::printf("stats: %d instrs, %d loads, %d stores | spec %d obs "
              "(%.2fs) | CNF %d vars %llu clauses | encode %.2fs solve "
              "%.2fs | total %.2fs, %d bound rounds%s\n",
              R.Stats.UnrolledInstrs, R.Stats.Loads, R.Stats.Stores,
              R.Stats.ObservationCount, R.Stats.MiningSeconds,
              R.Stats.SatVars, R.Stats.SatClauses,
              R.Stats.EncodeSeconds, R.Stats.SolveSeconds,
              R.Stats.TotalSeconds, R.Stats.BoundIterations,
              R.FromCache ? " (cached)" : "");
  if (PrintSpec)
    for (const std::string &O : R.Observations)
      std::printf("  %s\n", O.c_str());
  if (R.HasCounterexample)
    std::printf("\n%s", R.CounterexampleColumns.c_str());
  return exitCodeFor(R.Verdict);
}

/// Transport and server-side dispatch problems (connection refused,
/// queue full, protocol drift) are infrastructure errors, not verdicts:
/// report on stderr, exit 4. A full queue additionally surfaces the
/// daemon's Retry-After hint.
int remoteFail(const RemoteStatus &S) {
  std::fprintf(stderr, "remote: %s\n", S.Error.c_str());
  if (S.HttpStatus == 429 && S.RetryAfterSeconds > 0)
    std::fprintf(stderr, "remote: retry after %d second%s\n",
                 S.RetryAfterSeconds,
                 S.RetryAfterSeconds == 1 ? "" : "s");
  return exitCodeFor(Status::Error);
}

// SIGINT during a local run cancels cooperatively (the run winds down
// and exits 5 like any other cancellation). CancelToken::cancel() is an
// atomic store on a pre-allocated flag, so it is safe in a handler; a
// second ^C gets the default fatal behavior.
CancelToken *InterruptToken = nullptr;

void onInterrupt(int) {
  if (InterruptToken)
    InterruptToken->cancel();
  std::signal(SIGINT, SIG_DFL);
}

} // namespace

int main(int argc, char **argv) {
  std::string Impl, Test, File, Kind, Notation;
  Request Req = Request::check();
  bool PrintSpec = false, Quiet = false, Synth = false, Matrix = false;
  bool Explore = false, Analyze = false, NoTimings = false;
  std::string JsonPath, CachePath, RemoteUrl;
  std::vector<std::string> MatrixImpls, MatrixTests, MatrixModels;

  std::vector<std::string> Positional;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "missing argument after %s\n", A.c_str());
        exit(ExitUsage);
      }
      return argv[++I];
    };
    if (A == "--help" || A == "-h") {
      usage();
      return 0;
    } else if (A == "--version") {
      std::printf("checkfence %s\n", versionString());
      return 0;
    } else if (A == "--schema") {
      std::printf("%d\n", JsonSchemaVersion);
      return 0;
    } else if (A == "--list") {
      listCatalog();
      return 0;
    } else if (A == "--model") {
      Req.model(Next());
    } else if (A == "--strip-fences") {
      Req.stripFences();
    } else if (A == "--strip-line") {
      Req.stripFenceLine(std::atoi(Next().c_str()));
    } else if (A == "--define") {
      Req.define(Next());
    } else if (A == "--refspec") {
      Req.refSpec();
    } else if (A == "--no-range") {
      Req.rangeAnalysis(false);
    } else if (A == "--file") {
      File = Next();
    } else if (A == "--kind") {
      Kind = Next();
    } else if (A == "--notation") {
      Notation = Next();
    } else if (A == "--spec") {
      PrintSpec = true;
    } else if (A == "--synth") {
      Synth = true;
    } else if (A == "--analyze") {
      Analyze = true;
    } else if (A == "--matrix") {
      Matrix = true;
    } else if (A == "--explore") {
      Explore = true;
    } else if (A == "--seed") {
      Req.seed(std::strtoull(Next().c_str(), nullptr, 10));
    } else if (A == "--budget") {
      Req.budget(std::atoi(Next().c_str()));
    } else if (A == "--no-shrink") {
      Req.shrink(false);
    } else if (A == "--corpus") {
      Req.corpus(Next());
    } else if (A == "--impls") {
      MatrixImpls = splitList(Next());
    } else if (A == "--tests") {
      MatrixTests = splitList(Next());
    } else if (A == "--models") {
      MatrixModels = splitList(Next());
    } else if (A == "--jobs") {
      Req.jobs(std::atoi(Next().c_str()));
    } else if (A == "--symbolic") {
      Req.symbolicShare(std::atoi(Next().c_str()));
    } else if (A == "--deadline") {
      Req.deadline(std::atof(Next().c_str()));
    } else if (A == "--cache") {
      CachePath = Next();
    } else if (A == "--no-cache") {
      Req.noCache();
    } else if (A == "--remote") {
      RemoteUrl = Next();
    } else if (A == "--trace") {
      Req.traceFile(Next());
    } else if (A == "--json") {
      JsonPath = Next();
    } else if (A == "--no-timings") {
      NoTimings = true;
    } else if (A == "--quiet") {
      Quiet = true;
    } else if (!A.empty() && A[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", A.c_str());
      return ExitUsage;
    } else {
      Positional.push_back(A);
    }
  }

  if (Positional.size() > 0)
    Impl = Positional[0];
  if (Positional.size() > 1)
    Test = Positional[1];

  // A typo'd model name is a usage error (64), not an engine ERROR (4);
  // reject it before dispatching. "all"/"lattice" are matrix-axis
  // keywords, not model names.
  if (!Req.ModelName.empty() && !validModelName(Req.ModelName)) {
    std::fprintf(stderr, "unknown model '%s'\n", Req.ModelName.c_str());
    return ExitUsage;
  }
  for (const std::string &M : MatrixModels)
    if (M != "all" && M != "lattice" && !validModelName(M)) {
      std::fprintf(stderr, "unknown model '%s'\n", M.c_str());
      return ExitUsage;
    }

  // Dispatch target: a daemon (--remote) or an in-process Verifier,
  // constructed lazily so remote runs never touch the local cache file.
  std::unique_ptr<RemoteVerifier> RV;
  std::unique_ptr<Verifier> V;
  if (!RemoteUrl.empty())
    RV = std::make_unique<RemoteVerifier>(RemoteUrl);
  auto Local = [&]() -> Verifier & {
    if (!V) {
      VerifierConfig Config;
      Config.Jobs = 1;
      Config.CachePath = CachePath;
      V = std::make_unique<Verifier>(Config);
    }
    return *V;
  };

  CancelToken Token;
  if (!RV) {
    // Remote runs cancel server-side when this process (and with it the
    // connection) dies; locally, ^C unwinds cooperatively.
    InterruptToken = &Token;
    std::signal(SIGINT, onInterrupt);
  }

  // Explore mode: seeded scenario generation, differential oracle
  // cross-checks, shrinking, corpus persistence.
  if (Explore) {
    Req.RequestKind = Request::Kind::Explore;
    Req.models(MatrixModels);
    ExploreOutcome E;
    if (RV) {
      if (RemoteStatus S = RV->explore(Req, E); !S)
        return remoteFail(S);
    } else {
      E = Local().explore(Req, nullptr, Token);
    }
    return emitExplore(E, JsonPath, NoTimings, Quiet);
  }

  // Matrix mode: expand the (impl x test x model) grid, run it on the
  // worker pool, and report.
  if (Matrix) {
    Req.RequestKind = Request::Kind::Matrix;
    Req.impls(MatrixImpls).tests(MatrixTests).models(MatrixModels);
    Report R;
    if (RV) {
      if (RemoteStatus S = RV->matrix(Req, R); !S)
        return remoteFail(S);
    } else {
      R = Local().matrix(Req, nullptr, Token);
    }
    return emitMatrix(R, JsonPath, NoTimings, Quiet);
  }

  // Resolve what to run: a built-in impl, a file, or nothing (usage).
  if (!File.empty()) {
    std::ifstream In(File);
    if (!In) {
      std::fprintf(stderr, "cannot open %s\n", File.c_str());
      return ExitUsage;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    Req.source(SS.str()).label(File).dataType(Kind);
  } else if (!Impl.empty()) {
    Req.impl(Impl);
    if (!Kind.empty())
      Req.dataType(Kind);
  } else {
    usage();
    return ExitUsage;
  }

  if (!Notation.empty()) {
    if (Kind.empty() && Impl.empty()) {
      std::fprintf(stderr, "--notation requires --kind\n");
      return ExitUsage;
    }
    Req.notation(Notation);
  } else if (!Test.empty()) {
    Req.test(Test);
  } else {
    usage();
    return ExitUsage;
  }

  if (Analyze) {
    Req.RequestKind = Request::Kind::Analyze;
    Req.models(MatrixModels);
    RemoteAnalysis RA;
    if (RV) {
      if (RemoteStatus S = RV->analyze(Req, RA); !S)
        return remoteFail(S);
    } else {
      AnalysisOutcome A = Local().analyze(Req);
      RA.Ok = A.Ok;
      RA.Error = A.Error;
      RA.Table = A.table();
      RA.Json = A.json();
    }
    return emitAnalysis(RA, JsonPath, Quiet);
  }

  if (Synth) {
    Req.RequestKind = Request::Kind::Synthesis;
    SynthOutcome S;
    if (RV) {
      if (RemoteStatus St = RV->synthesize(Req, S); !St)
        return remoteFail(St);
    } else {
      S = Local().synthesize(Req, nullptr, Token);
    }
    return emitSynth(S, JsonPath, NoTimings, Quiet);
  }

  Result R;
  if (RV) {
    if (RemoteStatus S = RV->check(Req, R); !S)
      return remoteFail(S);
  } else {
    R = Local().check(Req, nullptr, Token);
  }
  return emitCheck(R, JsonPath, NoTimings, Quiet, PrintSpec);
}
