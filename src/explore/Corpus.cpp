//===--- Corpus.cpp - scenario dedup and repro persistence -------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "explore/Corpus.h"

#include "frontend/Lowering.h"
#include "harness/Catalog.h"
#include "impls/Impls.h"
#include "lsl/Printer.h"
#include "support/Fingerprint.h"
#include "support/Format.h"

#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <sys/stat.h>

using namespace checkfence;
using namespace checkfence::explore;

Scenario Repro::toScenario() const {
  Scenario S;
  if (!Source.empty()) {
    S.K = Scenario::Kind::Litmus;
    S.Source = Source;
    S.HasStructure = false;
  } else {
    S.K = Scenario::Kind::Symbolic;
    S.Impl = Impl;
    S.Notation = Notation;
  }
  return S;
}

namespace {

/// Lowered text of a built-in implementation, compiled once per process
/// (the selection phase fingerprints hundreds of symbolic scenarios
/// drawn from a handful of implementations). Thread-safe.
const std::string *loweredImplText(const std::string &Impl,
                                   std::string &Error) {
  static std::mutex Mu;
  static std::map<std::string, std::string> Cache;
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Cache.find(Impl);
  if (It != Cache.end())
    return &It->second;
  frontend::DiagEngine Diags;
  lsl::Program Prog;
  if (!frontend::compileC(impls::sourceFor(Impl), {}, Prog, Diags)) {
    Error = "frontend error:\n" + Diags.str();
    return nullptr;
  }
  return &(Cache[Impl] = lsl::printProgram(Prog));
}

} // namespace

std::string checkfence::explore::scenarioFingerprint(
    const Scenario &S, std::string &Error,
    std::optional<lsl::Program> *Lowered) {
  if (S.K == Scenario::Kind::Litmus) {
    frontend::DiagEngine Diags;
    lsl::Program Prog;
    if (!frontend::compileC(S.Source, {}, Prog, Diags)) {
      Error = "frontend error:\n" + Diags.str();
      return std::string();
    }
    std::string Fp = support::loweredProgramFingerprint(Prog, {});
    if (Lowered)
      Lowered->emplace(std::move(Prog));
    return Fp;
  }
  const impls::ImplInfo *Info = impls::findImpl(S.Impl);
  if (!Info) {
    Error = "unknown implementation '" + S.Impl + "'";
    return std::string();
  }
  // Parse (rejecting bad notation) but fingerprint over the impl's
  // cached lowered text plus the canonical notation rendering: the
  // thread procedures are a pure function of the two, so recompiling
  // the implementation per scenario would add nothing but time.
  harness::TestSpec Spec;
  harness::OpAlphabet Alphabet = harness::alphabetFor(Info->Kind);
  if (!harness::parseTestNotation(S.Notation, Alphabet, Spec, Error))
    return std::string();
  const std::string *ImplText = loweredImplText(S.Impl, Error);
  if (!ImplText)
    return std::string();
  std::string Blob = *ImplText;
  Blob += '\x1f';
  Blob += S.Impl;
  Blob += '\x1f';
  Blob += harness::renderTestNotation(Spec, Alphabet);
  return support::fnv1aHex(Blob);
}

bool checkfence::explore::buildRepro(
    const Scenario &S, const Divergence &D,
    const std::vector<memmodel::ModelParams> &Models, Repro &Out,
    std::string &Error) {
  Out = Repro();
  Out.Label = S.label();
  Out.Div = D;
  for (const memmodel::ModelParams &M : Models)
    Out.Models.push_back(memmodel::modelName(M));
  Out.Threads = S.threadCount();
  Out.Ops = S.opCount();
  if (S.K == Scenario::Kind::Symbolic) {
    Out.Impl = S.Impl;
    Out.Notation = S.Notation;
    return true;
  }
  // Round-trip the litmus program through the printer so the persisted
  // source is the canonical fragment rendering of the *lowered* program
  // (and re-checks under the same fingerprint).
  frontend::DiagEngine Diags;
  lsl::Program Prog;
  if (!frontend::compileC(S.Source, {}, Prog, Diags)) {
    Error = "frontend error:\n" + Diags.str();
    return false;
  }
  if (!lsl::printCSource(Prog, Out.Source, Error))
    return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Repro file format
//===----------------------------------------------------------------------===//

std::string checkfence::explore::renderRepro(const Repro &R) {
  std::string Out;
  Out += "checkfence-explore-repro 1\n";
  Out += "label " + escapeLine(R.Label) + "\n";
  Out += "models " + joinStrings(R.Models, ",") + "\n";
  Out += "divkind " + escapeLine(R.Div.Kind) + "\n";
  Out += "divmodel " + escapeLine(R.Div.Model) + "\n";
  Out += "detail " + escapeLine(R.Div.Detail) + "\n";
  Out += formatString("threads %d\n", R.Threads);
  Out += formatString("ops %d\n", R.Ops);
  if (!R.Source.empty()) {
    // Normalize the trailing newline before counting, so the declared
    // line count always matches what the parser will consume.
    std::string Src = R.Source;
    if (Src.back() != '\n')
      Src += '\n';
    int Lines = 0;
    for (char C : Src)
      Lines += C == '\n';
    Out += formatString("source %d\n", Lines);
    Out += Src;
  } else {
    Out += "impl " + escapeLine(R.Impl) + "\n";
    Out += "notation " + escapeLine(R.Notation) + "\n";
  }
  Out += "end\n";
  return Out;
}

bool checkfence::explore::parseRepro(const std::string &Text, Repro &Out,
                                     std::string &Error) {
  Out = Repro();
  std::istringstream In(Text);
  std::string Line;
  if (!std::getline(In, Line) || Line != "checkfence-explore-repro 1") {
    Error = "not a checkfence explore repro file";
    return false;
  }
  bool Ended = false;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    size_t Sp = Line.find(' ');
    std::string Tag = Line.substr(0, Sp);
    std::string Rest =
        Sp == std::string::npos ? std::string() : Line.substr(Sp + 1);
    if (Tag == "label") {
      Out.Label = unescapeLine(Rest);
    } else if (Tag == "models") {
      std::string Cur;
      for (char C : Rest + ",") {
        if (C == ',') {
          if (!Cur.empty())
            Out.Models.push_back(Cur);
          Cur.clear();
        } else {
          Cur += C;
        }
      }
    } else if (Tag == "divkind") {
      Out.Div.Kind = unescapeLine(Rest);
    } else if (Tag == "divmodel") {
      Out.Div.Model = unescapeLine(Rest);
    } else if (Tag == "detail") {
      Out.Div.Detail = unescapeLine(Rest);
    } else if (Tag == "threads") {
      Out.Threads = std::atoi(Rest.c_str());
    } else if (Tag == "ops") {
      Out.Ops = std::atoi(Rest.c_str());
    } else if (Tag == "impl") {
      Out.Impl = unescapeLine(Rest);
    } else if (Tag == "notation") {
      Out.Notation = unescapeLine(Rest);
    } else if (Tag == "source") {
      int Lines = std::atoi(Rest.c_str());
      for (int I = 0; I < Lines; ++I) {
        if (!std::getline(In, Line)) {
          Error = "truncated source section";
          return false;
        }
        Out.Source += Line + "\n";
      }
    } else if (Tag == "end") {
      Ended = true;
      break;
    } else {
      Error = "unknown tag '" + Tag + "'";
      return false;
    }
  }
  if (!Ended) {
    Error = "missing end marker";
    return false;
  }
  if (Out.Source.empty() && (Out.Impl.empty() || Out.Notation.empty())) {
    Error = "repro names neither a source nor an impl+notation";
    return false;
  }
  return true;
}

bool checkfence::explore::loadRepro(const std::string &Path, Repro &Out,
                                    std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot open " + Path;
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  return parseRepro(SS.str(), Out, Error);
}

//===----------------------------------------------------------------------===//
// Corpus
//===----------------------------------------------------------------------===//

Corpus::Corpus(std::string Dir) : Dir(std::move(Dir)) {
  if (!this->Dir.empty())
    ::mkdir(this->Dir.c_str(), 0755); // EEXIST is fine
}

void Corpus::load() {
  if (Dir.empty())
    return;
  std::ifstream In(Dir + "/seen.txt");
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty())
      Seen.insert(Line);
}

bool Corpus::seen(const std::string &Fp) const {
  return Seen.count(Fp) != 0;
}

void Corpus::note(const std::string &Fp) { Seen.insert(Fp); }

bool Corpus::persist() {
  if (Dir.empty())
    return true;
  std::ofstream Out(Dir + "/seen.txt", std::ios::trunc);
  if (!Out)
    return false;
  for (const std::string &Fp : Seen)
    Out << Fp << "\n";
  return static_cast<bool>(Out);
}

std::string Corpus::saveRepro(const Repro &R, const std::string &Fp,
                              std::string &Error) const {
  if (Dir.empty())
    return std::string();
  std::string Path = Dir + "/repro-" + Fp + ".txt";
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out) {
    Error = "cannot write " + Path;
    return std::string();
  }
  Out << renderRepro(R);
  if (!Out) {
    Error = "short write to " + Path;
    return std::string();
  }
  return Path;
}
