//===--- Printer.cpp - textual dump of LSL programs ------------------------===//

#include "lsl/Printer.h"

#include "support/Format.h"

using namespace checkfence;
using namespace checkfence::lsl;

static std::string indentStr(int Indent) {
  return std::string(static_cast<size_t>(Indent) * 2, ' ');
}

/// The one renderer behind printStmt and printProgramFenceBlind. Fence
/// blind renders skip Fence statements and tag every block with its
/// source line (loop-bound keys name it; see trans::Flattener).
static std::string renderStmt(const Proc &P, const Stmt *S, int Indent,
                              bool FenceBlind) {
  std::string Pad = indentStr(Indent);
  auto Rn = [&](Reg R) { return P.regName(R); };

  switch (S->K) {
  case StmtKind::Const:
    return Pad + formatString("%s = %s\n", Rn(S->Def).c_str(),
                              S->ConstVal.str().c_str());
  case StmtKind::Choice: {
    std::vector<std::string> Opts;
    for (const Value &V : S->Choices)
      Opts.push_back(V.str());
    return Pad + formatString("%s = choice(%s)\n", Rn(S->Def).c_str(),
                              joinStrings(Opts, ", ").c_str());
  }
  case StmtKind::PrimOp: {
    std::vector<std::string> Ops;
    for (Reg R : S->Args)
      Ops.push_back(Rn(R));
    if (S->Op == PrimOpKind::PtrField)
      Ops.push_back(formatString("#%lld", static_cast<long long>(S->Imm)));
    return Pad + formatString("%s = %s(%s)\n", Rn(S->Def).c_str(),
                              primOpName(S->Op),
                              joinStrings(Ops, ", ").c_str());
  }
  case StmtKind::Load:
    return Pad + formatString("%s = *%s\n", Rn(S->Def).c_str(),
                              Rn(S->Addr).c_str());
  case StmtKind::Store:
    return Pad + formatString("*%s = %s\n", Rn(S->Addr).c_str(),
                              Rn(S->Args[0]).c_str());
  case StmtKind::Fence:
    if (FenceBlind)
      return "";
    return Pad + formatString("fence %s\n", fenceKindName(S->FenceK));
  case StmtKind::Atomic: {
    std::string Out = Pad + "atomic {\n";
    for (const Stmt *C : S->Body)
      Out += renderStmt(P, C, Indent + 1, FenceBlind);
    return Out + Pad + "}\n";
  }
  case StmtKind::Call: {
    std::vector<std::string> As, Rs;
    for (Reg R : S->Args)
      As.push_back(Rn(R));
    for (Reg R : S->Rets)
      Rs.push_back(Rn(R));
    return Pad + formatString("%s(%s)(%s)\n", S->Callee.c_str(),
                              joinStrings(As, ", ").c_str(),
                              joinStrings(Rs, ", ").c_str());
  }
  case StmtKind::Block: {
    std::string Out =
        Pad + (FenceBlind ? formatString("t%d@%d: {\n", S->BlockTag,
                                         S->Loc.Line)
                          : formatString("t%d: {\n", S->BlockTag));
    for (const Stmt *C : S->Body)
      Out += renderStmt(P, C, Indent + 1, FenceBlind);
    return Out + Pad + "}\n";
  }
  case StmtKind::Break:
    return Pad + formatString("if (%s) break t%d\n", Rn(S->Cond).c_str(),
                              S->TargetTag);
  case StmtKind::Continue:
    return Pad + formatString("if (%s) continue t%d\n", Rn(S->Cond).c_str(),
                              S->TargetTag);
  case StmtKind::Assert:
    return Pad + formatString("assert(%s)\n", Rn(S->Cond).c_str());
  case StmtKind::Assume:
    return Pad + formatString("assume(%s)\n", Rn(S->Cond).c_str());
  case StmtKind::Alloc:
    return Pad + formatString("%s = alloc(site %d)\n", Rn(S->Def).c_str(),
                              S->AllocSite);
  case StmtKind::Observe:
    return Pad + formatString("observe(%s)\n", Rn(S->Args[0]).c_str());
  case StmtKind::Commit:
    return Pad + "commit\n";
  }
  return Pad + "<bad-stmt>\n";
}

std::string checkfence::lsl::printStmt(const Proc &P, const Stmt *S,
                                       int Indent) {
  return renderStmt(P, S, Indent, /*FenceBlind=*/false);
}

static std::string renderProc(const Proc &P, bool FenceBlind) {
  std::vector<std::string> Params, Rets;
  for (int I = 0; I < P.NumParams; ++I)
    Params.push_back(P.regName(I));
  for (Reg R : P.RetRegs)
    Rets.push_back(P.regName(R));
  std::string Out =
      formatString("proc %s(%s)(%s) {\n", P.Name.c_str(),
                   joinStrings(Params, ", ").c_str(),
                   joinStrings(Rets, ", ").c_str());
  for (const Stmt *S : P.Body)
    Out += renderStmt(P, S, 1, FenceBlind);
  return Out + "}\n";
}

std::string checkfence::lsl::printProc(const Proc &P) {
  return renderProc(P, /*FenceBlind=*/false);
}

static std::string renderProgram(const Program &Prog, bool FenceBlind) {
  std::string Out;
  if (!Prog.globals().empty()) {
    Out += "globals:";
    for (size_t I = 0; I < Prog.globals().size(); ++I)
      Out += formatString(" %s=[%zu]", Prog.globals()[I].c_str(), I);
    Out += "\n\n";
  }
  for (const auto &[Name, P] : Prog.procs())
    Out += renderProc(*P, FenceBlind) + "\n";
  return Out;
}

std::string checkfence::lsl::printProgram(const Program &Prog) {
  return renderProgram(Prog, /*FenceBlind=*/false);
}

std::string checkfence::lsl::printProgramFenceBlind(const Program &Prog) {
  return renderProgram(Prog, /*FenceBlind=*/true);
}

//===----------------------------------------------------------------------===//
// printCSource - the explore fragment, back to CheckFence-C.
//
// The decompiler is deliberately a closed pattern-matcher over the exact
// statement groups the frontend lowers the fragment's C forms to; any
// other shape is rejected so a repro file can never silently mean
// something different from the program it was printed from. The emitted
// C re-lowers with identical register creation order (declarations
// introduce their register before the initializer's temporaries, exactly
// as in the source program), which is what makes the printProgram text -
// and hence the lowered-program fingerprint - reproduce byte-for-byte.
//===----------------------------------------------------------------------===//

namespace {

using namespace checkfence;
using namespace checkfence::lsl;

class CSourcePrinter {
public:
  explicit CSourcePrinter(const Program &Prog) : Prog(Prog) {}

  bool run(std::string &Out, std::string &Error) {
    Text += "extern void observe(int v);\n";
    Text += "extern void fence(char *type);\n";
    for (size_t G = 0; G < Prog.globals().size(); ++G)
      Text += "int " + Prog.globals()[G] + ";\n";
    for (const auto &[Name, P] : Prog.procs()) {
      if (Name == "__global_init") {
        // Synthesized by lowering; re-created (empty) on recompile. A
        // nonempty one would need C-level global initializers, which
        // the fragment does not use.
        if (!bodyEmpty(*P))
          return fail("global initializers are outside the fragment",
                      Error);
        continue;
      }
      if (!printProcC(*P))
        return fail(Err, Error);
    }
    Out = Text;
    return true;
  }

private:
  bool fail(const std::string &Msg, std::string &Error) {
    Error = Msg;
    return false;
  }
  bool reject(const std::string &Msg) {
    if (Err.empty())
      Err = Msg;
    return false;
  }

  static bool bodyEmpty(const Proc &P) {
    for (const Stmt *S : P.Body) {
      if (S->K != StmtKind::Block || !S->Body.empty())
        return false;
    }
    return true;
  }

  /// The debug name of a register; empty when it has none (temporary).
  std::string nameOf(const Proc &P, Reg R) const {
    if (R >= 0 && static_cast<size_t>(R) < P.RegNames.size())
      return P.RegNames[R];
    return std::string();
  }

  /// Const pointer to a scalar global: returns its name, or empty.
  std::string globalOf(const Stmt *S) const {
    if (S->K != StmtKind::Const || !S->ConstVal.isPtr() ||
        S->ConstVal.ptrMark() || S->ConstVal.ptrPath().size() != 1)
      return std::string();
    uint32_t Base = S->ConstVal.ptrPath()[0];
    if (Base >= Prog.globals().size())
      return std::string();
    return Prog.globals()[Base];
  }

  /// A name is usable as a C identifier only when it is unique among
  /// the proc's emitted names and does not shadow a global: the emitted
  /// C identifies registers by name alone.
  bool claimName(const Proc &P, const std::string &N,
                 std::vector<std::string> &Used) {
    for (const std::string &G : Prog.globals())
      if (G == N)
        return reject("local '" + N + "' in '" + P.Name +
                      "' shadows a global");
    for (const std::string &U : Used)
      if (U == N)
        return reject("duplicate local name '" + N + "' in '" + P.Name +
                      "'");
    Used.push_back(N);
    return true;
  }

  bool printProcC(const Proc &P) {
    if (!P.RetRegs.empty())
      return reject("procedure '" + P.Name + "' returns a value");
    if (P.NumParams > 1)
      return reject("procedure '" + P.Name +
                    "' has more than one parameter");
    std::string Param = "void";
    std::vector<bool> Declared(static_cast<size_t>(P.NumRegs), false);
    std::vector<std::string> UsedNames;
    if (P.NumParams == 1) {
      std::string N = nameOf(P, 0);
      if (N.empty())
        return reject("unnamed parameter in '" + P.Name + "'");
      if (!claimName(P, N, UsedNames))
        return false;
      Param = "int " + N;
      Declared[0] = true;
    }
    // A function body lowers to exactly one labeled block.
    if (P.Body.size() != 1 || P.Body[0]->K != StmtKind::Block)
      return reject("procedure '" + P.Name +
                    "' body is not a single block");
    Text += "void " + P.Name + "(" + Param + ") {\n";
    if (!printSeq(P, P.Body[0]->Body, 1, Declared, UsedNames))
      return false;
    Text += "}\n";
    return true;
  }

  bool printSeq(const Proc &P, const std::vector<Stmt *> &Body,
                int Indent, std::vector<bool> &Declared,
                std::vector<std::string> &UsedNames) {
    const std::string Pad(static_cast<size_t>(Indent) * 2, ' ');
    size_t I = 0;
    auto At = [&](size_t K) -> const Stmt * {
      return I + K < Body.size() ? Body[I + K] : nullptr;
    };
    // A named register usable as a C rvalue: a parameter or an
    // already-declared local.
    auto Rvalue = [&](Reg R, std::string &N) {
      N = nameOf(P, R);
      return !N.empty() && R >= 0 &&
             static_cast<size_t>(R) < Declared.size() && Declared[R];
    };
    while (I < Body.size()) {
      const Stmt *S = Body[I];
      switch (S->K) {
      case StmtKind::Fence:
        Text += Pad + formatString("fence(\"%s\");\n",
                                   fenceKindName(S->FenceK));
        ++I;
        continue;
      case StmtKind::Observe: {
        std::string N;
        if (!Rvalue(S->Args[0], N))
          return reject("observe of a temporary");
        Text += Pad + "observe(" + N + ");\n";
        ++I;
        continue;
      }
      case StmtKind::Atomic:
        Text += Pad + "atomic {\n";
        if (!printSeq(P, S->Body, Indent + 1, Declared, UsedNames))
          return false;
        Text += Pad + "}\n";
        ++I;
        continue;
      case StmtKind::Const:
        break; // handled by the grouped patterns below
      default:
        return reject(std::string("statement kind '") +
                      stmtKindName(S->K) + "' is outside the fragment");
      }

      std::string G = globalOf(S);
      if (G.empty())
        return reject("constant is not a scalar global address");
      const Stmt *N1 = At(1);
      if (!N1)
        return reject("dangling global address");

      // g = <reg>;
      if (N1->K == StmtKind::Store && N1->Addr == S->Def) {
        std::string N;
        if (!Rvalue(N1->Args[0], N))
          return reject("store of a temporary");
        Text += Pad + G + " = " + N + ";\n";
        I += 2;
        continue;
      }
      // g = K;  |  g = <reg> + K;
      if (N1->K == StmtKind::Const && N1->ConstVal.isInt()) {
        long long K = N1->ConstVal.intValue();
        const Stmt *N2 = At(2);
        if (N2 && N2->K == StmtKind::Store && N2->Addr == S->Def &&
            N2->Args[0] == N1->Def) {
          Text += Pad + G + formatString(" = %lld;\n", K);
          I += 3;
          continue;
        }
        const Stmt *N3 = At(3);
        if (N2 && N2->K == StmtKind::PrimOp &&
            N2->Op == PrimOpKind::Add && N2->Args.size() == 2 &&
            N2->Args[1] == N1->Def && N3 && N3->K == StmtKind::Store &&
            N3->Addr == S->Def && N3->Args[0] == N2->Def) {
          std::string N;
          if (!Rvalue(N2->Args[0], N))
            return reject("arithmetic on a temporary");
          Text += Pad + G + " = " + N + formatString(" + %lld;\n", K);
          I += 4;
          continue;
        }
        return reject("unrecognized store shape");
      }
      // int r = g;  (or r = g; when r was declared earlier)
      if (N1->K == StmtKind::Load && N1->Addr == S->Def) {
        const Stmt *N2 = At(2);
        if (!N2 || N2->K != StmtKind::PrimOp ||
            N2->Op != PrimOpKind::Copy || N2->Args.size() != 1 ||
            N2->Args[0] != N1->Def)
          return reject("load without a named destination");
        Reg Dst = N2->Def;
        std::string N = nameOf(P, Dst);
        if (N.empty())
          return reject("load into a temporary");
        if (Dst < 0 || static_cast<size_t>(Dst) >= Declared.size())
          return reject("load destination out of range");
        if (!Declared[Dst]) {
          // A fresh declaration creates its register immediately before
          // the initializer's temporaries; anything else would re-lower
          // with different numbering.
          if (Dst != S->Def - 1)
            return reject("declaration of '" + N +
                          "' is displaced from its initializer");
          if (!claimName(P, N, UsedNames))
            return false;
          Declared[Dst] = true;
          Text += Pad + "int " + N + " = " + G + ";\n";
        } else {
          Text += Pad + N + " = " + G + ";\n";
        }
        I += 3;
        continue;
      }
      return reject("unrecognized statement group");
    }
    return true;
  }

  const Program &Prog;
  std::string Text;
  std::string Err;
};

} // namespace

bool checkfence::lsl::printCSource(const Program &Prog, std::string &Out,
                                   std::string &Error) {
  return CSourcePrinter(Prog).run(Out, Error);
}
