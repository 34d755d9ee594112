//===- ir/Passes.cpp - Preparation passes ---------------------------------===//

#include "ir/Passes.h"

#include <cassert>
#include <map>
#include <set>
#include <sstream>

namespace akg {
namespace ir {

static bool isZero(const Expr &E) {
  return (E->Kind == ExprKind::IntImm && E->IntVal == 0) ||
         (E->Kind == ExprKind::FloatImm && E->FloatVal == 0);
}

static bool isOne(const Expr &E) {
  return (E->Kind == ExprKind::IntImm && E->IntVal == 1) ||
         (E->Kind == ExprKind::FloatImm && E->FloatVal == 1);
}

static bool isImm(const Expr &E) {
  return E->Kind == ExprKind::IntImm || E->Kind == ExprKind::FloatImm;
}

static double immValue(const Expr &E) {
  return E->Kind == ExprKind::IntImm ? static_cast<double>(E->IntVal)
                                     : E->FloatVal;
}

static Expr makeImmLike(const Expr &Proto, double V) {
  if (Proto->Type == DType::I32 || Proto->Type == DType::Bool)
    return intImm(static_cast<int64_t>(V), Proto->Type);
  return floatImm(V, Proto->Type);
}

namespace {

/// Flattens an Add/Sub/Mul-by-constant chain into (constant, coeff * leaf)
/// terms and rebuilds a canonical sum. Leaves are keyed structurally.
Expr linearNormalize(const Expr &E) {
  std::map<std::string, std::pair<Expr, int64_t>> Terms;
  double FloatConst = 0;
  int64_t IntConst = 0;
  bool HasFloat = false;
  std::function<bool(const Expr &, int64_t)> Go = [&](const Expr &N,
                                                      int64_t S) -> bool {
    switch (N->Kind) {
    case ExprKind::IntImm:
      IntConst += S * N->IntVal;
      return true;
    case ExprKind::FloatImm:
      FloatConst += S * N->FloatVal;
      HasFloat = true;
      return true;
    case ExprKind::Add:
      return Go(N->Operands[0], S) && Go(N->Operands[1], S);
    case ExprKind::Sub:
      return Go(N->Operands[0], S) && Go(N->Operands[1], -S);
    case ExprKind::Mul: {
      int64_t C;
      if (isConstInt(N->Operands[0], &C))
        return Go(N->Operands[1], S * C);
      if (isConstInt(N->Operands[1], &C))
        return Go(N->Operands[0], S * C);
      Terms[exprToString(N)].first = N;
      Terms[exprToString(N)].second += S;
      return true;
    }
    default:
      Terms[exprToString(N)].first = N;
      Terms[exprToString(N)].second += S;
      return true;
    }
  };
  if (!Go(E, 1) || HasFloat)
    return E;
  Expr R;
  for (const auto &[Key, TC] : Terms) {
    (void)Key;
    if (TC.second == 0)
      continue;
    Expr T = TC.second == 1 ? TC.first
                            : mul(intImm(TC.second), TC.first);
    R = R ? add(R, T) : T;
  }
  if (!R)
    return intImm(IntConst, E->Type);
  if (IntConst != 0)
    R = add(R, intImm(IntConst, E->Type));
  return R;
}

/// The per-node rules of simplifyExpr: rewrites \p E as if its operands
/// were \p Ops, which are already simplified.
Expr simplifyNode(const Expr &E, const std::vector<Expr> &Ops) {
  // A node a rule builds from simplified parts gets only its own rules:
  // simplifying the parts again at every level is exponential in the
  // depth of nested min/max bounds.
  auto Built = [](const Expr &N) { return simplifyNode(N, N->Operands); };
  auto Rebuilt = [&]() -> Expr {
    if (Ops == E->Operands)
      return E;
    auto N = std::make_shared<ExprNode>(*E);
    N->Operands = Ops;
    return N;
  };
  switch (E->Kind) {
  case ExprKind::Add:
    if (isZero(Ops[0]))
      return Ops[1];
    if (isZero(Ops[1]))
      return Ops[0];
    if (isImm(Ops[0]) && isImm(Ops[1]))
      return makeImmLike(E, immValue(Ops[0]) + immValue(Ops[1]));
    break;
  case ExprKind::Sub: {
    if (isZero(Ops[1]))
      return Ops[0];
    if (isImm(Ops[0]) && isImm(Ops[1]))
      return makeImmLike(E, immValue(Ops[0]) - immValue(Ops[1]));
    if (exprEquals(Ops[0], Ops[1]))
      return makeImmLike(E, 0);
    // Distribute over min/max so tile-relative bounds cancel:
    // min(a,b) - c -> min(a-c, b-c).
    if (Ops[0]->Kind == ExprKind::Min || Ops[0]->Kind == ExprKind::Max) {
      Expr L = Built(sub(Ops[0]->Operands[0], Ops[1]));
      Expr R = Built(sub(Ops[0]->Operands[1], Ops[1]));
      return Built(binary(Ops[0]->Kind, L, R));
    }
    Expr Lin = linearNormalize(sub(Ops[0], Ops[1]));
    if (Lin->Kind == ExprKind::IntImm ||
        exprDagSize(Lin) < exprDagSize(E))
      return Lin;
    break;
  }
  case ExprKind::Mul:
    if (isZero(Ops[0]) || isZero(Ops[1]))
      return makeImmLike(E, 0);
    if (isOne(Ops[0]))
      return Ops[1];
    if (isOne(Ops[1]))
      return Ops[0];
    if (isImm(Ops[0]) && isImm(Ops[1]))
      return makeImmLike(E, immValue(Ops[0]) * immValue(Ops[1]));
    break;
  case ExprKind::FloorDiv:
    if (isOne(Ops[1]))
      return Ops[0];
    if (isImm(Ops[0]) && isImm(Ops[1])) {
      int64_t A = static_cast<int64_t>(immValue(Ops[0]));
      int64_t B = static_cast<int64_t>(immValue(Ops[1]));
      int64_t Q = A / B;
      if (A % B != 0 && ((A < 0) != (B < 0)))
        --Q;
      return intImm(Q, E->Type);
    }
    break;
  case ExprKind::Mod:
    if (isOne(Ops[1]))
      return makeImmLike(E, 0);
    break;
  case ExprKind::Min:
  case ExprKind::Max:
    if (exprEquals(Ops[0], Ops[1]))
      return Ops[0];
    if (isImm(Ops[0]) && isImm(Ops[1])) {
      double A = immValue(Ops[0]), B = immValue(Ops[1]);
      return makeImmLike(E, E->Kind == ExprKind::Min ? std::min(A, B)
                                                     : std::max(A, B));
    }
    // min/max with a provably constant difference collapses.
    {
      Expr Diff = Built(sub(Ops[0], Ops[1]));
      int64_t D;
      if (isConstInt(Diff, &D)) {
        bool PickFirst = (E->Kind == ExprKind::Min) == (D <= 0);
        return PickFirst ? Ops[0] : Ops[1];
      }
    }
    // Canonical operand order so structurally-equal bounds compare equal.
    if (exprToString(Ops[0]) > exprToString(Ops[1])) {
      auto N = std::make_shared<ExprNode>(*E);
      N->Operands = {Ops[1], Ops[0]};
      return N;
    }
    break;
  case ExprKind::Select:
    if (isImm(Ops[0]))
      return immValue(Ops[0]) != 0 ? Ops[1] : Ops[2];
    break;
  case ExprKind::CmpEQ:
  case ExprKind::CmpNE:
  case ExprKind::CmpLT:
  case ExprKind::CmpLE: {
    if (!isImm(Ops[0]) || !isImm(Ops[1])) {
      if (exprEquals(Ops[0], Ops[1]))
        return intImm((E->Kind == ExprKind::CmpEQ ||
                       E->Kind == ExprKind::CmpLE)
                          ? 1
                          : 0,
                      DType::Bool);
      break;
    }
    double A = immValue(Ops[0]), B = immValue(Ops[1]);
    bool V = E->Kind == ExprKind::CmpEQ   ? A == B
             : E->Kind == ExprKind::CmpNE ? A != B
             : E->Kind == ExprKind::CmpLT ? A < B
                                          : A <= B;
    return intImm(V ? 1 : 0, DType::Bool);
  }
  case ExprKind::And:
    if (isImm(Ops[0]))
      return immValue(Ops[0]) != 0 ? Ops[1] : intImm(0, DType::Bool);
    if (isImm(Ops[1]))
      return immValue(Ops[1]) != 0 ? Ops[0] : intImm(0, DType::Bool);
    break;
  case ExprKind::Or:
    if (isImm(Ops[0]))
      return immValue(Ops[0]) != 0 ? intImm(1, DType::Bool) : Ops[1];
    if (isImm(Ops[1]))
      return immValue(Ops[1]) != 0 ? intImm(1, DType::Bool) : Ops[0];
    break;
  case ExprKind::Cast:
    if (Ops[0]->Type == E->Type)
      return Ops[0];
    if (Ops[0]->Kind == ExprKind::Cast) {
      // Collapse cast(cast(x)) when the inner cast does not narrow.
      const Expr &Inner = Ops[0]->Operands[0];
      if (dtypeBytes(Ops[0]->Type) >= dtypeBytes(Inner->Type))
        return Built(cast(E->Type, Inner));
    }
    break;
  default:
    break;
  }
  return Rebuilt();
}

} // namespace

Expr simplifyExpr(const Expr &E) {
  if (!E || E->Operands.empty())
    return E;
  std::vector<Expr> Ops;
  Ops.reserve(E->Operands.size());
  for (const Expr &Op : E->Operands)
    Ops.push_back(simplifyExpr(Op));
  return simplifyNode(E, Ops);
}

Stmt simplifyStmt(const Stmt &S) {
  if (!S)
    return S;
  auto N = std::make_shared<StmtNode>(*S);
  for (Stmt &C : N->Children)
    C = simplifyStmt(C);
  if (N->Min)
    N->Min = simplifyExpr(N->Min);
  if (N->Extent)
    N->Extent = simplifyExpr(N->Extent);
  if (N->Value)
    N->Value = simplifyExpr(N->Value);
  if (N->Cond)
    N->Cond = simplifyExpr(N->Cond);
  for (Expr &I : N->Indices)
    I = simplifyExpr(I);
  if (N->Kind == StmtKind::IfThenElse && isImm(N->Cond)) {
    if (immValue(N->Cond) != 0)
      return N->Children[0];
    return N->Children.size() > 1 ? N->Children[1] : makeBlock({});
  }
  if (N->Kind == StmtKind::For) {
    int64_t Ext;
    if (isConstInt(N->Extent, &Ext) && Ext == 1) {
      // Single-iteration loop: substitute the loop variable.
      return simplifyStmt(substituteInStmt(
          N->Children[0], {{N->Var, N->Min}}));
    }
  }
  return N;
}

Stmt substituteInStmt(const Stmt &S,
                      const std::vector<std::pair<std::string, Expr>> &B) {
  if (!S)
    return S;
  auto N = std::make_shared<StmtNode>(*S);
  for (Stmt &C : N->Children)
    C = substituteInStmt(C, B);
  if (N->Min)
    N->Min = substitute(N->Min, B);
  if (N->Extent)
    N->Extent = substitute(N->Extent, B);
  if (N->Value)
    N->Value = substitute(N->Value, B);
  if (N->Cond)
    N->Cond = substitute(N->Cond, B);
  for (Expr &I : N->Indices)
    I = substitute(I, B);
  return N;
}

namespace {

/// Structural key for hash-consing. No pointer-keyed memoization: rejected
/// temporary nodes free their addresses for reuse, which would alias keys.
std::string exprKey(const Expr &E) {
  std::ostringstream OS;
  OS << static_cast<int>(E->Kind) << "|" << static_cast<int>(E->Type) << "|"
     << E->IntVal << "|" << E->FloatVal << "|" << E->Name << "|"
     << (E->Ref ? E->Ref->Name : "") << "(";
  for (const Expr &Op : E->Operands)
    OS << exprKey(Op) << ",";
  OS << ")";
  return OS.str();
}

} // namespace

Expr cseExpr(const Expr &E, unsigned *MergedCount) {
  std::map<std::string, Expr> Canonical;
  unsigned Merged = 0;
  std::function<Expr(const Expr &)> Go = [&](const Expr &N) -> Expr {
    if (!N)
      return N;
    std::vector<Expr> Ops;
    for (const Expr &Op : N->Operands)
      Ops.push_back(Go(Op));
    auto Copy = std::make_shared<ExprNode>(*N);
    Copy->Operands = std::move(Ops);
    Expr C = Copy;
    std::string K = exprKey(C);
    auto [It, Inserted] = Canonical.emplace(K, C);
    if (!Inserted)
      ++Merged;
    return It->second;
  };
  Expr R = Go(E);
  if (MergedCount)
    *MergedCount = Merged;
  return R;
}

unsigned exprDagSize(const Expr &E) {
  std::set<const ExprNode *> Seen;
  std::function<void(const Expr &)> Go = [&](const Expr &N) {
    if (!N || !Seen.insert(N.get()).second)
      return;
    for (const Expr &Op : N->Operands)
      Go(Op);
  };
  Go(E);
  return static_cast<unsigned>(Seen.size());
}

Module inlineElementwiseOps(const Module &M) {
  // Count consumers of each tensor.
  std::map<const TensorDecl *, unsigned> Uses;
  for (const auto &Op : M.ops())
    for (const Tensor &R : collectReads(Op->Body))
      ++Uses[R.get()];
  std::vector<Tensor> Outs = M.outputs();
  auto IsOut = [&](const Tensor &T) {
    for (const Tensor &O : Outs)
      if (O == T)
        return true;
    return false;
  };

  Module New;
  // Old tensor -> replacement read target in the new module.
  std::map<const TensorDecl *, Tensor> Remap;
  // Old tensor -> inlined body template (indices substituted per use).
  struct InlineDef {
    std::vector<IterVar> Axis;
    Expr Body;
  };
  std::map<const TensorDecl *, InlineDef> Inlined;

  for (const Tensor &In : M.inputs())
    Remap[In.get()] = New.placeholder(In->Name, In->Shape, In->Type);

  // Rewrites reads in a body: remapped tensors become reads of the new
  // tensor; inlined tensors become their body with axes substituted.
  std::function<Expr(const Expr &)> Rewrite = [&](const Expr &E) -> Expr {
    if (!E)
      return E;
    if (E->Kind == ExprKind::TensorRead) {
      std::vector<Expr> Idx;
      for (const Expr &Op : E->Operands)
        Idx.push_back(Rewrite(Op));
      auto InlIt = Inlined.find(E->Ref.get());
      if (InlIt != Inlined.end()) {
        std::vector<std::pair<std::string, Expr>> B;
        for (unsigned I = 0; I < InlIt->second.Axis.size(); ++I)
          B.emplace_back(InlIt->second.Axis[I].Name, Idx[I]);
        return substitute(InlIt->second.Body, B);
      }
      auto It = Remap.find(E->Ref.get());
      assert(It != Remap.end() && "read of unknown tensor");
      return tensorRead(It->second, std::move(Idx));
    }
    std::vector<Expr> Ops;
    bool Changed = false;
    for (const Expr &Op : E->Operands) {
      Expr R = Rewrite(Op);
      Changed |= (R != Op);
      Ops.push_back(std::move(R));
    }
    if (!Changed)
      return E;
    auto N = std::make_shared<ExprNode>(*E);
    N->Operands = std::move(Ops);
    return N;
  };

  for (const auto &Op : M.ops()) {
    Expr Body = Rewrite(Op->Body);
    // Size by structurally distinct subtrees (cseExpr shares equal ones),
    // not by pointers: a module and its JSON round trip share a cache
    // fingerprint but not node sharing, and must inline alike.
    bool CanInline = !Op->isReduction() && !IsOut(Op->Output) &&
                     Uses[Op->Output.get()] == 1 &&
                     exprDagSize(cseExpr(Body)) <= 24;
    if (CanInline) {
      Inlined[Op->Output.get()] = {Op->Axis, Body};
      continue;
    }
    Tensor NT = New.computeRaw(Op->Name, Op->Axis, Body, Op->Output->Type);
    Remap[Op->Output.get()] = NT;
  }
  return New;
}

} // namespace ir
} // namespace akg
