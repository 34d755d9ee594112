//===- scheduler/Dependence.cpp - Data dependence analysis ----------------===//

#include "scheduler/Dependence.h"

#include "support/Cancel.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>

namespace akg {
namespace sched {

using namespace poly;

/// Builds {i -> j : SrcAcc(i) = DstAcc(j)}, both restricted to their
/// domains.
static BasicMap accessPairRelation(const ir::PolyStmt &Src,
                                   const BasicMap &SrcAcc,
                                   const ir::PolyStmt &Dst,
                                   const BasicMap &DstAcc) {
  BasicMap Rel = composeMaps(SrcAcc, reverseMap(DstAcc));
  Rel = intersectDomain(Rel, Src.Domain);
  Rel = intersectRange(Rel, Dst.Domain);
  return Rel;
}

/// Splits a self-relation into the lexicographically-forward pieces
/// (i <lex j) and appends the non-empty ones.
static void addSelfPieces(std::vector<Dependence> &Out, unsigned Id,
                          DepKind Kind, const BasicMap &Rel,
                          unsigned NumDims) {
  for (unsigned K = 0; K < NumDims; ++K) {
    BasicMap Piece = Rel;
    for (unsigned D = 0; D < K; ++D) {
      std::vector<int64_t> Eq(Piece.numCols(), 0);
      Eq[Piece.inCol(D)] = 1;
      Eq[Piece.outCol(D)] = -1;
      Piece.addEq(Eq, 0);
    }
    std::vector<int64_t> Lt(Piece.numCols(), 0);
    Lt[Piece.outCol(K)] = 1;
    Lt[Piece.inCol(K)] = -1;
    Piece.addIneq(Lt, -1); // j_k - i_k - 1 >= 0
    if (Piece.isEmpty())
      continue;
    Dependence D;
    D.Src = Id;
    D.Dst = Id;
    D.Kind = Kind;
    D.Rel = std::move(Piece);
    D.IsSelf = true;
    Out.push_back(std::move(D));
  }
}

/// Dependences of one (A, B) statement pair, in the canonical intra-pair
/// order (RAW per read, then WAW, then WAR). Pure function of the pair:
/// touches only its own copies of the relations, so pairs can run on
/// worker threads concurrently.
static std::vector<Dependence> pairDependences(const ir::PolyProgram &P,
                                               unsigned A, unsigned B) {
  std::vector<Dependence> Deps;
  const ir::PolyStmt &SA = P.Stmts[A];
  const ir::PolyStmt &SB = P.Stmts[B];
  auto AddCross = [&](DepKind Kind, const BasicMap &AccA,
                      const BasicMap &AccB) {
    BasicMap Rel = accessPairRelation(SA, AccA, SB, AccB);
    if (A == B) {
      addSelfPieces(Deps, A, Kind, Rel, SA.numIters());
      return;
    }
    if (Rel.isEmpty())
      return;
    Dependence D;
    D.Src = A;
    D.Dst = B;
    D.Kind = Kind;
    D.Rel = std::move(Rel);
    Deps.push_back(std::move(D));
  };
  // RAW: A writes, B reads the same tensor.
  for (const ir::PolyAccess &R : SB.Reads)
    if (R.Ref == SA.Write.Ref)
      AddCross(DepKind::RAW, SA.Write.Rel, R.Rel);
  // WAW: both write the same tensor.
  if (SA.Write.Ref == SB.Write.Ref && (A != B))
    AddCross(DepKind::WAW, SA.Write.Rel, SB.Write.Rel);
  // WAR: A reads, B writes.
  for (const ir::PolyAccess &R : SA.Reads)
    if (R.Ref == SB.Write.Ref && A != B)
      AddCross(DepKind::WAR, R.Rel, SB.Write.Rel);
  return Deps;
}

std::vector<Dependence> computeDependences(const ir::PolyProgram &P,
                                           unsigned Threads) {
  const auto &Stmts = P.Stmts;
  std::vector<std::pair<unsigned, unsigned>> Pairs;
  for (unsigned A = 0; A < Stmts.size(); ++A)
    for (unsigned B = A; B < Stmts.size(); ++B)
      Pairs.emplace_back(A, B);

  if (Pairs.size() < 2)
    Threads = 1; // not worth spinning up workers

  // Pair-indexed result slots keep the output order identical at any
  // thread count: the flattening below follows the sequential pair order.
  // The request's cancel context is thread-local, so it is re-installed
  // explicitly on each pool worker; a tripped checkpoint rethrows out of
  // parallelFor after every worker finishes (one of the three
  // instrumented long-running loops, support/Cancel.h).
  const cancel::Context *Req = cancel::current();
  std::vector<std::vector<Dependence>> PerPair(Pairs.size());
  parallelFor(Threads, Pairs.size(), [&](size_t I) {
    cancel::Scope Propagated(Req);
    cancel::checkPoint();
    PerPair[I] = pairDependences(P, Pairs[I].first, Pairs[I].second);
  });

  std::vector<Dependence> Deps;
  for (std::vector<Dependence> &PP : PerPair)
    for (Dependence &D : PP)
      Deps.push_back(std::move(D));
  return Deps;
}

static std::optional<int64_t> distanceBound(const Dependence &D,
                                            unsigned InDim, unsigned OutDim,
                                            bool WantMax) {
  LpProblem P = D.Rel.toLp();
  std::vector<Rational> Obj(P.NumVars);
  Obj[D.Rel.outCol(OutDim)] = Rational(1);
  Obj[D.Rel.inCol(InDim)] += Rational(-1);
  LpResult R = WantMax ? lpMaximize(P, Obj) : lpMinimize(P, Obj);
  if (R.Status != LpStatus::Optimal)
    return std::nullopt;
  return WantMax ? R.Value.floor().getInt64() : R.Value.ceil().getInt64();
}

std::optional<int64_t> depDistanceMin(const Dependence &D, unsigned InDim,
                                      unsigned OutDim) {
  return distanceBound(D, InDim, OutDim, /*WantMax=*/false);
}

std::optional<int64_t> depDistanceMax(const Dependence &D, unsigned InDim,
                                      unsigned OutDim) {
  return distanceBound(D, InDim, OutDim, /*WantMax=*/true);
}

} // namespace sched
} // namespace akg
