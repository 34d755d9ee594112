//===- schedule/AstGen.cpp - Schedule tree -> AST generation --------------===//
//
// AST generation is the compile pipeline's dominant cold-path cost (the
// per-statement Fourier-Motzkin projections and the removeRedundant /
// impliedByEmitted LP storms), so the generator layers three exact
// fast paths over the naive recursion (DESIGN.md 4i):
//
//   * a process-wide content-addressed memo for the per-statement
//     "project context onto loop vars + removeRedundant" subproblem and
//     for the impliedByEmitted separation checks. Keys serialize the
//     full numeric content (constraints, divs, dimension split, emitted
//     set), so a hit replays a pure function of the key and the emitted
//     AST is bit-identical with the memo on or off
//     (AstGenOptions::UseMemo, AKG_ASTGEN_MEMO=0, turns it off for
//     differential testing);
//   * syntactic implication shortcuts (trivial constants, per-constraint
//     dominance by an emitted bound) that fire only when a member point
//     of the emitted set is known, which makes their verdict provably
//     equal to the LP's;
//   * an arena/interning pool for leaf expression nodes (integer
//     constants, loop variables), which collapses the allocation storm
//     of bound/guard expression construction.
//
// Effectiveness is observable through the astgen.* Stats counters
// (astgen.proj_memo_hit, astgen.implied_syntactic, astgen.lp_avoided,
// astgen.incremental_refinements, ...), surfaced per-pass in compile
// traces and in the repo benchmark's per-layer ledger (perfbench
// astgen.memo_hit_rate and astgen.lp_avoided).
//
//===----------------------------------------------------------------------===//

#include "schedule/AstGen.h"

#include "ir/Passes.h"
#include "support/Arena.h"
#include "support/Cancel.h"
#include "support/Matrix.h"
#include "support/Stats.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <mutex>
#include <unordered_map>

namespace akg {
namespace sched {

using namespace poly;
using ir::Expr;
using ir::Stmt;

namespace {

/// Per-statement code-generation context.
struct ActiveStmt {
  unsigned Id = 0;
  unsigned NumIters = 0;
  /// Dims: [iters of the statement..., every loop var on the path...].
  BasicSet Ctx;
  /// Affine (denominator-1) band rows applied so far, for inversion at the
  /// leaf: Coeffs over iters, the constant, and the bound loop variable.
  std::vector<std::vector<int64_t>> AffRows;
  std::vector<int64_t> AffConsts;
  std::vector<std::string> AffVars;
};

/// One affine bound: Value >= / <= (Coeffs . loopvars + Const) / Div.
struct BoundExpr {
  std::vector<int64_t> Coeffs; // over loop vars (path order)
  int64_t Const = 0;
  int64_t Div = 1; // divide (ceil for lower, floor for upper)
};

//===----------------------------------------------------------------------===//
// Content-addressed memoization (DESIGN.md 4i)
//===----------------------------------------------------------------------===//

void putI64(std::string &S, int64_t V) {
  char B[sizeof V];
  std::memcpy(B, &V, sizeof V);
  S.append(B, sizeof V);
}

void putConstraints(std::string &S, const std::vector<Constraint> &Cons) {
  putI64(S, static_cast<int64_t>(Cons.size()));
  for (const Constraint &C : Cons) {
    putI64(S, C.IsEq ? 1 : 0);
    putI64(S, C.Const);
    putI64(S, static_cast<int64_t>(C.Coeffs.size()));
    for (int64_t V : C.Coeffs)
      putI64(S, V);
  }
}

/// Serialized numeric content of the emitted loop-bound set: the shared
/// suffix of every projection key at a node, and the first component of
/// every impliedByEmitted key. Changing the emitted set changes these
/// bytes, which is what invalidates the memo entries built under the old
/// emitted set (KernelStoreTest exercises this).
std::string serializeEmitted(const BasicSet &E) {
  std::string S;
  putI64(S, E.space().numIn());
  putConstraints(S, E.constraints());
  return S;
}

/// Process-wide memo shared by every compile (the compile service runs
/// many concurrently). Values are pure functions of their keys, so the
/// table never changes an answer - only whether the LPs re-run. Bounded
/// by wholesale reset: the workloads that refill it are exactly the ones
/// that benefit, and a reset only costs the saved time once.
struct AstGenMemo {
  struct ProjEntry {
    bool Empty = false;
    std::vector<Constraint> Cons; // surviving set after removeRedundant
    uint32_t LpEstimate = 0;      // LP solves the original run performed
  };
  static constexpr size_t kMaxEntries = 1u << 15;

  std::mutex Lock;
  std::unordered_map<std::string, ProjEntry> Proj;
  std::unordered_map<std::string, bool> Implied;

  static AstGenMemo &get() {
    // Leaked: outlives every static-destructor-ordered consumer.
    static AstGenMemo *M = new AstGenMemo();
    return *M;
  }

  template <class MapT, class ValT>
  void insertBounded(MapT &Map, const std::string &Key, ValT &&Val) {
    std::lock_guard<std::mutex> G(Lock);
    if (Map.size() >= kMaxEntries) {
      Map.clear();
      Stats::get().add("astgen.memo_reset");
    }
    Map.emplace(Key, std::forward<ValT>(Val));
  }
};

/// True when the origin satisfies every constraint - the cheap member
/// point that gates the syntactic implication shortcuts (same discipline
/// as the removeRedundant prefilter in poly/Affine.cpp).
bool originSatisfies(const BasicSet &S) {
  for (const Constraint &C : S.constraints())
    if (C.IsEq ? C.Const != 0 : C.Const < 0)
      return false;
  return true;
}

/// Per-leaf view of the emitted set: the set itself plus the serialized
/// memo key component and the member-point gate, computed once instead of
/// per guard constraint.
struct EmittedCtx {
  const BasicSet &Set;
  std::string Key;  // empty when the memo is disabled
  bool HasMember = false;
};

class AstGenerator {
public:
  AstGenerator(const ir::PolyProgram &P, const AstGenOptions &Opts)
      : P(P), Opts(Opts), Arena(std::make_shared<NodeArena>()) {}

  Stmt run(const TreeNode *Root) {
    std::vector<ActiveStmt> Active;
    for (const ir::PolyStmt &S : P.Stmts) {
      ActiveStmt A;
      A.Id = S.Id;
      A.NumIters = S.numIters();
      A.Ctx = S.Domain;
      Active.push_back(std::move(A));
    }
    std::vector<std::string> LoopVars;
    BasicSet Emitted(Space::forSet({}, "emitted"));
    Stmt Out = ir::simplifyStmt(gen(Root, Active, LoopVars, Emitted));
    Stats::get().add("astgen.arena_nodes",
                     static_cast<int64_t>(Arena->numAllocations()));
    return Out;
  }

private:
  const ir::PolyProgram &P;
  AstGenOptions Opts;
  unsigned NextVar = 0;
  /// Leaf-node pool: integer immediates and loop-variable reads recur in
  /// every bound, guard and iterator expression; they are interned here
  /// and bump-allocated from a refcounted arena that stays alive as long
  /// as any node built from it.
  std::shared_ptr<NodeArena> Arena;
  std::unordered_map<int64_t, Expr> IntPool;
  std::unordered_map<std::string, Expr> VarPool;

  Expr cInt(int64_t V) {
    auto It = IntPool.find(V);
    if (It != IntPool.end())
      return It->second;
    auto N = std::allocate_shared<ir::ExprNode>(
        ArenaAllocator<ir::ExprNode>(Arena));
    N->Kind = ir::ExprKind::IntImm;
    N->Type = ir::DType::I32;
    N->IntVal = V;
    Expr E = N;
    IntPool.emplace(V, E);
    return E;
  }

  Expr cVar(const std::string &Name) {
    auto It = VarPool.find(Name);
    if (It != VarPool.end())
      return It->second;
    auto N = std::allocate_shared<ir::ExprNode>(
        ArenaAllocator<ir::ExprNode>(Arena));
    N->Kind = ir::ExprKind::Var;
    N->Type = ir::DType::I32;
    N->Name = Name;
    Expr E = N;
    VarPool.emplace(Name, E);
    return E;
  }

  Expr boundToExpr(const BoundExpr &B, const std::vector<std::string> &Vars,
                   bool IsLower) {
    Expr E = cInt(B.Const);
    for (unsigned I = 0; I < B.Coeffs.size(); ++I) {
      if (B.Coeffs[I] == 0)
        continue;
      Expr Term = ir::mul(cInt(B.Coeffs[I]), cVar(Vars[I]));
      E = ir::add(E, Term);
    }
    if (B.Div != 1) {
      if (IsLower) // ceil(a/d) = floor((a + d - 1)/d)
        E = ir::floorDiv(ir::add(E, cInt(B.Div - 1)), cInt(B.Div));
      else
        E = ir::floorDiv(E, cInt(B.Div));
    }
    return ir::simplifyExpr(E);
  }

  Stmt genChildren(const TreeNode *N, const std::vector<ActiveStmt> &Active,
                   const std::vector<std::string> &LoopVars,
                   const BasicSet &Emitted) {
    if (N->Children.empty())
      return emitLeaf(Active, LoopVars, Emitted);
    std::vector<Stmt> Parts;
    for (const auto &C : N->Children) {
      Stmt S = gen(C.get(), Active, LoopVars, Emitted);
      if (S)
        Parts.push_back(std::move(S));
    }
    return ir::makeBlock(std::move(Parts));
  }

  /// Contexts flow down the tree by reference; only the nodes that
  /// actually refine them (filters, extensions, band rows) materialize a
  /// copy. The refinement itself happens in place on that copy.
  Stmt gen(const TreeNode *N, const std::vector<ActiveStmt> &Active,
           const std::vector<std::string> &LoopVars, const BasicSet &Emitted) {
    switch (N->Kind) {
    case NodeKind::Domain:
    case NodeKind::Context:
      return genChildren(N, Active, LoopVars, Emitted);
    case NodeKind::Filter: {
      std::vector<ActiveStmt> Kept;
      for (const ActiveStmt &A : Active)
        for (unsigned Id : N->FilterStmts)
          if (A.Id == Id)
            Kept.push_back(A);
      if (Kept.empty())
        return nullptr;
      return genChildren(N, Kept, LoopVars, Emitted);
    }
    case NodeKind::Sequence:
    case NodeKind::SetNode:
      return genChildren(N, Active, LoopVars, Emitted);
    case NodeKind::Mark: {
      if (N->MarkTag == "skipped")
        return nullptr; // suppressed producer subtree (Fig 3e)
      Stmt Body = genChildren(N, Active, LoopVars, Emitted);
      if (!Body)
        return nullptr;
      return ir::makeAttr("mark", N->MarkTag, std::move(Body));
    }
    case NodeKind::Extension: {
      std::vector<ActiveStmt> Ext = Active;
      for (const ExtensionDecl &E : N->Extensions) {
        const ir::PolyStmt &St = P.Stmts[E.StmtId];
        assert(E.Rel.space().numIn() == LoopVars.size() &&
               "extension relation arity must match the loop prefix");
        assert(E.Rel.space().numOut() == St.numIters() &&
               "extension relation must target the statement iterators");
        ActiveStmt A;
        A.Id = E.StmtId;
        A.NumIters = St.numIters();
        A.Ctx = St.Domain;
        // Append all existing loop vars and bind them via the relation.
        for (const std::string &V : LoopVars)
          A.Ctx.appendInDim(V);
        unsigned NIter = St.numIters();
        for (const Constraint &C : E.Rel.constraints()) {
          std::vector<int64_t> Row(A.Ctx.numCols(), 0);
          for (unsigned K = 0; K < E.Rel.space().numIn(); ++K)
            Row[A.Ctx.inCol(NIter + K)] = C.Coeffs[E.Rel.inCol(K)];
          for (unsigned K = 0; K < NIter; ++K)
            Row[A.Ctx.inCol(K)] = C.Coeffs[E.Rel.outCol(K)];
          if (C.IsEq)
            A.Ctx.addEq(Row, C.Const);
          else
            A.Ctx.addIneq(Row, C.Const);
        }
        Ext.push_back(std::move(A));
      }
      return genChildren(N, Ext, LoopVars, Emitted);
    }
    case NodeKind::Band:
      return genBandRow(N, 0, Active, LoopVars, Emitted);
    }
    return nullptr;
  }

  /// Projects a statement context onto its loop-variable columns (iters
  /// and divs eliminated), intersected with what the enclosing loops
  /// already enforce, then runs removeRedundant on the survivors. The
  /// whole subproblem is a pure function of the numeric content of
  /// (context, emitted set, iterator count), so it is served from the
  /// process-wide memo when AKG_ASTGEN_MEMO allows; the miss path below
  /// is byte-for-byte the historical computation.
  struct ProjResult {
    bool Empty = false;
    BasicSet Proj;
  };

  ProjResult reducedProjection(const ActiveStmt &A, const BasicSet &Emitted,
                               const std::string &EmittedKey) const {
    const bool UseMemo = !EmittedKey.empty();
    std::string Key;
    if (UseMemo) {
      const BasicSet &Ctx = A.Ctx;
      Key.reserve(64 + EmittedKey.size() +
                  Ctx.constraints().size() * (Ctx.numCols() + 3) * 8);
      Key += 'P';
      putI64(Key, A.NumIters);
      putI64(Key, Ctx.space().numParams());
      putI64(Key, Ctx.space().numIn());
      putI64(Key, Ctx.space().numOut());
      putI64(Key, static_cast<int64_t>(Ctx.divs().size()));
      for (const DivDef &D : Ctx.divs()) {
        putI64(Key, D.Denom);
        putI64(Key, D.Const);
        putI64(Key, static_cast<int64_t>(D.Coeffs.size()));
        for (int64_t V : D.Coeffs)
          putI64(Key, V);
      }
      putConstraints(Key, Ctx.constraints());
      Key += EmittedKey;
      AstGenMemo &M = AstGenMemo::get();
      std::lock_guard<std::mutex> G(M.Lock);
      auto It = M.Proj.find(Key);
      if (It != M.Proj.end()) {
        Stats::get().add("astgen.proj_memo_hit");
        Stats::get().add("astgen.lp_avoided", It->second.LpEstimate);
        return rebuildProjection(A, It->second);
      }
    }
    Stats::get().add("astgen.proj_memo_miss");

    BasicSet C = A.Ctx;
    // Import the emitted loop-bound constraints on the loop-var columns
    // (they sit after the statement's iterators).
    for (const Constraint &EC : Emitted.constraints()) {
      std::vector<int64_t> Row(C.numCols(), 0);
      for (unsigned K = 0; K < Emitted.space().numIn(); ++K)
        Row[C.inCol(A.NumIters + K)] = EC.Coeffs[K];
      if (EC.IsEq)
        C.addEq(Row, EC.Const);
      else
        C.addIneq(Row, EC.Const);
    }
    while (C.numDivs() > 0)
      C.eliminateCol(C.divCol(C.numDivs() - 1));
    for (unsigned I = A.NumIters; I-- > 0;)
      C.eliminateCol(C.inCol(I));

    bool Empty = C.isEmpty();
    uint32_t LpEstimate = 1; // the emptiness probe
    if (!Empty) {
      // On an empty set removeRedundant keeps every constraint (each LP
      // probe is infeasible), so skipping it preserves the historical
      // result of both call sites - including the leaf path, which used
      // to run removeRedundant unconditionally.
      for (const Constraint &Cn : C.constraints())
        if (!Cn.IsEq)
          ++LpEstimate;
      C.removeRedundant();
    }
    if (UseMemo) {
      AstGenMemo::ProjEntry E;
      E.Empty = Empty;
      E.Cons = C.constraints();
      E.LpEstimate = LpEstimate;
      AstGenMemo &M = AstGenMemo::get();
      M.insertBounded(M.Proj, Key, std::move(E));
    }
    return ProjResult{Empty, std::move(C)};
  }

  /// Rebuilds the projected set from a memo entry: the space is the
  /// context's loop-var suffix (exactly what column elimination leaves
  /// behind); the constraints are the cached survivors, re-added through
  /// addConstraint (idempotent on an already-normalized, deduped list).
  static ProjResult rebuildProjection(const ActiveStmt &A,
                                      const AstGenMemo::ProjEntry &E) {
    Space Sp;
    Sp.Params = A.Ctx.space().Params;
    Sp.In.assign(A.Ctx.space().In.begin() + A.NumIters,
                 A.Ctx.space().In.end());
    Sp.InTuple = A.Ctx.space().InTuple;
    BasicSet R{std::move(Sp)};
    for (const Constraint &C : E.Cons)
      R.addConstraint(C);
    return ProjResult{E.Empty, std::move(R)};
  }

  Stmt genBandRow(const TreeNode *Band, unsigned Row,
                  std::vector<ActiveStmt> Active,
                  std::vector<std::string> LoopVars, BasicSet Emitted) {
    // Band-row recursion multiplies per separated subtree; one of the
    // three instrumented long-running loops (support/Cancel.h). The pass
    // wrapper attributes a tripped checkpoint to "ast_gen".
    cancel::checkPoint();
    if (Row == Band->bandWidth())
      return genChildren(Band, Active, LoopVars, Emitted);
    std::string VarName = "c" + std::to_string(NextVar++);

    // Bind the new loop variable in every active statement: the contexts
    // are refined in place down the schedule tree (one equality or
    // floor-pair per band row) rather than rebuilt per node.
    Stats::get().add("astgen.incremental_refinements",
                     static_cast<int64_t>(Active.size()));
    for (ActiveStmt &A : Active) {
      unsigned Col = A.Ctx.appendInDim(VarName);
      auto It = Band->Partial.find(A.Id);
      assert(It != Band->Partial.end() &&
             "band does not schedule an active statement");
      const ScheduleRow &SR = It->second.Rows[Row];
      assert(SR.Coeffs.size() == A.NumIters && "schedule row arity");
      if (SR.Denom == 1) {
        std::vector<int64_t> Eq(A.Ctx.numCols(), 0);
        for (unsigned K = 0; K < A.NumIters; ++K)
          Eq[A.Ctx.inCol(K)] = SR.Coeffs[K];
        Eq[Col] = -1;
        A.Ctx.addEq(Eq, SR.Const);
        A.AffRows.push_back(SR.Coeffs);
        A.AffConsts.push_back(SR.Const);
        A.AffVars.push_back(VarName);
      } else {
        // v = floor((coeffs.i + const)/T):  0 <= e - T v <= T - 1.
        std::vector<int64_t> Lo(A.Ctx.numCols(), 0);
        for (unsigned K = 0; K < A.NumIters; ++K)
          Lo[A.Ctx.inCol(K)] = SR.Coeffs[K];
        Lo[Col] = -SR.Denom;
        A.Ctx.addIneq(Lo, SR.Const);
        std::vector<int64_t> Hi(A.Ctx.numCols(), 0);
        for (unsigned K = 0; K < A.NumIters; ++K)
          Hi[A.Ctx.inCol(K)] = -SR.Coeffs[K];
        Hi[Col] = SR.Denom;
        A.Ctx.addIneq(Hi, SR.Denom - 1 - SR.Const);
      }
    }
    LoopVars.push_back(VarName);
    unsigned VIdx = static_cast<unsigned>(LoopVars.size()) - 1;

    // Compute per-statement bounds on the new variable.
    struct StmtBounds {
      std::vector<BoundExpr> Lower, Upper;
    };
    std::string EmittedKey =
        Opts.UseMemo ? serializeEmitted(Emitted) : std::string();
    std::vector<StmtBounds> AllBounds;
    std::vector<ActiveStmt> Kept;
    for (ActiveStmt &A : Active) {
      ProjResult PR = reducedProjection(A, Emitted, EmittedKey);
      if (PR.Empty)
        continue; // statement has no instances in this subtree
      const BasicSet &Proj = PR.Proj;
      StmtBounds SB;
      for (const Constraint &C : Proj.constraints()) {
        // Columns of Proj: loop vars in path order.
        int64_t VC = C.Coeffs[VIdx];
        auto MakeBound = [&](int64_t Sign) {
          BoundExpr B;
          B.Coeffs.assign(LoopVars.size(), 0);
          for (unsigned K = 0; K < LoopVars.size(); ++K)
            if (K != VIdx)
              B.Coeffs[K] = Sign * C.Coeffs[K];
          B.Const = Sign * C.Const;
          return B;
        };
        if (VC > 0) { // VC*v + rest >= 0 -> v >= ceil(-rest / VC)
          BoundExpr B = MakeBound(-1);
          B.Div = VC;
          SB.Lower.push_back(B);
          if (C.IsEq) { // v == -rest/VC: also an upper bound
            B.Div = VC;
            SB.Upper.push_back(std::move(B));
          }
        } else if (VC < 0) { // v <= floor(rest / -VC)
          BoundExpr B = MakeBound(1);
          B.Div = -VC;
          SB.Upper.push_back(B);
          if (C.IsEq) { // v == rest/(-VC): also a lower bound
            B.Div = -VC;
            SB.Lower.push_back(std::move(B));
          }
        }
      }
      assert(!SB.Lower.empty() && !SB.Upper.empty() &&
             "loop variable must be bounded");
      AllBounds.push_back(std::move(SB));
      Kept.push_back(std::move(A));
    }
    if (Kept.empty())
      return nullptr;

    // Union bounds across statements: max of lowers within a statement,
    // min of lowers across statements (loop covers the union).
    auto FoldStmt = [&](const std::vector<BoundExpr> &Bs, bool IsLower) {
      Expr E = boundToExpr(Bs[0], LoopVars, IsLower);
      for (unsigned I = 1; I < Bs.size(); ++I) {
        Expr N = boundToExpr(Bs[I], LoopVars, IsLower);
        E = IsLower ? ir::maxE(E, N) : ir::minE(E, N);
      }
      return E;
    };
    Expr Lb = FoldStmt(AllBounds[0].Lower, true);
    Expr Ub = FoldStmt(AllBounds[0].Upper, false);
    bool SameBounds = true;
    for (unsigned I = 1; I < AllBounds.size(); ++I) {
      Expr L2 = FoldStmt(AllBounds[I].Lower, true);
      Expr U2 = FoldStmt(AllBounds[I].Upper, false);
      if (!ir::exprEquals(L2, Lb)) {
        Lb = ir::minE(Lb, L2);
        SameBounds = false;
      }
      if (!ir::exprEquals(U2, Ub)) {
        Ub = ir::maxE(Ub, U2);
        SameBounds = false;
      }
    }
    Lb = ir::simplifyExpr(Lb);
    Ub = ir::simplifyExpr(Ub);

    // Track what the emitted loop enforces (affine constraints only, and
    // only when shared by every statement).
    Emitted.appendInDim(VarName);
    {
      // Constant-folded bounds carry integer tightening (ceil/floor of the
      // rational bound) that the raw constraints lose.
      int64_t CB;
      if (ir::isConstInt(Lb, &CB)) {
        std::vector<int64_t> Row(Emitted.numCols(), 0);
        Row[Emitted.inCol(VIdx)] = 1;
        Emitted.addIneq(Row, -CB);
      }
      if (ir::isConstInt(Ub, &CB)) {
        std::vector<int64_t> Row(Emitted.numCols(), 0);
        Row[Emitted.inCol(VIdx)] = -1;
        Emitted.addIneq(Row, CB);
      }
    }
    if (SameBounds) {
      for (const BoundExpr &B : AllBounds[0].Lower) {
        // v >= ceil((c.x + k)/d)  <=>  d*v - c.x - k >= 0.
        std::vector<int64_t> Row(Emitted.numCols(), 0);
        for (unsigned K = 0; K < LoopVars.size(); ++K)
          Row[Emitted.inCol(K)] = -B.Coeffs[K];
        Row[Emitted.inCol(VIdx)] += B.Div;
        Emitted.addIneq(Row, -B.Const);
      }
      for (const BoundExpr &B : AllBounds[0].Upper) {
        std::vector<int64_t> Row(Emitted.numCols(), 0);
        for (unsigned K = 0; K < LoopVars.size(); ++K)
          Row[Emitted.inCol(K)] = B.Coeffs[K];
        Row[Emitted.inCol(VIdx)] -= B.Div;
        Emitted.addIneq(Row, B.Const);
      }
    }

    Stmt Body = genBandRow(Band, Row + 1, std::move(Kept),
                           LoopVars, Emitted);
    if (!Body)
      return nullptr;
    Expr Extent = ir::simplifyExpr(
        ir::add(ir::sub(Ub, Lb), cInt(1)));
    Stmt Loop = ir::makeFor(VarName, Lb, Extent, std::move(Body));
    // Mark coincident loops as vectorizable for the code generator.
    if (Row < Band->Coincident.size() && Band->Coincident[Row])
      return ir::makeAttr("coincident", VarName, std::move(Loop));
    return Loop;
  }

  Stmt emitLeaf(const std::vector<ActiveStmt> &Active,
                const std::vector<std::string> &LoopVars,
                const BasicSet &Emitted) {
    std::vector<const ActiveStmt *> Ordered;
    for (const ActiveStmt &A : Active)
      Ordered.push_back(&A);
    std::sort(Ordered.begin(), Ordered.end(),
              [](const ActiveStmt *A, const ActiveStmt *B) {
                return A->Id < B->Id;
              });
    EmittedCtx EC{Emitted,
                  Opts.UseMemo ? serializeEmitted(Emitted) : std::string(),
                  originSatisfies(Emitted)};
    std::vector<Stmt> Out;
    for (const ActiveStmt *A : Ordered) {
      Stmt S = emitStatement(*A, LoopVars, EC);
      if (S)
        Out.push_back(std::move(S));
    }
    if (Out.empty())
      return nullptr;
    return ir::makeBlock(std::move(Out));
  }

  Stmt emitStatement(const ActiveStmt &A,
                     const std::vector<std::string> &LoopVars,
                     const EmittedCtx &EC) {
    const ir::PolyStmt &St = P.Stmts[A.Id];
    // Solve the iterators from the affine band rows.
    unsigned N = A.NumIters;
    // Select N linearly independent rows in application order.
    std::vector<unsigned> Chosen;
    {
      Matrix M(0, N);
      for (unsigned R = 0; R < A.AffRows.size() && Chosen.size() < N; ++R) {
        Matrix Try = M;
        std::vector<Rational> Row(N);
        for (unsigned C = 0; C < N; ++C)
          Row[C] = Rational(A.AffRows[R][C]);
        Try.addRow(Row);
        if (Try.rank() > M.rank()) {
          M = Try;
          Chosen.push_back(R);
        }
      }
      assert(Chosen.size() == N &&
             "statement iterators not fully determined at leaf");
    }
    Matrix Sq(N, N);
    for (unsigned I = 0; I < N; ++I)
      for (unsigned C = 0; C < N; ++C)
        Sq.at(I, C) = Rational(A.AffRows[Chosen[I]][C]);
    Matrix Inv = Sq.inverse();
    // Iterator expressions: i = Inv * (v - const).
    std::vector<std::pair<std::string, Expr>> Bind;
    for (unsigned K = 0; K < N; ++K) {
      Expr E = cInt(0);
      for (unsigned J = 0; J < N; ++J) {
        Rational C = Inv.at(K, J);
        if (C.isZero())
          continue;
        assert(C.isInteger() &&
               "non-unimodular schedule at leaf (unsupported stride)");
        Expr Term = ir::mul(
            cInt(C.getInt64()),
            ir::sub(cVar(A.AffVars[Chosen[J]]),
                    cInt(A.AffConsts[Chosen[J]])));
        E = ir::add(E, Term);
      }
      Bind.emplace_back(St.Iters[K].Name, ir::simplifyExpr(E));
    }
    // Statement body.
    std::vector<Expr> Idx;
    for (const Expr &I : St.Write.Indices)
      Idx.push_back(ir::simplifyExpr(ir::substitute(I, Bind)));
    Expr Rhs = ir::simplifyExpr(ir::substitute(St.Rhs, Bind));
    Stmt Body = ir::makeProvide(St.Write.Ref, std::move(Idx), std::move(Rhs));

    // Guards: context constraints over loop vars not implied by the
    // emitted loop bounds.
    ProjResult PR = reducedProjection(A, EC.Set, EC.Key);
    const BasicSet &Proj = PR.Proj;
    std::vector<Expr> Guards;
    for (const Constraint &C : Proj.constraints()) {
      if (impliedByEmitted(C, EC))
        continue;
      // Build  coeffs . v + const  (>= 0 or == 0).
      Expr E = cInt(C.Const);
      for (unsigned K = 0; K < LoopVars.size() && K < C.Coeffs.size(); ++K) {
        if (C.Coeffs[K] == 0)
          continue;
        E = ir::add(E, ir::mul(cInt(C.Coeffs[K]),
                               cVar(LoopVars[K])));
      }
      E = ir::simplifyExpr(E);
      Guards.push_back(C.IsEq ? ir::cmp(ir::ExprKind::CmpEQ, E, cInt(0))
                              : ir::cmp(ir::ExprKind::CmpLE, cInt(0),
                                        E));
    }
    for (unsigned G = Guards.size(); G-- > 0;)
      Body = ir::makeIf(Guards[G], std::move(Body));
    return Body;
  }

  /// Separation check: is constraint \p C implied by the emitted loop
  /// bounds? Decided, in order, by the memo, by syntactic shortcuts
  /// (exact only because a member point of the emitted set is known),
  /// and finally by the historical LP. All three produce the same
  /// verdict; only the cost differs.
  bool impliedByEmitted(const Constraint &C, const EmittedCtx &EC) const {
    if (C.IsEq)
      return false;
    const BasicSet &Emitted = EC.Set;
    const std::vector<Constraint> &ECons = Emitted.constraints();
    // Min of C over Emitted >= 0 => implied.
    if (ECons.empty())
      return false;
    // The LP truncates/pads C to the emitted set's columns; every check
    // below must see exactly the coefficients the LP would.
    unsigned W = std::min<size_t>(Emitted.numCols(), C.Coeffs.size());
    std::string Key;
    const bool UseMemo = !EC.Key.empty();
    if (UseMemo) {
      Key.reserve(EC.Key.size() + (W + 3) * 8);
      Key += 'I';
      putI64(Key, C.Const);
      putI64(Key, W);
      for (unsigned K = 0; K < W; ++K)
        putI64(Key, C.Coeffs[K]);
      Key += EC.Key;
      AstGenMemo &M = AstGenMemo::get();
      std::lock_guard<std::mutex> G(M.Lock);
      auto It = M.Implied.find(Key);
      if (It != M.Implied.end()) {
        Stats::get().add("astgen.implied_memo_hit");
        Stats::get().add("astgen.lp_avoided");
        return It->second;
      }
    }

    bool Result = false;
    bool Decided = false;
    if (EC.HasMember) {
      // Trivial constant: min over a non-empty set of a constant
      // objective is that constant.
      bool AllZero = true;
      for (unsigned K = 0; K < W; ++K)
        if (C.Coeffs[K] != 0) {
          AllZero = false;
          break;
        }
      if (AllZero) {
        Result = C.Const >= 0;
        Decided = true;
      }
      // Dominance by one emitted constraint with the same coefficient
      // vector: E.x + E.c >= 0 pointwise bounds C.x + C.c from below by
      // C.c - E.c; an equality pins the objective's value exactly.
      for (unsigned I = 0; !Decided && I < ECons.size(); ++I) {
        const Constraint &E = ECons[I];
        bool SameCoeffs = true;
        for (unsigned K = 0; K < E.Coeffs.size(); ++K) {
          int64_t CK = K < W ? C.Coeffs[K] : 0;
          if (E.Coeffs[K] != CK) {
            SameCoeffs = false;
            break;
          }
        }
        if (!SameCoeffs)
          continue;
        if (E.IsEq) {
          // C.x is the constant -E.c over the whole set.
          Result = C.Const - E.Const >= 0;
          Decided = true;
        } else if (C.Const >= E.Const) {
          Result = true;
          Decided = true;
        }
      }
      if (Decided) {
        Stats::get().add("astgen.implied_syntactic");
        Stats::get().add("astgen.lp_avoided");
      }
    }
    if (!Decided) {
      Stats::get().add("astgen.implied_lp");
      LpProblem Lp = Emitted.toLp();
      std::vector<Rational> Obj(Lp.NumVars, Rational(0));
      for (unsigned K = 0; K < Emitted.numCols() && K < C.Coeffs.size(); ++K)
        Obj[K] = Rational(C.Coeffs[K]);
      LpResult R = lpMinimize(Lp, Obj);
      Result = R.Status == LpStatus::Optimal &&
               R.Value + Rational(C.Const) >= Rational(0);
    }
    if (UseMemo) {
      AstGenMemo &M = AstGenMemo::get();
      M.insertBounded(M.Implied, Key, Result);
    }
    return Result;
  }
};

} // namespace

Stmt generateAst(const ScheduleTree &T, const ir::PolyProgram &P,
                 const AstGenOptions &Opts) {
  AstGenerator G(P, Opts);
  // Unconditional counter for the compile trace's per-pass deltas.
  Stats::get().add("astgen.runs");
  return G.run(T.root());
}

} // namespace sched
} // namespace akg
