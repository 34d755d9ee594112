//===- target/Codegen.cpp - AST -> CCE/SIMT kernel lowering ---------------===//

#include "target/Codegen.h"

#include "support/Stats.h"
#include "target/Vectorize.h"
#include "transforms/Conv.h"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>

namespace akg {
namespace cce {

using namespace ir;

namespace {

int64_t ceilDiv(int64_t A, int64_t B) { return B ? (A + B - 1) / B : 0; }
int64_t roundUpTo(int64_t A, int64_t B) { return ceilDiv(A, B) * B; }

//===----------------------------------------------------------------------===//
// First-tile static evaluation
//===----------------------------------------------------------------------===//

/// Evaluates an expression with every variable bound to 0. On the bound
/// expressions the AST generator produces (min(T, N - T*c) and friends)
/// this yields the extent of the *first* tile, which is the largest one;
/// boxes sized from it cover every instance.
int64_t evalFirstTile(const Expr &E) {
  if (!E)
    return 0;
  switch (E->Kind) {
  case ExprKind::IntImm:
    return E->IntVal;
  case ExprKind::FloatImm:
    return static_cast<int64_t>(E->FloatVal);
  case ExprKind::Var:
    return 0;
  case ExprKind::Add:
    return evalFirstTile(E->Operands[0]) + evalFirstTile(E->Operands[1]);
  case ExprKind::Sub:
    return evalFirstTile(E->Operands[0]) - evalFirstTile(E->Operands[1]);
  case ExprKind::Mul:
    return evalFirstTile(E->Operands[0]) * evalFirstTile(E->Operands[1]);
  case ExprKind::Div:
  case ExprKind::FloorDiv: {
    int64_t A = evalFirstTile(E->Operands[0]);
    int64_t B = evalFirstTile(E->Operands[1]);
    if (!B)
      return 0;
    int64_t Q = A / B;
    if ((A % B) && ((A < 0) != (B < 0)) && E->Kind == ExprKind::FloorDiv)
      --Q;
    return Q;
  }
  case ExprKind::Mod: {
    int64_t A = evalFirstTile(E->Operands[0]);
    int64_t B = evalFirstTile(E->Operands[1]);
    return B ? ((A % B) + B) % B : 0;
  }
  case ExprKind::Min:
    return std::min(evalFirstTile(E->Operands[0]),
                    evalFirstTile(E->Operands[1]));
  case ExprKind::Max:
    return std::max(evalFirstTile(E->Operands[0]),
                    evalFirstTile(E->Operands[1]));
  case ExprKind::Select:
    return std::max(evalFirstTile(E->Operands[1]),
                    evalFirstTile(E->Operands[2]));
  case ExprKind::Cast:
    return evalFirstTile(E->Operands[0]);
  default:
    return 0;
  }
}

//===----------------------------------------------------------------------===//
// Loop and affine analysis
//===----------------------------------------------------------------------===//

struct LoopInfo {
  Expr MinE;
  int64_t Ext = 0;
};
using LoopMap = std::map<std::string, LoopInfo>;

void collectLoops(const Stmt &S, LoopMap &L) {
  if (!S)
    return;
  if (S->Kind == StmtKind::For) {
    LoopInfo &LI = L[S->Var];
    if (!LI.MinE)
      LI.MinE = S->Min;
    LI.Ext = std::max<int64_t>(
        {LI.Ext, 1, evalFirstTile(S->Extent)});
  }
  for (const Stmt &C : S->Children)
    collectLoops(C, L);
}

bool containsLoopVar(const Expr &E, const LoopMap &L) {
  if (!E)
    return false;
  if (E->Kind == ExprKind::Var)
    return L.count(E->Name) != 0;
  for (const Expr &O : E->Operands)
    if (containsLoopVar(O, L))
      return true;
  return false;
}

bool containsVarNamed(const Expr &E, const std::string &V) {
  if (!E)
    return false;
  if (E->Kind == ExprKind::Var)
    return E->Name == V;
  for (const Expr &O : E->Operands)
    if (containsVarNamed(O, V))
      return true;
  return false;
}

using CoeffMap = std::map<std::string, int64_t>;

/// Coefficients of region/unit loop variables in \p E when \p E is affine
/// in them; variables not in \p L count as symbolic offsets. nullopt when
/// a loop variable occurs under a non-affine operator.
std::optional<CoeffMap> affineCoeffs(const Expr &E, const LoopMap &L) {
  if (!E)
    return CoeffMap{};
  switch (E->Kind) {
  case ExprKind::IntImm:
  case ExprKind::FloatImm:
    return CoeffMap{};
  case ExprKind::Var: {
    CoeffMap C;
    if (L.count(E->Name))
      C[E->Name] = 1;
    return C;
  }
  case ExprKind::Add:
  case ExprKind::Sub: {
    auto A = affineCoeffs(E->Operands[0], L);
    auto B = affineCoeffs(E->Operands[1], L);
    if (!A || !B)
      return std::nullopt;
    int64_t Sign = E->Kind == ExprKind::Sub ? -1 : 1;
    for (const auto &[V, C] : *B)
      (*A)[V] += Sign * C;
    return A;
  }
  case ExprKind::Mul: {
    int64_t C;
    if (isConstInt(E->Operands[0], &C)) {
      auto B = affineCoeffs(E->Operands[1], L);
      if (!B)
        return std::nullopt;
      for (auto &[V, X] : *B)
        X *= C;
      return B;
    }
    if (isConstInt(E->Operands[1], &C)) {
      auto A = affineCoeffs(E->Operands[0], L);
      if (!A)
        return std::nullopt;
      for (auto &[V, X] : *A)
        X *= C;
      return A;
    }
    return containsLoopVar(E, L) ? std::nullopt
                                 : std::optional<CoeffMap>(CoeffMap{});
  }
  case ExprKind::Cast:
    return affineCoeffs(E->Operands[0], L);
  default:
    return containsLoopVar(E, L) ? std::nullopt
                                 : std::optional<CoeffMap>(CoeffMap{});
  }
}

/// Width of the data box one index expression sweeps over the region's
/// loops, clamped to the tensor dimension.
int64_t boxWidth(const Expr &Idx, const LoopMap &L, int64_t Full) {
  auto C = affineCoeffs(Idx, L);
  if (!C)
    return Full;
  int64_t W = 1;
  for (const auto &[V, X] : *C) {
    auto It = L.find(V);
    if (It != L.end())
      W += std::abs(X) * (It->second.Ext - 1);
  }
  return std::max<int64_t>(1, std::min(W, Full));
}

/// Number of discontiguous bursts a box transfer needs against the full
/// row-major tensor layout: the fully-covered suffix of dimensions is
/// contiguous with the next partial dimension.
int64_t burstsFor(const std::vector<int64_t> &Box,
                  const std::vector<int64_t> &Full) {
  size_t T = Box.size();
  while (T > 0 && T <= Full.size() && Box[T - 1] >= Full[T - 1])
    --T;
  int64_t B = 1;
  for (size_t I = 0; I + 1 < T; ++I)
    B *= Box[I];
  return std::max<int64_t>(B, 1);
}

//===----------------------------------------------------------------------===//
// Statement walking helpers
//===----------------------------------------------------------------------===//

void collectReadNodes(const Expr &E, std::vector<const ExprNode *> &Out) {
  if (!E)
    return;
  if (E->Kind == ExprKind::TensorRead)
    Out.push_back(E.get());
  for (const Expr &O : E->Operands)
    collectReadNodes(O, Out);
}

void collectUnitAccesses(const Stmt &S, std::vector<const ExprNode *> &Reads,
                         std::vector<const StmtNode *> &Writes) {
  if (!S)
    return;
  switch (S->Kind) {
  case StmtKind::For:
    collectReadNodes(S->Min, Reads);
    collectReadNodes(S->Extent, Reads);
    break;
  case StmtKind::IfThenElse:
    collectReadNodes(S->Cond, Reads);
    break;
  case StmtKind::Provide:
    collectReadNodes(S->Value, Reads);
    for (const Expr &I : S->Indices)
      collectReadNodes(I, Reads);
    Writes.push_back(S.get());
    break;
  case StmtKind::Evaluate:
    collectReadNodes(S->Value, Reads);
    break;
  default:
    break;
  }
  for (const Stmt &C : S->Children)
    collectUnitAccesses(C, Reads, Writes);
}

void collectProvides(const Stmt &S, std::vector<const StmtNode *> &Out) {
  if (!S)
    return;
  if (S->Kind == StmtKind::Provide)
    Out.push_back(S.get());
  for (const Stmt &C : S->Children)
    collectProvides(C, Out);
}

bool isMark(const Stmt &S, const char *Tag) {
  return S && S->Kind == StmtKind::Attr && S->Key == "mark" &&
         S->StrValue == Tag;
}

bool hasUnitMark(const Stmt &S) {
  if (!S)
    return false;
  if (isMark(S, "local_UB") || isMark(S, "cube_unit"))
    return true;
  for (const Stmt &C : S->Children)
    if (hasUnitMark(C))
      return true;
  return false;
}

bool containsForStmt(const Stmt &S) {
  if (!S)
    return false;
  if (S->Kind == StmtKind::For)
    return true;
  for (const Stmt &C : S->Children)
    if (containsForStmt(C))
      return true;
  return false;
}

int64_t pointsIn(const Stmt &S) {
  if (!S)
    return 0;
  switch (S->Kind) {
  case StmtKind::For:
    return std::max<int64_t>(1, evalFirstTile(S->Extent)) *
           pointsIn(S->Children.empty() ? nullptr : S->Children[0]);
  case StmtKind::Block:
  case StmtKind::IfThenElse: {
    int64_t N = 0;
    for (const Stmt &C : S->Children)
      N += pointsIn(C);
    return N;
  }
  case StmtKind::Attr:
  case StmtKind::Allocate:
    return pointsIn(S->Children.empty() ? nullptr : S->Children[0]);
  case StmtKind::Provide:
  case StmtKind::Evaluate:
    return 1;
  }
  return 0;
}

/// Every leaf loop of the unit maps to a vector intrinsic (and there is at
/// least one loop to vectorize).
bool leavesVectorizable(const Stmt &S, bool &Any) {
  if (!S)
    return true;
  switch (S->Kind) {
  case StmtKind::For: {
    const Stmt &Body = S->Children.empty() ? nullptr : S->Children[0];
    if (containsForStmt(Body))
      return leavesVectorizable(Body, Any);
    if (!isVectorizableLoop(S))
      return false;
    Any = true;
    return true;
  }
  case StmtKind::Block:
  case StmtKind::IfThenElse:
    for (const Stmt &C : S->Children)
      if (!leavesVectorizable(C, Any))
        return false;
    return true;
  case StmtKind::Attr:
  case StmtKind::Allocate:
    return leavesVectorizable(S->Children.empty() ? nullptr : S->Children[0],
                              Any);
  default:
    return true;
  }
}

Tensor makeLocal(std::string Name, std::vector<int64_t> Shape, DType T) {
  auto D = std::make_shared<TensorDecl>();
  D->Name = std::move(Name);
  D->Shape = std::move(Shape);
  D->Type = T;
  return D;
}

//===----------------------------------------------------------------------===//
// Target descriptions
//===----------------------------------------------------------------------===//

/// What the lowering driver needs to know about a target, fixed per
/// target kind. Everything else (escape analysis, box sizing, the top-level
/// and region walks, store-back, unit emission) is shared; beyond these
/// fields the only target code is the Cube emitter (CCE) and the launch
/// shape (SIMT).
struct TargetLowering {
  sim::TargetKind Kind;
  /// Memory the boxes of an on_chip region are staged in, and the infix
  /// of their buffer names.
  sim::Buffer Staging;
  const char *BoxInfix;
  /// How many of the outermost tile loops outside any region bind to a
  /// grid dimension (blockIdx.x/y/z), one tile per thread block.
  unsigned GridDims;
  /// cube_unit marks run the img2col / fractal-load / MMAD emitter.
  /// Without a cube unit (SIMT) matmul and conv units lower like any
  /// other compute unit.
  bool CubeUnits;
};

const TargetLowering CceLowering = {sim::TargetKind::Cce, sim::Buffer::UB,
                                    "_ub_r", /*GridDims=*/0,
                                    /*CubeUnits=*/true};
const TargetLowering SimtLowering = {sim::TargetKind::Simt,
                                     sim::Buffer::Shared, "_sm_r",
                                     /*GridDims=*/3, /*CubeUnits=*/false};

const char *const GridDimNames[] = {"blockIdx.x", "blockIdx.y", "blockIdx.z"};

//===----------------------------------------------------------------------===//
// The lowering driver
//===----------------------------------------------------------------------===//

class Lowering {
public:
  Lowering(const TargetLowering &T, const Module &M, const PolyProgram &P,
           const CodegenOptions &O)
      : Tgt(T), Mod(M), Prog(P), Opts(O),
        StagingBytes(sim::TargetSpec{T.Kind, O.Machine, O.Simt}.bufferBytes(
            T.Staging)) {}

  Kernel run(const Stmt &Ast, const std::string &Name) {
    K.Name = Name;
    K.Target = Tgt.Kind;
    K.GmTensors = Mod.allTensors();
    for (const Tensor &T : Mod.outputs())
      OutputNames.insert(T->Name);
    int ScanRegion = 0;
    scanUses(Ast, /*Region=*/0, ScanRegion);
    lowerTop(Ast, K.Body, /*GridDepth=*/0, /*Blocks=*/1);
    if (Tgt.Kind == sim::TargetKind::Simt) {
      // Launch shape: warp-rounded block size covering the widest
      // thread-mapped unit, capped by the per-block thread limit.
      int64_t Threads = roundUpTo(std::max<int64_t>(MaxUnitElems, 1),
                                  Opts.Simt.WarpSize);
      Threads = std::min(Threads, Opts.Simt.MaxThreadsPerBlock);
      K.BlockThreads = std::max(Threads, Opts.Simt.WarpSize);
      K.GridBlocks = std::max<int64_t>(GridEst, 1);
    }
    return K;
  }

private:
  const TargetLowering &Tgt;
  const Module &Mod;
  const PolyProgram &Prog;
  CodegenOptions Opts;
  int64_t StagingBytes;
  Kernel K;

  std::set<std::string> OutputNames;
  std::set<std::string> UsedBufNames;
  std::set<std::string> DbBoxes; // double-buffered on-chip buffers
  int RegionCounter = 0;
  int UnitCounter = 0;
  int64_t MaxUnitElems = 0; // widest vector (thread-mapped) unit
  int64_t GridEst = 1;      // grid-mapped tiles on the widest path

  // -- escape analysis ----------------------------------------------------

  struct UseInfo {
    std::set<int> ReadRegions;
    bool ReadOutside = false;
  };
  std::map<std::string, UseInfo> Uses;

  void noteRead(const std::string &Name, int Region) {
    UseInfo &U = Uses[Name];
    if (Region == 0)
      U.ReadOutside = true;
    else
      U.ReadRegions.insert(Region);
  }

  void scanExpr(const Expr &E, int Region) {
    if (!E)
      return;
    if (E->Kind == ExprKind::TensorRead && E->Ref)
      noteRead(E->Ref->Name, Region);
    for (const Expr &O : E->Operands)
      scanExpr(O, Region);
  }

  // Mirrors lowerTop's traversal so region numbering matches exactly.
  void scanUses(const Stmt &S, int Region, int &Counter) {
    if (!S)
      return;
    switch (S->Kind) {
    case StmtKind::Attr:
      if (isMark(S, "skipped"))
        return;
      if (isMark(S, "on_chip")) {
        ++Counter;
        scanUses(S->Children.empty() ? nullptr : S->Children[0], Counter,
                 Counter);
        return;
      }
      break;
    case StmtKind::For:
      scanExpr(S->Min, Region);
      scanExpr(S->Extent, Region);
      break;
    case StmtKind::IfThenElse:
      scanExpr(S->Cond, Region);
      break;
    case StmtKind::Provide:
      scanExpr(S->Value, Region);
      for (const Expr &I : S->Indices)
        scanExpr(I, Region);
      break;
    case StmtKind::Evaluate:
      scanExpr(S->Value, Region);
      break;
    default:
      break;
    }
    for (const Stmt &C : S->Children)
      scanUses(C, Region, Counter);
  }

  bool escapes(const std::string &Name, int Region) const {
    if (OutputNames.count(Name))
      return true;
    auto It = Uses.find(Name);
    if (It == Uses.end())
      return false;
    if (It->second.ReadOutside)
      return true;
    for (int R : It->second.ReadRegions)
      if (R != Region)
        return true;
    return false;
  }

  // -- region state -------------------------------------------------------

  struct Box {
    std::string BufName;
    Tensor Global;
    std::vector<int64_t> Shape;
    bool Loaded = false;
    bool LoadedFromGm = false;
    std::vector<Instr *> SizedInstrs; // loads/stores sized at finalize
  };

  struct RegionCtx {
    int Id = 0;
    LoopMap Loops;
    std::map<std::string, Box> Boxes;
    std::vector<std::string> BoxOrder;
    std::set<std::string> WrittenHere;
    std::vector<std::string> WriteOrder;
  };

  std::string uniqueBufName(const std::string &Base) {
    std::string N = Base;
    unsigned I = 0;
    while (!UsedBufNames.insert(N).second)
      N = Base + "_" + std::to_string(++I);
    return N;
  }

  Box &ensureBoxShaped(RegionCtx &RS, const Tensor &T,
                       const std::vector<int64_t> &Widths) {
    auto It = RS.Boxes.find(T->Name);
    if (It == RS.Boxes.end()) {
      Box B;
      B.BufName =
          uniqueBufName(T->Name + Tgt.BoxInfix + std::to_string(RS.Id));
      B.Global = T;
      B.Shape.assign(T->Shape.size(), 1);
      It = RS.Boxes.emplace(T->Name, std::move(B)).first;
      RS.BoxOrder.push_back(T->Name);
    }
    Box &B = It->second;
    for (size_t D = 0; D < B.Shape.size() && D < Widths.size(); ++D)
      B.Shape[D] = std::min(T->Shape[D],
                            std::max(B.Shape[D], Widths[D]));
    return B;
  }

  Box &ensureBox(RegionCtx &RS, const Tensor &T,
                 const std::vector<Expr> &Idx) {
    std::vector<int64_t> W;
    for (size_t D = 0; D < T->Shape.size(); ++D)
      W.push_back(D < Idx.size()
                      ? boxWidth(Idx[D], RS.Loops, T->Shape[D])
                      : T->Shape[D]);
    return ensureBoxShaped(RS, T, W);
  }

  void markWritten(RegionCtx &RS, const Tensor &T) {
    if (RS.WrittenHere.insert(T->Name).second)
      RS.WriteOrder.push_back(T->Name);
    RS.Boxes[T->Name].Loaded = true; // produced on chip, never load
  }

  // -- top level ----------------------------------------------------------

  void scanMte2Dmas(const std::vector<InstrPtr> &L, bool &Any, bool &All) {
    for (const InstrPtr &I : L) {
      if (I->Kind == InstrKind::Loop) {
        scanMte2Dmas(I->Body, Any, All);
        continue;
      }
      if (I->Kind == InstrKind::Dma && I->Pipe == sim::Pipe::MTE2) {
        Any = true;
        if (I->WriteBufs.empty() || !DbBoxes.count(I->WriteBufs[0]))
          All = false;
      }
    }
  }

  /// \p GridDepth grid-mapped loops enclose \p S, covering \p Blocks
  /// first-tile iterations between them.
  void lowerTop(const Stmt &S, std::vector<InstrPtr> &Out, unsigned GridDepth,
                int64_t Blocks) {
    if (!S)
      return;
    switch (S->Kind) {
    case StmtKind::Block:
      for (const Stmt &C : S->Children)
        lowerTop(C, Out, GridDepth, Blocks);
      return;
    case StmtKind::For: {
      InstrPtr L = makeLoop(S->Var, S->Min, S->Extent);
      // Grid mapping (SIMT): one tile of this loop per thread block.
      if (GridDepth < Tgt.GridDims) {
        L->MapDim = GridDimNames[GridDepth++];
        Blocks *= std::max<int64_t>(1, evalFirstTile(S->Extent));
        GridEst = std::max(GridEst, Blocks);
      }
      lowerTop(S->Children.empty() ? nullptr : S->Children[0], L->Body,
               GridDepth, Blocks);
      if (L->Body.empty())
        return;
      if (Opts.EnableDoubleBuffer) {
        bool Any = false, All = true;
        scanMte2Dmas(L->Body, Any, All);
        L->DoubleBuffered = Any && All;
      }
      Out.push_back(std::move(L));
      return;
    }
    case StmtKind::Attr:
      if (isMark(S, "skipped"))
        return;
      if (isMark(S, "on_chip")) {
        ++RegionCounter;
        lowerRegion(S->Children.empty() ? nullptr : S->Children[0], Out);
        return;
      }
      lowerTop(S->Children.empty() ? nullptr : S->Children[0], Out,
               GridDepth, Blocks);
      return;
    case StmtKind::Allocate:
      lowerTop(S->Children.empty() ? nullptr : S->Children[0], Out,
               GridDepth, Blocks);
      return;
    default: {
      // A statement outside any on_chip region: run it on the scalar unit
      // (one thread) against global memory (robust catch-all; no on-chip
      // allocation).
      std::vector<const ExprNode *> Reads;
      std::vector<const StmtNode *> Writes;
      collectUnitAccesses(S, Reads, Writes);
      InstrPtr I = makeCompute(InstrKind::ScalarOp, sim::Pipe::S, S,
                               pointsIn(S), "gm_scalar");
      for (const ExprNode *R : Reads)
        if (R->Ref && std::find(I->ReadBufs.begin(), I->ReadBufs.end(),
                                R->Ref->Name) == I->ReadBufs.end())
          I->ReadBufs.push_back(R->Ref->Name);
      for (const StmtNode *W : Writes)
        if (W->Target && std::find(I->WriteBufs.begin(), I->WriteBufs.end(),
                                   W->Target->Name) == I->WriteBufs.end())
          I->WriteBufs.push_back(W->Target->Name);
      Out.push_back(std::move(I));
      return;
    }
    }
  }

  // -- regions ------------------------------------------------------------

  void lowerRegion(const Stmt &Body, std::vector<InstrPtr> &Out) {
    RegionCtx RS;
    RS.Id = RegionCounter;
    collectLoops(Body, RS.Loops);
    emitRegionBody(Body, RS, Out);

    // Store escaping results back to GM.
    for (const std::string &Name : RS.WriteOrder) {
      if (!escapes(Name, RS.Id))
        continue;
      Box &B = RS.Boxes[Name];
      InstrPtr D = makeDma(sim::Pipe::MTE3, nullptr, 0, 1, "store." + Name);
      D->ReadBufs = {B.BufName};
      D->WriteBufs = {Name};
      B.SizedInstrs.push_back(D.get());
      Out.push_back(std::move(D));
    }

    // Finalize staged boxes: allocations, double-buffer flags, DMA sizes.
    for (const std::string &Name : RS.BoxOrder) {
      Box &B = RS.Boxes[Name];
      Tensor Decl = makeLocal(B.BufName, B.Shape, B.Global->Type);
      bool Db = Opts.EnableDoubleBuffer && B.LoadedFromGm &&
                Decl->sizeBytes() <= StagingBytes / 8;
      K.Buffers.push_back({B.BufName, Tgt.Staging, Decl, Db});
      if (Db)
        DbBoxes.insert(B.BufName);
      int64_t Bytes = Decl->sizeBytes();
      int64_t Bursts = burstsFor(B.Shape, B.Global->Shape);
      for (Instr *I : B.SizedInstrs) {
        I->Bytes = Bytes;
        I->Bursts = Bursts;
      }
    }
  }

  void emitRegionBody(const Stmt &S, RegionCtx &RS,
                      std::vector<InstrPtr> &Out) {
    if (!S)
      return;
    switch (S->Kind) {
    case StmtKind::Block:
      for (const Stmt &C : S->Children)
        emitRegionBody(C, RS, Out);
      return;
    case StmtKind::Attr: {
      if (isMark(S, "skipped"))
        return;
      const Stmt &Child = S->Children.empty() ? nullptr : S->Children[0];
      if (isMark(S, "local_UB")) {
        ++UnitCounter;
        emitVectorUnit(Child, RS, Out);
        return;
      }
      if (isMark(S, "cube_unit")) {
        ++UnitCounter;
        if (!Tgt.CubeUnits || !emitCubeUnit(Child, RS, Out))
          emitVectorUnit(Child, RS, Out);
        return;
      }
      emitRegionBody(Child, RS, Out);
      return;
    }
    case StmtKind::Allocate:
      emitRegionBody(S->Children.empty() ? nullptr : S->Children[0], RS,
                     Out);
      return;
    case StmtKind::For:
      if (hasUnitMark(S)) {
        InstrPtr L = makeLoop(S->Var, S->Min, S->Extent);
        emitRegionBody(S->Children.empty() ? nullptr : S->Children[0], RS,
                       L->Body);
        if (!L->Body.empty())
          Out.push_back(std::move(L));
        return;
      }
      ++UnitCounter;
      emitVectorUnit(S, RS, Out);
      return;
    default:
      ++UnitCounter;
      emitVectorUnit(S, RS, Out);
      return;
    }
  }

  // -- vector / scalar units ----------------------------------------------

  /// A unit whose every leaf loop vectorizes runs on the V pipe (CCE) or
  /// thread-parallel across the block (SIMT); any other unit runs on the
  /// scalar unit (one thread).
  void emitVectorUnit(const Stmt &U, RegionCtx &RS,
                      std::vector<InstrPtr> &Out) {
    if (!U)
      return;
    std::vector<const ExprNode *> Reads;
    std::vector<const StmtNode *> Writes;
    collectUnitAccesses(U, Reads, Writes);
    if (Reads.empty() && Writes.empty())
      return;

    std::set<std::string> WrittenByUnit;
    for (const StmtNode *W : Writes)
      if (W->Target)
        WrittenByUnit.insert(W->Target->Name);

    auto PushName = [](std::vector<std::string> &V, const std::string &N) {
      if (std::find(V.begin(), V.end(), N) == V.end())
        V.push_back(N);
    };

    std::vector<std::string> RB, WB;
    for (const ExprNode *R : Reads) {
      if (!R->Ref)
        continue;
      std::vector<Expr> Idx(R->Operands.begin(), R->Operands.end());
      Box &B = ensureBox(RS, R->Ref, Idx);
      if (!RS.WrittenHere.count(R->Ref->Name) &&
          !WrittenByUnit.count(R->Ref->Name) && !B.Loaded) {
        InstrPtr L = makeDma(sim::Pipe::MTE2, nullptr, 0, 1,
                             "load." + R->Ref->Name);
        L->ReadBufs = {R->Ref->Name};
        L->WriteBufs = {B.BufName};
        B.SizedInstrs.push_back(L.get());
        B.Loaded = true;
        B.LoadedFromGm = true;
        Out.push_back(std::move(L));
      }
      PushName(RB, B.BufName);
    }

    bool AnyF32 = false;
    for (const StmtNode *W : Writes) {
      if (!W->Target)
        continue;
      Box &B = ensureBox(RS, W->Target, W->Indices);
      markWritten(RS, W->Target);
      PushName(WB, B.BufName);
      AnyF32 |= W->Target->Type == DType::F32;
    }

    bool Any = false;
    bool Vec = Opts.EnableVectorize && leavesVectorizable(U, Any) && Any;
    int64_t Elems = pointsIn(U);
    if (Vec)
      MaxUnitElems = std::max(MaxUnitElems, Elems);
    InstrPtr C = makeCompute(Vec ? InstrKind::VectorOp : InstrKind::ScalarOp,
                             Vec ? sim::Pipe::V : sim::Pipe::S, U, Elems,
                             "unit" + std::to_string(UnitCounter));
    C->Fp32 = AnyF32;
    C->ReadBufs = std::move(RB);
    C->WriteBufs = std::move(WB);
    Out.push_back(std::move(C));
  }

  // -- cube units ---------------------------------------------------------

  struct TileDim {
    Expr Base;
    int64_t Ext = 1;
  };

  bool emitCubeUnit(const Stmt &U, RegionCtx &RS,
                    std::vector<InstrPtr> &Out) {
    if (!U)
      return false;
    std::vector<const StmtNode *> Provs;
    collectProvides(U, Provs);
    const StmtNode *Upd = nullptr;
    double InitVal = 0.0;
    for (const StmtNode *Pr : Provs) {
      std::vector<const ExprNode *> Reads;
      collectReadNodes(Pr->Value, Reads);
      bool SelfRead = false;
      for (const ExprNode *R : Reads)
        if (R->Ref == Pr->Target)
          SelfRead = true;
      if (SelfRead) {
        if (Upd)
          return false; // two updates in one unit: not a single cube op
        Upd = Pr;
      } else {
        // Only the reduction's initialization may ride along.
        if (!Pr->Value || Pr->Value->Kind != ExprKind::FloatImm)
          return false;
        if (Upd && Pr->Target != Upd->Target)
          return false;
        InitVal = Pr->Value->FloatVal;
      }
    }
    if (!Upd)
      return false;
    for (const StmtNode *Pr : Provs)
      if (Pr != Upd && Pr->Target != Upd->Target)
        return false;

    const PolyStmt *St = nullptr;
    for (const PolyStmt &PS : Prog.Stmts)
      if (PS.StmtRole == PolyStmt::Role::Update &&
          PS.Write.Ref == Upd->Target) {
        St = &PS;
        break;
      }
    if (!St)
      return false;
    auto DOpt = transforms::matchCubeOp(*St);
    if (!DOpt)
      return false;
    const transforms::CubeOpDesc &D = *DOpt;
    if (D.M <= 0 || D.N <= 0 || D.K <= 0)
      return false;

    LoopMap UL;
    collectLoops(U, UL);

    // Decompose each output index into tile base + extent.
    std::vector<TileDim> Dims;
    std::set<std::string> WriteVars;
    for (const Expr &Idx : Upd->Indices) {
      auto C = affineCoeffs(Idx, UL);
      if (!C)
        return false;
      std::string Var;
      int NonZero = 0;
      for (const auto &[V, X] : *C)
        if (X != 0) {
          ++NonZero;
          Var = V;
          if (X != 1)
            return false;
        }
      TileDim TD;
      if (NonZero == 0) {
        TD.Base = Idx;
        TD.Ext = 1;
      } else if (NonZero == 1) {
        TD.Base = substitute(Idx, {{Var, UL[Var].MinE}});
        TD.Ext = UL[Var].Ext;
        WriteVars.insert(Var);
      } else {
        return false;
      }
      Dims.push_back(TD);
    }

    // The reduction must be complete inside the unit (the compiler pins
    // reduction dimensions full for cube statements; if a configuration
    // tiled them anyway, degrade to the always-correct vector path).
    int64_t RedProd = 1;
    for (const auto &[V, LI] : UL)
      if (!WriteVars.count(V) && containsVarNamed(Upd->Value, V))
        RedProd *= LI.Ext;
    if (RedProd < D.K)
      return false;

    // Geometry.
    size_t Rank = Dims.size();
    Expr BatchVar = intImm(0), MBase, NBase = intImm(0);
    int64_t MT = 0, NT = 1, HoT = 0;
    if (D.IsConv) {
      if (Rank < 2 || Rank > 4)
        return false;
      const TileDim &Wo = Dims[Rank - 1];
      if (Wo.Ext != D.OutW || evalFirstTile(Wo.Base) != 0)
        return false;
      const TileDim &Ho = Dims[Rank - 2];
      HoT = Ho.Ext;
      MBase = mul(Ho.Base, intImm(D.OutW));
      MT = HoT * D.OutW;
      if (Rank >= 3) {
        NBase = Dims[Rank - 3].Base;
        NT = Dims[Rank - 3].Ext;
      }
      if (Rank == 4) {
        if (Dims[0].Ext != 1)
          return false;
        BatchVar = Dims[0].Base;
      }
    } else {
      if (Rank < 2 || Rank > 3)
        return false;
      if (Rank == 3) {
        if (Dims[0].Ext != 1)
          return false;
        BatchVar = Dims[0].Base;
      }
      MBase = Dims[Rank - 2].Base;
      MT = Dims[Rank - 2].Ext;
      NBase = Dims[Rank - 1].Base;
      NT = Dims[Rank - 1].Ext;
    }
    if (MT <= 0 || NT <= 0)
      return false;

    const sim::MachineSpec &MS = Opts.Machine;
    int64_t EA = dtypeBytes(D.A->Type), EB = dtypeBytes(D.B->Type);
    int64_t K16 = roundUpTo(D.K, 16);
    int64_t KByA = MS.L0ABytes / std::max<int64_t>(MT * EA, 1) / 16 * 16;
    int64_t KByB = MS.L0BBytes / std::max<int64_t>(NT * EB, 1) / 16 * 16;
    int64_t KC = std::min({K16, KByA, KByB});
    if (KC < 16)
      KC = 16; // may overflow L0; the capacity check triggers retiling
    int64_t Chunks = ceilDiv(K16, KC);

    std::string Pfx =
        "r" + std::to_string(RS.Id) + "_u" + std::to_string(UnitCounter);
    Tensor AL1 = makeLocal(uniqueBufName(D.A->Name + "_l1_" + Pfx),
                           {MT, KC}, D.A->Type);
    Tensor BL1 = makeLocal(uniqueBufName(D.B->Name + "_l1_" + Pfx),
                           {KC, NT}, D.B->Type);
    Tensor L0A = makeLocal(uniqueBufName("l0a_" + Pfx), {MT, KC}, D.A->Type);
    Tensor L0B = makeLocal(uniqueBufName("l0b_" + Pfx), {KC, NT}, D.B->Type);
    Tensor L0C =
        makeLocal(uniqueBufName("l0c_" + Pfx), {MT, NT}, DType::F32);

    bool CanDb = Opts.EnableDoubleBuffer && Chunks > 1 &&
                 (AL1->sizeBytes() + BL1->sizeBytes()) * 2 <= MS.L1Bytes &&
                 L0A->sizeBytes() * 2 <= MS.L0ABytes &&
                 L0B->sizeBytes() * 2 <= MS.L0BBytes;
    K.Buffers.push_back({AL1->Name, sim::Buffer::L1, AL1, CanDb});
    K.Buffers.push_back({BL1->Name, sim::Buffer::L1, BL1, CanDb});
    K.Buffers.push_back({L0A->Name, sim::Buffer::L0A, L0A, CanDb});
    K.Buffers.push_back({L0B->Name, sim::Buffer::L0B, L0B, CanDb});
    K.Buffers.push_back({L0C->Name, sim::Buffer::L0C, L0C, false});
    if (CanDb) {
      DbBoxes.insert(AL1->Name);
      DbBoxes.insert(BL1->Name);
    }

    // Zero (or reduction-init) the accumulator.
    {
      std::string ZM = "z_mi_" + Pfx, ZN = "z_ni_" + Pfx;
      Stmt P = makeProvide(L0C, {var(ZM), var(ZN)}, floatImm(InitVal));
      Stmt Sem = makeFor(ZM, intImm(0), intImm(MT),
                         makeFor(ZN, intImm(0), intImm(NT), P));
      InstrPtr Z = makeCompute(InstrKind::VectorOp, sim::Pipe::V, Sem,
                               MT * NT, "init.l0c");
      Z->Fp32 = true;
      Z->WriteBufs = {L0C->Name};
      Out.push_back(std::move(Z));
    }

    // Stream the reduction through L1 in K chunks.
    std::string KV = "kc_" + Pfx;
    InstrPtr Chunk = makeLoop(KV, intImm(0), intImm(Chunks));
    Chunk->DoubleBuffered = CanDb;
    Expr KBase = mul(intImm(KC), var(KV));

    auto EmitOperand = [&](const Tensor &Src, const Tensor &L1Box,
                           int64_t Bytes, int64_t Bursts) {
      bool FromUb = RS.WrittenHere.count(Src->Name) != 0;
      InstrPtr DmaI =
          makeDma(FromUb ? sim::Pipe::MTE1 : sim::Pipe::MTE2, nullptr,
                  Bytes, Bursts, "load." + Src->Name + ".l1");
      DmaI->ReadBufs = {FromUb ? RS.Boxes[Src->Name].BufName : Src->Name};
      DmaI->WriteBufs = {L1Box->Name};
      Chunk->Body.push_back(std::move(DmaI));
    };

    int64_t ABursts = (D.IsConv || KC < D.K) ? MT : 1;
    EmitOperand(D.A, AL1, MT * KC * EA, ABursts);
    if (D.IsConv) {
      auto I2C = std::make_shared<Instr>();
      I2C->Kind = InstrKind::Img2Col;
      I2C->Pipe = sim::Pipe::MTE1;
      I2C->Sem = transforms::buildImg2ColSem(D, D.A, L0A, BatchVar, MBase,
                                             MT, intImm(0), MT, KBase, KC);
      I2C->Bytes = MT * KC * EA;
      I2C->Bursts = ceilDiv(MT, 16) * ceilDiv(KC, 16);
      I2C->Label = "img2col";
      I2C->ReadBufs = {AL1->Name};
      I2C->WriteBufs = {L0A->Name};
      Chunk->Body.push_back(std::move(I2C));
    } else {
      auto LA = std::make_shared<Instr>();
      LA->Kind = InstrKind::LoadFractal;
      LA->Pipe = sim::Pipe::MTE1;
      LA->Sem = buildMatmulALoadSem(D, L0A, BatchVar, MBase, MT, KBase, KC,
                                    Pfx);
      LA->Bytes = MT * KC * EA;
      LA->Bursts = ceilDiv(MT, 16) * ceilDiv(KC, 16);
      LA->Label = "load2d.a";
      LA->ReadBufs = {AL1->Name};
      LA->WriteBufs = {L0A->Name};
      Chunk->Body.push_back(std::move(LA));
    }

    int64_t BBursts = D.IsConv ? NT : (NT < D.N ? KC : 1);
    EmitOperand(D.B, BL1, KC * NT * EB, BBursts);
    {
      auto LB = std::make_shared<Instr>();
      LB->Kind = InstrKind::LoadFractal;
      LB->Pipe = sim::Pipe::MTE1;
      LB->Sem = transforms::buildWeightLoadSem(D, D.B, L0B, BatchVar, KBase,
                                               KC, NBase, NT, intImm(0), NT);
      LB->Bytes = KC * NT * EB;
      LB->Bursts = ceilDiv(KC, 16) * ceilDiv(NT, 16);
      LB->Label = "load2d.b";
      LB->ReadBufs = {BL1->Name};
      LB->WriteBufs = {L0B->Name};
      Chunk->Body.push_back(std::move(LB));
    }

    {
      std::string MI = "mm_mi_" + Pfx, NI = "mm_ni_" + Pfx,
                  KI = "mm_ki_" + Pfx;
      Expr Acc = add(tensorRead(L0C, {var(MI), var(NI)}),
                     mul(tensorRead(L0A, {var(MI), var(KI)}),
                         tensorRead(L0B, {var(KI), var(NI)})));
      Stmt P = makeProvide(L0C, {var(MI), var(NI)}, Acc);
      Stmt Sem =
          makeFor(MI, intImm(0), intImm(MT),
                  makeFor(NI, intImm(0), intImm(NT),
                          makeFor(KI, intImm(0), intImm(KC), P)));
      auto MM = std::make_shared<Instr>();
      MM->Kind = InstrKind::Mmad;
      MM->Pipe = sim::Pipe::M;
      MM->Sem = Sem;
      MM->FractalOps = ceilDiv(MT, 16) * ceilDiv(NT, 16) * ceilDiv(KC, 16);
      MM->Label = "mmad";
      MM->ReadBufs = {L0A->Name, L0B->Name, L0C->Name};
      MM->WriteBufs = {L0C->Name};
      Chunk->Body.push_back(std::move(MM));
    }
    Out.push_back(std::move(Chunk));

    // Copy the accumulator to the output's UB box in original coordinates
    // (the region-end DMA then stores it to GM when it escapes).
    std::vector<int64_t> CW;
    if (D.IsConv) {
      if (Rank == 4)
        CW = {1, NT, HoT, D.OutW};
      else if (Rank == 3)
        CW = {NT, HoT, D.OutW};
      else
        CW = {HoT, D.OutW};
    } else {
      if (Rank == 3)
        CW = {1, MT, NT};
      else
        CW = {MT, NT};
    }
    Box &CB = ensureBoxShaped(RS, D.C, CW);
    {
      std::string SM = "st_mi_" + Pfx, SN = "st_ni_" + Pfx;
      Expr Mm = add(MBase, var(SM));
      Expr Nn = add(NBase, var(SN));
      Expr Guard = binary(ExprKind::And,
                          cmp(ExprKind::CmpLT, Mm, intImm(D.M)),
                          cmp(ExprKind::CmpLT, Nn, intImm(D.N)));
      std::vector<Expr> CIdx;
      if (D.IsConv) {
        Expr Ho = floorDiv(Mm, intImm(D.OutW));
        Expr Wo = mod(Mm, intImm(D.OutW));
        if (Rank == 4)
          CIdx = {BatchVar, Nn, Ho, Wo};
        else if (Rank == 3)
          CIdx = {Nn, Ho, Wo};
        else
          CIdx = {Ho, Wo};
      } else {
        if (Rank == 3)
          CIdx = {BatchVar, Mm, Nn};
        else
          CIdx = {Mm, Nn};
      }
      Expr Val = cast(D.C->Type, tensorRead(L0C, {var(SM), var(SN)}));
      Stmt P = makeIf(Guard, makeProvide(D.C, CIdx, Val));
      Stmt Sem = makeFor(SM, intImm(0), intImm(MT),
                         makeFor(SN, intImm(0), intImm(NT), P));
      InstrPtr CP = makeCompute(InstrKind::VectorOp, sim::Pipe::V, Sem,
                                MT * NT, "l0c.to.ub");
      CP->Fp32 = true;
      CP->ReadBufs = {L0C->Name};
      CP->WriteBufs = {CB.BufName};
      Out.push_back(std::move(CP));
    }
    markWritten(RS, D.C);
    return true;
  }

  /// L0A[mi, ki] = A[MBase+mi, KBase+ki] (transposed/batched as declared),
  /// zero outside the matrix — the fractal zero-padding of Fig 7.
  Stmt buildMatmulALoadSem(const transforms::CubeOpDesc &D, const Tensor &L0A,
                           Expr BatchVar, Expr MBase, int64_t MT, Expr KBase,
                           int64_t KC, const std::string &Pfx) {
    std::string MI = "la_mi_" + Pfx, KI = "la_ki_" + Pfx;
    Expr Mm = add(MBase, var(MI));
    Expr Kk = add(KBase, var(KI));
    Expr InRange = binary(ExprKind::And,
                          cmp(ExprKind::CmpLT, Mm, intImm(D.M)),
                          cmp(ExprKind::CmpLT, Kk, intImm(D.K)));
    std::vector<Expr> AIdx;
    if (D.A->Shape.size() == 3)
      AIdx.push_back(BatchVar);
    if (D.TransA) {
      AIdx.push_back(Kk);
      AIdx.push_back(Mm);
    } else {
      AIdx.push_back(Mm);
      AIdx.push_back(Kk);
    }
    Expr Val = select(InRange, tensorRead(D.A, AIdx), floatImm(0.0));
    Stmt P = makeProvide(L0A, {var(MI), var(KI)}, Val);
    return makeFor(MI, intImm(0), intImm(MT),
                   makeFor(KI, intImm(0), intImm(KC), P));
  }
};

} // namespace

Kernel lowerAst(sim::TargetKind Target, const Stmt &Ast, const Module &M,
                const PolyProgram &P, const CodegenOptions &Opts,
                const std::string &Name) {
  Lowering L(Target == sim::TargetKind::Simt ? SimtLowering : CceLowering, M,
             P, Opts);
  Kernel K = L.run(Ast, Name);
  // Unconditional counters for the compile trace's per-pass deltas.
  std::string Prefix = sim::targetName(Target);
  Stats::get().add(Prefix + ".lowered_kernels");
  if (!K.Buffers.empty())
    Stats::get().add(Prefix + ".buffers",
                     static_cast<int64_t>(K.Buffers.size()));
  return K;
}

Kernel lowerScalarFallback(const Module &M, const std::string &Name) {
  Kernel K;
  K.Name = Name;
  K.GmTensors = M.allTensors();
  Stmt Loops = lowerToLoops(M);
  InstrPtr I = makeCompute(InstrKind::ScalarOp, sim::Pipe::S, Loops,
                           pointsIn(Loops), "scalar_fallback");
  for (const Tensor &T : M.inputs())
    I->ReadBufs.push_back(T->Name);
  for (const Tensor &T : M.outputs())
    I->WriteBufs.push_back(T->Name);
  K.Body.push_back(std::move(I));
  return K;
}

} // namespace cce
} // namespace akg
