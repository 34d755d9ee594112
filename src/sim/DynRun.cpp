//===- sim/DynRun.cpp - Late-bound execution of bucketed kernels ----------===//

#include "sim/DynRun.h"

#include "sim/SimtRun.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace akg {
namespace sim {

namespace {

/// Copies the box min(SrcShape, DstShape) from \p Src (laid out per
/// SrcShape) into a DstShape-sized buffer; elements outside the box are
/// zero. Handles both padding (Dst >= Src) and slicing (Dst <= Src).
std::vector<float> copyBox(const std::vector<float> &Src,
                           const std::vector<int64_t> &SrcShape,
                           const std::vector<int64_t> &DstShape) {
  assert(SrcShape.size() == DstShape.size() && "rank mismatch");
  int64_t DstN = 1;
  for (int64_t S : DstShape)
    DstN *= S;
  std::vector<float> Dst(static_cast<size_t>(DstN), 0.0f);
  unsigned Rank = static_cast<unsigned>(SrcShape.size());
  if (Rank == 0) {
    if (!Src.empty() && !Dst.empty())
      Dst[0] = Src[0];
    return Dst;
  }
  std::vector<int64_t> Box(Rank), SrcStride(Rank), DstStride(Rank);
  for (unsigned D = 0; D < Rank; ++D)
    Box[D] = std::min(SrcShape[D], DstShape[D]);
  SrcStride[Rank - 1] = DstStride[Rank - 1] = 1;
  for (unsigned D = Rank - 1; D > 0; --D) {
    SrcStride[D - 1] = SrcStride[D] * SrcShape[D];
    DstStride[D - 1] = DstStride[D] * DstShape[D];
  }
  std::vector<int64_t> Co(Rank, 0);
  for (;;) {
    int64_t SI = 0, DI = 0;
    for (unsigned D = 0; D + 1 < Rank; ++D) {
      SI += Co[D] * SrcStride[D];
      DI += Co[D] * DstStride[D];
    }
    // Innermost dim is contiguous in both layouts.
    int64_t Run = Box[Rank - 1];
    for (int64_t I = 0; I < Run; ++I)
      Dst[static_cast<size_t>(DI + I)] = Src[static_cast<size_t>(SI + I)];
    // Advance the outer coordinates odometer-style.
    int D = static_cast<int>(Rank) - 2;
    while (D >= 0 && ++Co[D] == Box[D])
      Co[D--] = 0;
    if (D < 0)
      break;
  }
  return Dst;
}

/// The representative-padded shape of \p T under \p B (request shape with
/// every marked dim replaced by its bucket representative).
std::vector<int64_t> repShape(const ir::Tensor &T, const ShapeBinding &B) {
  std::vector<int64_t> Shape = T->Shape;
  auto It = B.TensorSyms.find(T->Name);
  if (It == B.TensorSyms.end())
    return Shape;
  for (const auto &[Dim, Sym] : It->second) {
    auto RIt = B.Representative.find(Sym);
    assert(RIt != B.Representative.end() && "unbound shape symbol");
    if (Dim < Shape.size())
      Shape[Dim] = RIt->second;
  }
  return Shape;
}

/// Runs \p K on the simulator of the target it was lowered for. SIMT
/// kernels run on SimtSpec::sm80(), as verifyKernel does, and report the
/// fields the two result types share.
SimResult simulateOn(const cce::Kernel &K, const MachineSpec &Spec,
                     ir::BufferMap *Gm, const SimOptions &Opts) {
  if (K.Target != TargetKind::Simt)
    return simulate(K, Spec, Gm, Opts);
  SimtResult T = simulateSimt(K, SimtSpec::sm80(), Gm, Opts);
  SimResult S;
  S.Cycles = T.Cycles;
  S.Truncated = T.Truncated;
  S.DynamicInstrs = T.DynamicInstrs;
  S.GmTrafficBytes = T.GmTrafficBytes;
  return S;
}

} // namespace

SimResult runBound(const CompileResult &R, const ir::Module &RequestM,
                   const MachineSpec &Spec, ir::BufferMap *Gm,
                   const SimOptions &Opts) {
  if (!R.DynShape || !Gm)
    return simulateOn(R.Kernel, Spec, Gm, Opts);
  const ShapeBinding &B = *R.DynShape;
  // Pad every dynamic input up to the representative extents; static
  // buffers pass through by reference into the padded map.
  ir::BufferMap Padded = *Gm;
  for (const ir::Tensor &In : RequestM.inputs()) {
    auto It = Padded.find(In->Name);
    if (It == Padded.end() || !B.TensorSyms.count(In->Name))
      continue;
    It->second = copyBox(It->second, In->Shape, repShape(In, B));
  }
  SimResult S = simulateOn(R.Kernel, Spec, &Padded, Opts);
  // Slice every materialized dynamic tensor back to the request extents;
  // everything else (including static outputs) merges through unchanged.
  for (const ir::Tensor &T : RequestM.allTensors()) {
    auto It = Padded.find(T->Name);
    if (It == Padded.end())
      continue;
    if (B.TensorSyms.count(T->Name) &&
        It->second.size() != static_cast<size_t>(T->numElements()))
      (*Gm)[T->Name] = copyBox(It->second, repShape(T, B), T->Shape);
    else
      (*Gm)[T->Name] = std::move(It->second);
  }
  return S;
}

FunctionalDiff diffBoundAgainstReference(const CompileResult &R,
                                         const ir::Module &RequestM,
                                         const MachineSpec &Spec,
                                         uint32_t Seed, SimResult *SimOut,
                                         uint64_t *BitsOut) {
  ir::BufferMap Gm = makeModuleInputs(RequestM, Seed);
  SimResult S = runBound(R, RequestM, Spec, &Gm);
  if (SimOut)
    *SimOut = S;
  if (S.Truncated) {
    FunctionalDiff D;
    D.MissingOutput = true;
    D.Missing = "(simulation truncated)";
    D.MaxAbsErr = std::numeric_limits<double>::infinity();
    if (BitsOut)
      *BitsOut = 0;
    return D;
  }
  ir::BufferMap Ref = ir::evaluateModule(RequestM, makeModuleInputs(RequestM, Seed));
  if (BitsOut)
    *BitsOut = hashOutputBits(RequestM, Gm);
  return compareOutputs(RequestM, Gm, Ref);
}

} // namespace sim
} // namespace akg
