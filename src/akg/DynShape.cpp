//===- akg/DynShape.cpp - Dynamic-shape canonicalization ------------------===//

#include "akg/DynShape.h"

#include "ir/ModuleUtils.h"
#include "ir/SymbolicShape.h"
#include "scheduler/ShapeDep.h"
#include "support/Stats.h"

#include <algorithm>
#include <sstream>

namespace akg {
namespace dynshape {

Plan plan(const ir::Module &M, const BucketScheme &Scheme) {
  Plan P;
  auto Reject = [&](std::string Why) {
    P.Usable = false;
    P.FallbackReason = std::move(Why);
    if (Stats::enabled())
      Stats::get().add("dynshape.fallback");
    return P;
  };

  // Work on a clone: the analysis writes derived marks onto op outputs
  // and the skeleton is a rebound rebuild.
  auto Work = std::make_shared<ir::Module>(ir::cloneModule(M));
  ir::DynShapeAnalysis A = ir::analyzeDynamicShapes(*Work);
  if (!A.Supported)
    return Reject(A.Reason);

  // Bucket every bound symbol; the effective range is the bucket clipped
  // to the symbol's declared range, and the representative is its top.
  const auto &Syms = Work->shapeSymbols();
  std::map<std::string, ir::SymExtentRange> Ranges;
  std::map<std::string, int64_t> Reps;
  auto Binding = std::make_shared<ShapeBinding>();
  std::ostringstream KeyOS;
  KeyOS << "dynshape|";
  for (int64_t B : Scheme.bounds())
    KeyOS << B << ",";
  for (const auto &[Sym, Ext] : A.Bound) {
    std::optional<ShapeBucket> Bk = Scheme.bucketFor(Ext);
    if (!Bk)
      return Reject("extent " + std::to_string(Ext) + " of symbol '" + Sym +
                    "' is beyond the last bucket bound");
    const ir::SymRange &Decl = Syms.at(Sym);
    int64_t Lo = std::max(Bk->Lo, Decl.Min);
    int64_t Hi = std::min(Bk->Hi, Decl.Max);
    Ranges[Sym] = ir::SymExtentRange{Lo, Hi};
    Reps[Sym] = Hi;
    std::string Id = BucketScheme::bucketId(ShapeBucket{Lo, Hi});
    Binding->Concrete[Sym] = Ext;
    Binding->Representative[Sym] = Hi;
    Binding->BucketIds[Sym] = Id;
    KeyOS << "|" << Sym << "=" << Id;
  }

  // Shape-dependence probe: the dependence structure must be invariant
  // over the bucket, else the skeleton's schedule may be illegal for
  // some extents in it.
  std::string Dep = sched::probeShapeDependence(*Work, Ranges);
  if (!Dep.empty())
    return Reject(Dep);

  // Build the skeleton at the representatives and run the bounds checker
  // as a safety net: any structural case the analysis misjudged (e.g. an
  // unmarked tensor whose extent only coincidentally matched a dynamic
  // one) surfaces here as an out-of-bounds read.
  auto Skeleton =
      std::make_shared<ir::Module>(ir::rebindShapes(*Work, Reps));
  std::string Bounds = ir::checkModuleBounds(*Skeleton);
  if (!Bounds.empty())
    return Reject("skeleton fails bounds check: " + Bounds);

  // Record which tensor dims are dynamic, by name, for pad/slice.
  for (const ir::Tensor &T : Work->allTensors()) {
    std::map<unsigned, std::string> Dims;
    for (unsigned D = 0; D < T->Shape.size(); ++D)
      if (!T->symOf(D).empty())
        Dims[D] = T->symOf(D);
    if (!Dims.empty())
      Binding->TensorSyms[T->Name] = std::move(Dims);
  }

  P.Usable = true;
  P.Skeleton = std::move(Skeleton);
  P.BucketKey = KeyOS.str();
  P.Binding = std::move(Binding);
  if (Stats::enabled())
    Stats::get().add("dynshape.admitted");
  return P;
}

} // namespace dynshape
} // namespace akg
