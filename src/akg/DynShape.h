//===- akg/DynShape.h - Dynamic-shape canonicalization ----------*- C++ -*-===//
//
// Admission + canonicalization for the shape-bucketed cache path
// (DESIGN.md 4k). A concrete request whose module carries shape-symbol
// marks is canonicalized to its bucket SKELETON: the same module rebound
// so every dynamic extent sits at its bucket representative. The skeleton
// compiles through the ordinary pipeline (which never reads the marks), is
// cached under a bucketed key (skeleton fingerprint x bucket ids x
// options), and every request in the bucket binds its concrete extents to
// the shared skeleton at lookup time. Admission is conservative: the
// structural analysis (ir/SymbolicShape.h), the parametric dependence
// probe (scheduler/ShapeDep.h) and a bounds safety net must all pass,
// otherwise the request falls back to today's per-shape compile.
// KernelCacheConfig::DynShape (AKG_DYNSHAPE=0) disables the whole path.
//
//===----------------------------------------------------------------------===//

#ifndef AKG_AKG_DYNSHAPE_H
#define AKG_AKG_DYNSHAPE_H

#include "akg/Compiler.h"
#include "akg/ShapeBuckets.h"

namespace akg {
namespace dynshape {

/// The canonicalization outcome for one concrete request.
struct Plan {
  /// True when the skeleton path is admissible for this request.
  bool Usable = false;
  /// Why the request must fall back to per-shape compilation.
  std::string FallbackReason;
  /// The bucket skeleton: the request module rebound to representative
  /// extents (marks preserved). Compiles like any concrete module.
  std::shared_ptr<ir::Module> Skeleton;
  /// Salt string mixed into the skeleton's cache key: scheme bounds plus
  /// per-symbol bucket ids, so bucketed entries never alias plain
  /// concrete compiles or other bucket configurations.
  std::string BucketKey;
  /// Late-binding metadata handed to sim::runBound on every hit.
  std::shared_ptr<const ShapeBinding> Binding;
};

/// Full admission pipeline for \p M under \p Scheme. Never throws; every
/// rejection is a Plan with Usable=false and a reason.
Plan plan(const ir::Module &M, const BucketScheme &Scheme);

} // namespace dynshape
} // namespace akg

#endif // AKG_AKG_DYNSHAPE_H
