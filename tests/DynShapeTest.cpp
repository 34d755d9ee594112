//===- tests/DynShapeTest.cpp - Dynamic shapes + bucketed reuse -----------===//
//
// The dynamic-shape contract (DESIGN.md 4k): bucket-boundary edges,
// admission/fallback of the pointwise-in-dynamic-axes analysis, the
// parametric dependence probe, skeleton rebinding, bucketed cache keys,
// late-bound execution matching a fresh per-shape compile, the
// AKG_DYNSHAPE kill switch, and determinism of concurrent bound requests.
//
//===----------------------------------------------------------------------===//

#include "akg/DynShape.h"
#include "akg/Environment.h"
#include "akg/ShapeBuckets.h"
#include "ir/ModuleUtils.h"
#include "ir/SymbolicShape.h"
#include "scheduler/ShapeDep.h"
#include "sim/DynRun.h"
#include "sim/SimtRun.h"

#include <gtest/gtest.h>
#include <memory>
#include <thread>

using namespace akg;
using namespace akg::ir;

namespace {

constexpr double kTol = 2e-2;

/// relu(a + b) over [N, C] with dim 0 dynamic under symbol "n".
std::shared_ptr<Module> makeDynEltwise(int64_t N, int64_t C = 32) {
  auto M = std::make_shared<Module>();
  Tensor A = M->placeholder("a", {N, C}, DType::F32);
  Tensor B = M->placeholder("b", {N, C}, DType::F32);
  M->compute(
      "out", {N, C},
      [&](const std::vector<Expr> &I) {
        return call("relu", {add(tensorRead(A, I), tensorRead(B, I))},
                    DType::F32);
      },
      DType::F32);
  M->markDynamicDim(A, 0, "n");
  M->markDynamicDim(B, 0, "n");
  return M;
}

/// Row-sum over the static axis: out[i] = sum_c a[i, c], dim 0 dynamic.
std::shared_ptr<Module> makeDynRowSum(int64_t N, int64_t C = 24) {
  auto M = std::make_shared<Module>();
  Tensor A = M->placeholder("a", {N, C}, DType::F32);
  IterVar K = M->reduceAxis(C, "c");
  M->compute(
      "row", {N},
      [&](const std::vector<Expr> &I) {
        return reduce(ReduceKind::Sum, tensorRead(A, {I[0], var("c")}), {K});
      },
      DType::F32);
  M->markDynamicDim(A, 0, "n");
  return M;
}

/// GEMM with dynamic M: C[i,j] = sum_k A[i,k] * B[k,j].
std::shared_ptr<Module> makeDynGemm(int64_t Rows, int64_t K = 16,
                                    int64_t Cols = 16) {
  auto M = std::make_shared<Module>();
  Tensor A = M->placeholder("a", {Rows, K}, DType::F16);
  Tensor B = M->placeholder("b", {K, Cols}, DType::F16);
  IterVar KV = M->reduceAxis(K, "k");
  M->compute(
      "c", {Rows, Cols},
      [&](const std::vector<Expr> &I) {
        return reduce(ReduceKind::Sum,
                      mul(tensorRead(A, {I[0], var("k")}),
                          tensorRead(B, {var("k"), I[1]})),
                      {KV});
      },
      DType::F16);
  M->markDynamicDim(A, 0, "m");
  return M;
}

} // namespace

//===----------------------------------------------------------------------===//
// Bucket scheme
//===----------------------------------------------------------------------===//

TEST(ShapeBuckets, DefaultBoundsAndEdges) {
  BucketScheme S;
  ASSERT_EQ(S.bounds().size(), 5u);
  // Extent exactly at a bucket limit stays in that bucket.
  auto B16 = S.bucketFor(16);
  ASSERT_TRUE(B16.has_value());
  EXPECT_EQ(B16->Lo, 1);
  EXPECT_EQ(B16->Hi, 16);
  EXPECT_EQ(B16->representative(), 16);
  // One past the limit lands in the next bucket.
  auto B17 = S.bucketFor(17);
  ASSERT_TRUE(B17.has_value());
  EXPECT_EQ(B17->Lo, 17);
  EXPECT_EQ(B17->Hi, 64);
  // Extent 1 is valid and shares the first bucket.
  EXPECT_EQ(S.bucketFor(1)->Hi, 16);
  // Max-range extent is in the last bucket; beyond it: no bucket.
  EXPECT_EQ(S.bucketFor(4096)->Hi, 4096);
  EXPECT_FALSE(S.bucketFor(4097).has_value());
  EXPECT_FALSE(S.bucketFor(0).has_value());
  EXPECT_EQ(BucketScheme::bucketId(*B17), "b64");
}

TEST(ShapeBuckets, EnvOverrideAndMalformedFallsBack) {
  auto Buckets = [](const char *V) {
    return readEnvironment(mapLookup({{"AKG_SHAPE_BUCKETS", V}}))
        .Cache.Buckets;
  };
  BucketScheme S = Buckets("8,32");
  ASSERT_EQ(S.bounds().size(), 2u);
  EXPECT_EQ(S.bucketFor(9)->Hi, 32);
  EXPECT_FALSE(S.bucketFor(33).has_value());
  // Non-increasing and garbage inputs fall back to the defaults.
  EXPECT_EQ(Buckets("32,8").bounds().size(), 5u);
  EXPECT_EQ(Buckets("16,potato").bounds().size(), 5u);
  EXPECT_FALSE(BucketScheme::parse("16,potato").has_value());
}

//===----------------------------------------------------------------------===//
// Structural analysis + rebinding
//===----------------------------------------------------------------------===//

TEST(SymbolicShape, PropagatesMarksThroughSupportedOps) {
  auto M = makeDynEltwise(40);
  DynShapeAnalysis A = analyzeDynamicShapes(*M);
  ASSERT_TRUE(A.Supported) << A.Reason;
  EXPECT_EQ(A.Bound.at("n"), 40);
  // The op output inherited the mark on its dynamic axis only.
  Tensor Out = M->outputs().at(0);
  EXPECT_EQ(Out->symOf(0), "n");
  EXPECT_EQ(Out->symOf(1), "");
}

TEST(SymbolicShape, GemmWithDynamicRowsIsSupported) {
  auto M = makeDynGemm(100);
  DynShapeAnalysis A = analyzeDynamicShapes(*M);
  ASSERT_TRUE(A.Supported) << A.Reason;
  EXPECT_EQ(M->outputs().at(0)->symOf(0), "m");
}

TEST(SymbolicShape, DynamicReduceAxisRejected) {
  // sum over the DYNAMIC axis: zero padding would not change the sum here,
  // but the class must reject it (exp/min reductions would be wrong).
  auto M = std::make_shared<Module>();
  Tensor A = M->placeholder("a", {32, 8}, DType::F32);
  IterVar K = M->reduceAxis(32, "k");
  M->compute(
      "col", {8},
      [&](const std::vector<Expr> &I) {
        return reduce(ReduceKind::Sum, tensorRead(A, {var("k"), I[0]}), {K});
      },
      DType::F32);
  M->markDynamicDim(A, 0, "n");
  DynShapeAnalysis R = analyzeDynamicShapes(*M);
  EXPECT_FALSE(R.Supported);
  EXPECT_NE(R.Reason.find("non-output axis"), std::string::npos) << R.Reason;
}

TEST(SymbolicShape, NonIdentityIndexingRejected) {
  // Shifted read a[i+1] on the dynamic axis: not pointwise.
  auto M = std::make_shared<Module>();
  Tensor A = M->placeholder("a", {33}, DType::F32);
  M->compute(
      "shift", {32},
      [&](const std::vector<Expr> &I) {
        return tensorRead(A, {add(I[0], intImm(1))});
      },
      DType::F32);
  M->markDynamicDim(A, 0, "n");
  EXPECT_FALSE(analyzeDynamicShapes(*M).Supported);
}

TEST(SymbolicShape, DynamicAxisInValuePositionRejected) {
  // select(i < 5, ...) uses the dynamic axis var as a value: the padded
  // region would change results, so admission must refuse.
  auto M = std::make_shared<Module>();
  Tensor A = M->placeholder("a", {32}, DType::F32);
  M->compute(
      "sel", {32},
      [&](const std::vector<Expr> &I) {
        return select(cmp(ExprKind::CmpLT, I[0], intImm(5)),
                      tensorRead(A, I), floatImm(0.0));
      },
      DType::F32);
  M->markDynamicDim(A, 0, "n");
  DynShapeAnalysis R = analyzeDynamicShapes(*M);
  EXPECT_FALSE(R.Supported);
  EXPECT_NE(R.Reason.find("outside identity indexing"), std::string::npos)
      << R.Reason;
}

TEST(SymbolicShape, InconsistentBindingRejected) {
  auto M = std::make_shared<Module>();
  Tensor A = M->placeholder("a", {32, 8}, DType::F32);
  Tensor B = M->placeholder("b", {40, 8}, DType::F32);
  M->compute(
      "oa", {32, 8},
      [&](const std::vector<Expr> &I) { return tensorRead(A, I); },
      DType::F32);
  M->markDynamicDim(A, 0, "n");
  M->markDynamicDim(B, 0, "n"); // same symbol, different extent
  EXPECT_FALSE(analyzeDynamicShapes(*M).Supported);
}

TEST(SymbolicShape, OutOfDeclaredRangeRejected) {
  auto M = std::make_shared<Module>();
  Tensor A = M->placeholder("a", {100}, DType::F32);
  M->compute(
      "o", {100},
      [&](const std::vector<Expr> &I) { return tensorRead(A, I); },
      DType::F32);
  M->markDynamicDim(A, 0, "n", /*Min=*/1, /*Max=*/64);
  EXPECT_FALSE(analyzeDynamicShapes(*M).Supported);
}

TEST(SymbolicShape, RebindMovesEveryBoundExtent) {
  auto M = makeDynEltwise(40);
  ASSERT_TRUE(analyzeDynamicShapes(*M).Supported);
  Module R = rebindShapes(*M, {{"n", 64}});
  EXPECT_EQ(R.inputs()[0]->Shape[0], 64);
  EXPECT_EQ(R.inputs()[1]->Shape[0], 64);
  EXPECT_EQ(R.outputs()[0]->Shape[0], 64);
  EXPECT_EQ(R.outputs()[0]->symOf(0), "n"); // marks survive
  EXPECT_EQ(checkModuleBounds(R), "");
  // The rebound skeleton is a well-formed concrete module: it evaluates.
  BufferMap Out = evaluateModule(R, sim::makeModuleInputs(R, 7));
  EXPECT_EQ(Out.at("out").size(), 64u * 32u);
}

TEST(SymbolicShape, CloneKeepsSymbolRegistryAndMarks) {
  auto M = makeDynEltwise(20);
  Module C = cloneModule(*M);
  EXPECT_TRUE(hasDynamicDims(C));
  EXPECT_EQ(C.shapeSymbols().at("n").Max, 4096);
  EXPECT_EQ(C.inputs()[0]->symOf(0), "n");
}

//===----------------------------------------------------------------------===//
// Parametric dependence probe
//===----------------------------------------------------------------------===//

TEST(ShapeDep, SupportedClassIsInvariantAcrossBucket) {
  auto M = makeDynRowSum(40);
  ASSERT_TRUE(analyzeDynamicShapes(*M).Supported);
  std::map<std::string, SymExtentRange> R{{"n", {17, 64}}};
  EXPECT_EQ(sched::probeShapeDependence(*M, R), "");
}

TEST(ShapeDep, ParametricDomainsCarryParamColumns) {
  auto M = makeDynEltwise(40);
  ASSERT_TRUE(analyzeDynamicShapes(*M).Supported);
  ir::PolyProgram P =
      extractPolyProgramParametric(*M, {{"n", {17, 64}}});
  ASSERT_FALSE(P.Stmts.empty());
  const poly::BasicSet &D = P.Stmts[0].Domain;
  ASSERT_EQ(D.space().numParams(), 1u);
  EXPECT_EQ(D.space().Params[0], "n");
  // Fixing the parameter pins the dynamic dim's max.
  poly::BasicSet Fixed = D;
  Fixed.fixParam(0, 40);
  EXPECT_EQ(Fixed.maxOfCol(Fixed.inCol(0)).value_or(-1), 39);
  EXPECT_FALSE(Fixed.isEmpty());
}

//===----------------------------------------------------------------------===//
// Admission planning + bucketed cache
//===----------------------------------------------------------------------===//

TEST(DynShapePlan, AdmitsAndCanonicalizesToBucketTop) {
  auto M = makeDynEltwise(40);
  dynshape::Plan P = dynshape::plan(*M, BucketScheme());
  ASSERT_TRUE(P.Usable) << P.FallbackReason;
  EXPECT_EQ(P.Skeleton->inputs()[0]->Shape[0], 64); // rep of (16,64]
  EXPECT_EQ(P.Binding->Concrete.at("n"), 40);
  EXPECT_EQ(P.Binding->Representative.at("n"), 64);
  EXPECT_NE(P.BucketKey.find("n=b64"), std::string::npos) << P.BucketKey;
  // Both input tensors and the derived output are recorded for pad/slice.
  EXPECT_TRUE(P.Binding->TensorSyms.count("a"));
  EXPECT_TRUE(P.Binding->TensorSyms.count("out"));
}

TEST(DynShapePlan, BeyondLastBucketFallsBack) {
  auto M = makeDynEltwise(50, 8);
  M->declareShapeSymbol("n", 1, 100000); // widen the declared range
  auto Big = std::make_shared<Module>();
  Tensor A = Big->placeholder("a", {5000, 8}, DType::F32);
  Big->compute(
      "o", {5000, 8},
      [&](const std::vector<Expr> &I) { return tensorRead(A, I); },
      DType::F32);
  Big->markDynamicDim(A, 0, "n", 1, 100000);
  dynshape::Plan P = dynshape::plan(*Big, BucketScheme());
  EXPECT_FALSE(P.Usable);
  EXPECT_NE(P.FallbackReason.find("beyond the last bucket"),
            std::string::npos);
}

TEST(DynShapePlan, BucketedKeyNeverAliasesPlainConcreteKey) {
  auto M = makeDynEltwise(40);
  dynshape::Plan P = dynshape::plan(*M, BucketScheme());
  ASSERT_TRUE(P.Usable);
  AkgOptions O;
  CacheKey Plain = makeCacheKey(*P.Skeleton, O);
  CacheKey Bucketed = makeBucketedCacheKey(*P.Skeleton, O, P.BucketKey);
  EXPECT_FALSE(Plain == Bucketed);
}

TEST(DynShapeCache, SameBucketSharesOneSkeletonCompile) {
  KernelCache C;
  AkgOptions O;
  auto M1 = makeDynEltwise(40);
  auto M2 = makeDynEltwise(63); // same bucket (16, 64]
  CompileResult R1 = C.compileOrGet(*M1, O, "k40");
  CompileResult R2 = C.compileOrGet(*M2, O, "k63");
  ASSERT_TRUE(R1.Outcome.isOk());
  ASSERT_TRUE(R2.Outcome.isOk());
  ASSERT_TRUE(R1.DynShape && R2.DynShape);
  EXPECT_EQ(R1.DynShape->Concrete.at("n"), 40);
  EXPECT_EQ(R2.DynShape->Concrete.at("n"), 63);
  KernelCacheStats S = C.stats();
  EXPECT_EQ(S.Misses, 1) << "second request must reuse the skeleton";
  EXPECT_EQ(S.Hits, 1);
  EXPECT_EQ(S.DynBinds, 2);
  EXPECT_EQ(C.size(), 1u);
  // The skeleton kernel advertises its late-bound extent registers.
  ASSERT_EQ(R1.Kernel.ExtentRegs.size(), 1u);
  EXPECT_EQ(R1.Kernel.ExtentRegs[0].Symbol, "n");
  EXPECT_EQ(R1.Kernel.ExtentRegs[0].Value, 64);
  EXPECT_NE(cce::printKernel(R1.Kernel).find(".extent_reg n = 64"),
            std::string::npos);
}

TEST(DynShapeCache, DifferentBucketsCompileSeparately) {
  KernelCache C;
  AkgOptions O;
  auto M1 = makeDynEltwise(10); // bucket [1,16]
  auto M2 = makeDynEltwise(40); // bucket (16,64]
  ASSERT_TRUE(C.compileOrGet(*M1, O, "k10").Outcome.isOk());
  ASSERT_TRUE(C.compileOrGet(*M2, O, "k40").Outcome.isOk());
  EXPECT_EQ(C.stats().Misses, 2);
  EXPECT_EQ(C.size(), 2u);
}

TEST(DynShapeCache, KillSwitchDisablesBucketing) {
  KernelCacheConfig Cfg =
      readEnvironment(mapLookup({{"AKG_DYNSHAPE", "0"}})).Cache;
  EXPECT_FALSE(Cfg.DynShape);
  KernelCache C(Cfg);
  AkgOptions O;
  auto M1 = makeDynEltwise(40);
  auto M2 = makeDynEltwise(63);
  CompileResult R1 = C.compileOrGet(*M1, O, "k40");
  CompileResult R2 = C.compileOrGet(*M2, O, "k63");
  ASSERT_TRUE(R1.Outcome.isOk());
  EXPECT_EQ(R1.DynShape, nullptr);
  EXPECT_EQ(R2.DynShape, nullptr);
  EXPECT_TRUE(R1.Kernel.ExtentRegs.empty());
  EXPECT_EQ(C.stats().Misses, 2) << "no bucket sharing with the switch off";
  EXPECT_EQ(C.stats().DynBinds, 0);
}

TEST(DynShapeCache, UnsupportedModuleFallsBackAndStillCompiles) {
  KernelCache C;
  AkgOptions O;
  auto M = std::make_shared<Module>();
  Tensor A = M->placeholder("a", {33}, DType::F32);
  M->compute(
      "shift", {32},
      [&](const std::vector<Expr> &I) {
        return tensorRead(A, {add(I[0], intImm(1))});
      },
      DType::F32);
  M->markDynamicDim(A, 0, "n");
  CompileResult R = C.compileOrGet(*M, O, "shifted");
  ASSERT_TRUE(R.Outcome.isOk());
  EXPECT_EQ(R.DynShape, nullptr);
  EXPECT_EQ(C.stats().DynFallbacks, 1);
  // Correctness never depends on bucketing: the fallback compile is exact.
  EXPECT_TRUE(sim::diffBoundAgainstReference(R, *M, O.Codegen.Machine)
                  .within(kTol));
}

//===----------------------------------------------------------------------===//
// Late-bound execution == fresh per-shape compile (the hard gate)
//===----------------------------------------------------------------------===//

namespace {

/// Compiles \p M bucketed (through a cache) and fresh (direct), then
/// requires both to match the reference evaluator on the concrete shape.
void expectBoundMatchesFresh(KernelCache &C, std::shared_ptr<Module> M,
                             const std::string &Name) {
  AkgOptions O;
  CompileResult Bound = C.compileOrGet(*M, O, Name);
  ASSERT_TRUE(Bound.Outcome.isOk());
  sim::FunctionalDiff BD =
      sim::diffBoundAgainstReference(Bound, *M, O.Codegen.Machine);
  EXPECT_TRUE(BD.within(kTol)) << Name << " bound: " << BD.str();
  CompileResult Fresh = compileWithAkg(*M, O, Name + "_fresh");
  ASSERT_TRUE(Fresh.Outcome.isOk());
  sim::FunctionalDiff FD =
      sim::diffBoundAgainstReference(Fresh, *M, O.Codegen.Machine);
  EXPECT_TRUE(FD.within(kTol)) << Name << " fresh: " << FD.str();
}

} // namespace

TEST(DynShapeBind, EltwiseMatchesFreshAcrossBucketEdges) {
  KernelCache C;
  for (int64_t N : {1, 15, 16, 17, 63, 64, 65}) {
    auto M = makeDynEltwise(N, 16);
    expectBoundMatchesFresh(C, M, "elt_n" + std::to_string(N));
  }
  // 1, 15, 16 share one skeleton; 17, 63, 64 share another; 65 a third.
  EXPECT_EQ(C.stats().Misses, 3);
  EXPECT_EQ(C.stats().DynBinds, 7);
}

TEST(DynShapeBind, RowSumMatchesFresh) {
  KernelCache C;
  for (int64_t N : {3, 16, 30}) {
    auto M = makeDynRowSum(N);
    expectBoundMatchesFresh(C, M, "rowsum_n" + std::to_string(N));
  }
}

TEST(DynShapeBind, GemmDynamicRowsMatchesFresh) {
  KernelCache C;
  for (int64_t Rows : {5, 16, 48}) {
    auto M = makeDynGemm(Rows);
    expectBoundMatchesFresh(C, M, "gemm_m" + std::to_string(Rows));
  }
}

TEST(DynShapeBind, ConcurrentBindsAreDeterministic) {
  // N threads bind different extents of one bucket concurrently; each
  // result must be bit-identical to a sequential bind of that extent.
  KernelCache C;
  AkgOptions O;
  const int64_t Extents[] = {20, 30, 40, 50};
  uint64_t SeqBits[4];
  for (unsigned I = 0; I < 4; ++I) {
    auto M = makeDynEltwise(Extents[I], 8);
    CompileResult R = C.compileOrGet(*M, O, "seq");
    ASSERT_TRUE(R.Outcome.isOk());
    sim::diffBoundAgainstReference(R, *M, O.Codegen.Machine, 1, nullptr,
                                   &SeqBits[I]);
  }
  uint64_t ParBits[4] = {0, 0, 0, 0};
  std::vector<std::thread> Ts;
  for (unsigned I = 0; I < 4; ++I)
    Ts.emplace_back([&, I] {
      auto M = makeDynEltwise(Extents[I], 8);
      CompileResult R = C.compileOrGet(*M, O, "par");
      ASSERT_TRUE(R.Outcome.isOk());
      sim::diffBoundAgainstReference(R, *M, O.Codegen.Machine, 1, nullptr,
                                     &ParBits[I]);
    });
  for (std::thread &T : Ts)
    T.join();
  for (unsigned I = 0; I < 4; ++I)
    EXPECT_EQ(SeqBits[I], ParBits[I]) << "extent " << Extents[I];
}

TEST(DynShapeBind, SimtBucketRunsOnTheSimtModel) {
  // A bucketed kernel compiled for SIMT must bind and run on the SIMT
  // simulator: same outputs as the reference, and simulateSimt's cycles
  // rather than the CCE model's.
  KernelCache C;
  AkgOptions O;
  O.Target = sim::TargetKind::Simt;
  auto M = makeDynEltwise(40);
  CompileResult R = C.compileOrGet(*M, O, "simt_elt");
  ASSERT_TRUE(R.Outcome.isOk());
  ASSERT_NE(R.DynShape, nullptr);
  ASSERT_EQ(R.Kernel.Target, sim::TargetKind::Simt);
  sim::SimResult Run;
  sim::FunctionalDiff D =
      sim::diffBoundAgainstReference(R, *M, O.Codegen.Machine, 1, &Run);
  EXPECT_TRUE(D.within(kTol)) << D.str();
  sim::SimOptions Timing;
  Timing.Functional = false;
  sim::SimtResult Want =
      sim::simulateSimt(R.Kernel, sim::SimtSpec::sm80(), nullptr, Timing);
  EXPECT_EQ(Run.Cycles, Want.Cycles);
}
