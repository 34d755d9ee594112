//===- tests/PropertyTest.cpp - Parameterized correctness sweeps ----------===//
//
// Property-style sweeps: for many shapes, tile configurations and operator
// mixes, every compiler path must produce a kernel whose functional
// simulation matches the reference evaluator, stay within buffer
// capacities, and respect basic structural invariants.
//
//===----------------------------------------------------------------------===//

#include "akg/Compiler.h"
#include "baselines/TvmCompiler.h"
#include "graph/Ops.h"

#include <gtest/gtest.h>

using namespace akg;
using namespace akg::ir;

namespace {

const sim::MachineSpec &machine() { return sim::MachineSpec::ascend910(); }

//===----------------------------------------------------------------------===//
// Elementwise chains over a shape sweep.
//===----------------------------------------------------------------------===//

struct ShapeCase {
  std::vector<int64_t> Shape;
};

// Case names must not depend on the run: gtest's default byte dump of a
// case shows heap addresses (a vector) or padding bytes, and ctest takes its
// test names from that dump.
void PrintTo(const ShapeCase &C, std::ostream *OS) {
  for (size_t I = 0; I < C.Shape.size(); ++I)
    *OS << (I ? "x" : "") << C.Shape[I];
}

class ElementwiseSweep : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(ElementwiseSweep, AkgMatchesReference) {
  const ShapeCase &C = GetParam();
  Module M;
  Tensor A = M.placeholder("A", C.Shape);
  Tensor B = M.placeholder("B", C.Shape);
  Tensor T = M.compute("t", C.Shape, [&](const std::vector<Expr> &I) {
    return add(mul(tensorRead(A, I), floatImm(0.5)), tensorRead(B, I));
  });
  M.compute("out", C.Shape, [&](const std::vector<Expr> &I) {
    return call("relu", {tensorRead(T, I)}, DType::F16);
  });
  CompileResult R = compileWithAkg(M, AkgOptions{}, "sweep");
  EXPECT_TRUE(cce::checkBufferCapacities(R.Kernel, machine()).empty());
  EXPECT_LT(verifyKernel(R.Kernel, M, machine()), 1e-3);
}

TEST_P(ElementwiseSweep, TvmMatchesReference) {
  const ShapeCase &C = GetParam();
  Module M;
  Tensor A = M.placeholder("A", C.Shape);
  M.compute("out", C.Shape, [&](const std::vector<Expr> &I) {
    return call("abs", {tensorRead(A, I)}, DType::F16);
  });
  baselines::TvmOptions O;
  CompileResult R = baselines::compileWithTvm(M, O, "sweep_tvm");
  EXPECT_LT(verifyKernel(R.Kernel, M, machine()), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ElementwiseSweep,
    ::testing::Values(ShapeCase{{7}}, ShapeCase{{64}}, ShapeCase{{1, 1}},
                      ShapeCase{{3, 129}}, ShapeCase{{33, 17}},
                      ShapeCase{{16, 16, 9}}, ShapeCase{{2, 3, 5, 7}},
                      ShapeCase{{16, 8, 14, 14}}, ShapeCase{{1, 256}},
                      ShapeCase{{255, 1}}));

//===----------------------------------------------------------------------===//
// Manual tile policies: any valid Fig 4 policy must stay correct.
//===----------------------------------------------------------------------===//

struct TileCase {
  int64_t T0, T1;
};

class TilePolicySweep : public ::testing::TestWithParam<TileCase> {};

TEST_P(TilePolicySweep, OverlappedFusionStaysCorrect) {
  const TileCase &C = GetParam();
  Module M;
  Tensor A = M.placeholder("A", {30, 26});
  Tensor B = M.placeholder("B", {3, 3});
  Tensor A2 = M.compute("A2", {30, 26}, [&](const std::vector<Expr> &I) {
    return add(tensorRead(A, I), floatImm(0.25));
  });
  IterVar Kh = M.reduceAxis(3, "kh");
  IterVar Kw = M.reduceAxis(3, "kw");
  M.compute("Cv", {28, 24}, [&](const std::vector<Expr> &I) {
    return reduce(ReduceKind::Sum,
                  mul(tensorRead(A2, {add(I[0], var("kh")),
                                      add(I[1], var("kw"))}),
                      tensorRead(B, {var("kh"), var("kw")})),
                  {Kh, Kw});
  });
  ir::PolyProgram P = extractPolyProgram(M);
  transforms::TilingPolicy Pol;
  transforms::StmtTileSpec Spec;
  Spec.Entries.push_back({C.T0, "UB"});
  Spec.Entries.push_back({C.T1, "UB"});
  Pol.PerStmt[P.Stmts.back().Id] = Spec;
  AkgOptions O;
  O.ManualTiles = Pol;
  CompileResult R = compileWithAkg(M, O, "tile_sweep");
  EXPECT_LT(verifyKernel(R.Kernel, M, machine()), 1e-2);
}

INSTANTIATE_TEST_SUITE_P(Tiles, TilePolicySweep,
                         ::testing::Values(TileCase{1, 1}, TileCase{1, 24},
                                           TileCase{5, 7}, TileCase{8, 8},
                                           TileCase{28, 24},
                                           TileCase{13, 24},
                                           TileCase{28, 5}));

//===----------------------------------------------------------------------===//
// Matmul size sweep across fractal-boundary shapes.
//===----------------------------------------------------------------------===//

struct MmCase {
  int64_t M, N, K;
};

class MatmulSweep : public ::testing::TestWithParam<MmCase> {};

TEST_P(MatmulSweep, FractalPipelineMatchesReference) {
  const MmCase &C = GetParam();
  auto M = graph::makeMatmul(C.M, C.N, C.K);
  CompileResult R = compileWithAkg(*M, AkgOptions{}, "mm_sweep");
  EXPECT_GT(cce::countInstrs(R.Kernel, cce::InstrKind::Mmad), 0u);
  EXPECT_LT(verifyKernel(R.Kernel, *M, machine()), 5e-2);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatmulSweep,
                         ::testing::Values(MmCase{16, 16, 16},
                                           MmCase{17, 19, 23},
                                           MmCase{48, 32, 80},
                                           MmCase{1, 64, 64},
                                           MmCase{64, 1, 32},
                                           MmCase{100, 36, 144},
                                           MmCase{128, 128, 200}));

//===----------------------------------------------------------------------===//
// Convolution geometry sweep (stride / padding / channels).
//===----------------------------------------------------------------------===//

struct ConvCase {
  int64_t N, Ci, H, W, Co, K, Stride, Pad;
};

class ConvSweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvSweep, Img2ColMatchesReference) {
  const ConvCase &C = GetParam();
  auto M = graph::makeConv(C.N, C.Ci, C.H, C.W, C.Co, C.K, C.K, C.Stride,
                           C.Pad);
  CompileResult R = compileWithAkg(*M, AkgOptions{}, "conv_sweep");
  EXPECT_GT(cce::countInstrs(R.Kernel, cce::InstrKind::Img2Col), 0u);
  EXPECT_LT(verifyKernel(R.Kernel, *M, machine()), 5e-2);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvSweep,
    ::testing::Values(ConvCase{1, 1, 8, 8, 1, 3, 1, 0},
                      ConvCase{2, 3, 10, 10, 4, 3, 1, 1},
                      ConvCase{1, 2, 12, 12, 2, 3, 2, 1},
                      ConvCase{2, 4, 9, 9, 8, 1, 1, 0},
                      ConvCase{1, 3, 11, 11, 2, 5, 1, 2},
                      ConvCase{2, 2, 8, 12, 3, 3, 2, 0}));

//===----------------------------------------------------------------------===//
// Scheduler options: every combination must stay legal and correct.
//===----------------------------------------------------------------------===//

struct SchedCase {
  bool Skew, Shift, Bounding;
  sched::FusionStrategy Fusion;
};

void PrintTo(const SchedCase &C, std::ostream *OS) {
  static const char *const Fusion[] = {"none", "conservative", "aggressive"};
  *OS << "skew" << C.Skew << "_shift" << C.Shift << "_bound" << C.Bounding
      << "_" << Fusion[static_cast<int>(C.Fusion)];
}

class SchedulerOptionSweep : public ::testing::TestWithParam<SchedCase> {};

TEST_P(SchedulerOptionSweep, OptionsPreserveCorrectness) {
  const SchedCase &C = GetParam();
  Module M;
  Tensor A = M.placeholder("A", {18});
  Tensor B = M.compute("B", {18}, [&](const std::vector<Expr> &I) {
    return add(tensorRead(A, {I[0]}), floatImm(1.0));
  });
  IterVar K = M.reduceAxis(3, "k");
  M.compute("C", {16}, [&](const std::vector<Expr> &I) {
    return reduce(ReduceKind::Sum, tensorRead(B, {add(I[0], var("k"))}),
                  {K});
  });
  AkgOptions O;
  O.Scheduler.AllowSkew = C.Skew;
  O.Scheduler.AllowShift = C.Shift;
  O.Scheduler.UseBoundingFunction = C.Bounding;
  O.Scheduler.Fusion = C.Fusion;
  CompileResult R = compileWithAkg(M, O, "sched_sweep");
  EXPECT_LT(verifyKernel(R.Kernel, M, machine()), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Options, SchedulerOptionSweep,
    ::testing::Values(
        SchedCase{true, true, false, sched::FusionStrategy::Conservative},
        SchedCase{false, false, false, sched::FusionStrategy::Conservative},
        SchedCase{true, true, true, sched::FusionStrategy::Conservative},
        SchedCase{true, true, false, sched::FusionStrategy::Aggressive},
        SchedCase{false, true, false, sched::FusionStrategy::None},
        SchedCase{true, false, false, sched::FusionStrategy::None}));

} // namespace
