//===- tests/DegradationTest.cpp - Fault injection + fallback ladder ------===//
//
// Forces each pipeline stage to fail (AkgOptions::FailStage and the
// AKG_FAIL_STAGE environment override) and checks the graded-degradation
// contract: the compile never aborts or leaks an exception, the
// DegradationReport names the failed stage, and the emitted kernel still
// computes the right answer. Also covers the tile-halving convergence
// ladder, the recoverable Rational overflow, and the ILP node budget.
//
//===----------------------------------------------------------------------===//

#include "akg/Compiler.h"
#include "akg/Environment.h"
#include "graph/Ops.h"
#include "poly/Lp.h"
#include "support/Rational.h"

#include <cstdlib>
#include <gtest/gtest.h>
#include <memory>

using namespace akg;
using namespace akg::ir;

namespace {

const sim::MachineSpec &machine() { return sim::MachineSpec::ascend910(); }

/// A two-op F32 elementwise chain: exercises fusion, vectorization and
/// double buffering while keeping reference comparison exact (identical
/// float operations in identical order on both sides).
std::shared_ptr<Module> makeChain() {
  auto M = std::make_shared<Module>();
  Tensor A = M->placeholder("A", {8, 32}, DType::F32);
  Tensor B = M->placeholder("B", {8, 32}, DType::F32);
  Tensor T = M->compute(
      "t", {8, 32},
      [&](const std::vector<Expr> &I) {
        return add(tensorRead(A, I), tensorRead(B, I));
      },
      DType::F32);
  M->compute(
      "out", {8, 32},
      [&](const std::vector<Expr> &I) {
        return mul(tensorRead(T, I), tensorRead(A, I));
      },
      DType::F32);
  return M;
}

TEST(Degradation, EveryStageFailsSafe) {
  const Stage Stages[] = {Stage::Scheduler,   Stage::Tiling,
                          Stage::Fusion,      Stage::IntraTile,
                          Stage::Storage,     Stage::Vectorize,
                          Stage::DoubleBuffer, Stage::Sync};
  auto M = makeChain();
  for (Stage S : Stages) {
    AkgOptions O;
    O.FailStage = S;
    CompileResult R = compileWithAkg(*M, O, std::string("inject_") +
                                                stageName(S));
    EXPECT_TRUE(R.Degradation.degraded()) << stageName(S);
    EXPECT_TRUE(R.Degradation.hasStage(S))
        << stageName(S) << " missing from:\n"
        << R.Degradation.str();
    EXPECT_LT(verifyKernel(R.Kernel, *M, machine()), 1e-5) << stageName(S);
  }
}

TEST(Degradation, CleanCompileReportsNothing) {
  auto M = makeChain();
  CompileResult R = compileWithAkg(*M, AkgOptions{}, "clean");
  EXPECT_FALSE(R.Degradation.degraded()) << R.Degradation.str();
  EXPECT_LT(verifyKernel(R.Kernel, *M, machine()), 1e-5);
}

TEST(Degradation, InjectedCubePipelineStaysCorrect) {
  auto M = graph::makeMatmul(32, 32, 32, DType::F32);
  for (Stage S : {Stage::Scheduler, Stage::Vectorize}) {
    AkgOptions O;
    O.FailStage = S;
    CompileResult R = compileWithAkg(*M, O, "inject_matmul");
    EXPECT_TRUE(R.Degradation.hasStage(S)) << stageName(S);
    EXPECT_LT(verifyKernel(R.Kernel, *M, machine()), 1e-5) << stageName(S);
  }
}

TEST(Degradation, EnvVarOverridesFailStage) {
  // AKG_FAIL_STAGE replaces the default (no injection) in the options a
  // tool reads at start.
  auto M = makeChain();
  AkgOptions O =
      readEnvironment(mapLookup({{"AKG_FAIL_STAGE", "double_buffer"}}))
          .Compile;
  EXPECT_EQ(O.FailStage, Stage::DoubleBuffer);
  CompileResult R = compileWithAkg(*M, O, "env_inject");
  EXPECT_TRUE(R.Degradation.hasStage(Stage::DoubleBuffer))
      << R.Degradation.str();
  EXPECT_LT(verifyKernel(R.Kernel, *M, machine()), 1e-5);
  // Dashes are accepted too, and unknown names are ignored.
  EXPECT_EQ(parseStage("double-buffer"), Stage::DoubleBuffer);
  EXPECT_EQ(parseStage("no_such_stage"), Stage::None);
}

TEST(Degradation, TileHalvingConverges) {
  // One wide F32 row: the full-extent manual tile cannot fit in UB, so the
  // driver must walk the halving ladder down to a feasible size and record
  // the storage degradation.
  auto M = graph::makeTensorAdd({64, 8192});
  transforms::TilingPolicy TP;
  transforms::StmtTileSpec Spec;
  Spec.Entries.push_back(transforms::TileSpecEntry{64, "UB"});
  Spec.Entries.push_back(transforms::TileSpecEntry{8192, "UB"});
  TP.PerStmt[0] = Spec;

  AkgOptions O;
  O.ManualTiles = TP;
  CompileResult R = compileWithAkg(*M, O, "halving");
  EXPECT_TRUE(R.Degradation.hasStage(Stage::Storage))
      << R.Degradation.str();
  ASSERT_FALSE(R.TileSizes.empty());
  int64_t TileElems = 1;
  for (int64_t S : R.TileSizes)
    TileElems *= S;
  EXPECT_LT(TileElems, 64 * 8192); // actually halved something
  EXPECT_LT(verifyKernel(R.Kernel, *M, machine()), 1e-5);
}

TEST(Degradation, RetryBudgetExhaustionFallsBackToScalar) {
  auto M = graph::makeTensorAdd({64, 8192});
  transforms::TilingPolicy TP;
  transforms::StmtTileSpec Spec;
  Spec.Entries.push_back(transforms::TileSpecEntry{64, "UB"});
  Spec.Entries.push_back(transforms::TileSpecEntry{8192, "UB"});
  TP.PerStmt[0] = Spec;

  AkgOptions O;
  O.ManualTiles = TP;
  O.MaxTileRetries = 0; // no halving allowed
  CompileResult R = compileWithAkg(*M, O, "no_retries");
  EXPECT_TRUE(R.Degradation.hasStage(Stage::Storage))
      << R.Degradation.str();
  EXPECT_TRUE(R.TileSizes.empty()); // scalar fallback carries no tiling
  EXPECT_LT(verifyKernel(R.Kernel, *M, machine()), 1e-5);
}

TEST(Degradation, ExpiredDeadlineStillCompiles) {
  auto M = makeChain();
  AkgOptions O;
  O.Budget.DeadlineSeconds = 1e-9; // expires immediately
  CompileResult R = compileWithAkg(*M, O, "deadline");
  EXPECT_TRUE(R.Degradation.degraded()) << "deadline ignored";
  EXPECT_LT(verifyKernel(R.Kernel, *M, machine()), 1e-5);
}

TEST(Degradation, RationalOverflowIsRecoverable) {
  EXPECT_THROW(Rational(Int128(1) << 101, 1), RationalOverflow);
  EXPECT_THROW(Rational(1, Int128(1) << 101), RationalOverflow);
  EXPECT_NO_THROW(Rational(Int128(1) << 99, 3));
  // The solver absorbs the throw and reports the problem as too hard
  // rather than crashing; a plain in-range problem is unaffected.
  Rational R(6, 4);
  EXPECT_EQ(R.num(), 3);
  EXPECT_EQ(R.den(), 2);
}

TEST(Degradation, IlpNodeBudgetReportsTooHard) {
  // 1/3 <= x <= 2/3 has no integer point; proving it requires branching,
  // which a one-node budget forbids.
  LpProblem P;
  P.NumVars = 1;
  P.addIneq({Rational(3)}, Rational(-1)); // 3x - 1 >= 0
  P.addIneq({Rational(-3)}, Rational(2)); // -3x + 2 >= 0
  IlpOptions Tight;
  Tight.NodeLimit = 1;
  LpResult R = ilpMinimize(P, {Rational(1)}, Tight);
  EXPECT_EQ(R.Status, LpStatus::TooHard);
  // With the default budget the emptiness proof completes.
  LpResult Full = ilpMinimize(P, {Rational(1)});
  EXPECT_EQ(Full.Status, LpStatus::Infeasible);
}

} // namespace
