//===- tests/VerifyTest.cpp - Differential verification subsystem ---------===//
//
// Self-tests for the verify subsystem (DESIGN.md 4e): the structured
// generator (determinism, theme coverage, size budgets), the module
// utilities it builds on (clone, static bounds proof, C++ emission), the
// config-matrix oracle, and the reducer. The centerpiece is the
// injected-bug test: a deliberate miscompile is planted through
// OracleOptions::MutateKernel, the oracle must flag it, and the reducer
// must shrink the module to a tiny repro — proving the harness would
// catch a real regression end to end.
//
//===----------------------------------------------------------------------===//

#include "composite/Composite.h"
#include "ir/ModuleUtils.h"
#include "ir/Passes.h"
#include "sim/Compare.h"
#include "sim/Simulator.h"
#include "verify/Generator.h"
#include "verify/Oracle.h"
#include "verify/Reducer.h"

#include <gtest/gtest.h>

#include <set>

using namespace akg;
using namespace akg::ir;

namespace {

// --- Generator ----------------------------------------------------------

TEST(Generator, DeterministicAcrossCalls) {
  for (uint64_t Seed : {0ull, 7ull, 42ull, 123ull}) {
    Module A = verify::generateModule(Seed);
    Module B = verify::generateModule(Seed);
    EXPECT_EQ(emitModuleBuilder(A), emitModuleBuilder(B)) << "seed " << Seed;
    EXPECT_EQ(verify::describeModule(Seed, A), verify::describeModule(Seed, B));
  }
}

TEST(Generator, SeedRangeCoversEveryTheme) {
  std::set<verify::Theme> Seen;
  for (uint64_t S = 0; S < 7; ++S)
    Seen.insert(verify::themeForSeed(S));
  EXPECT_EQ(Seen.size(), 7u);
}

TEST(Generator, RespectsSizeBudgets) {
  verify::GenOptions Opts;
  Opts.MaxTensorElems = 512;
  Opts.MaxTotalElems = 2048;
  for (uint64_t Seed = 0; Seed < 28; ++Seed) {
    Module M = verify::generateModule(Seed, Opts);
    int64_t Total = 0;
    for (const Tensor &T : M.allTensors()) {
      EXPECT_LE(T->numElements(), Opts.MaxTensorElems)
          << "seed " << Seed << " tensor " << T->Name;
      Total += T->numElements();
    }
    EXPECT_LE(Total, Opts.MaxTotalElems) << "seed " << Seed;
    EXPECT_GE(M.ops().size(), 1u);
    // Everything the generator makes must be statically in bounds — the
    // evaluator would abort on an OOB read otherwise.
    EXPECT_EQ(checkModuleBounds(M), "") << verify::describeModule(Seed, M);
  }
}

// --- Module utilities ---------------------------------------------------

TEST(ModuleUtils, CloneEvaluatesIdentically) {
  Module M = verify::generateModule(3); // conv theme: the richest bodies
  Module C = cloneModule(M);
  BufferMap In = sim::makeModuleInputs(M);
  BufferMap RefM = evaluateModule(M, In);
  BufferMap RefC = evaluateModule(C, In);
  ASSERT_EQ(RefM.size(), RefC.size());
  for (const auto &[Name, Vals] : RefM) {
    ASSERT_TRUE(RefC.count(Name)) << Name;
    EXPECT_EQ(Vals, RefC[Name]) << Name;
  }
}

TEST(ModuleUtils, BoundsCheckerAcceptsGuardedPadding) {
  // The conv padding idiom: reads shifted out of range but guarded by the
  // select condition. The checker must refine intervals through the guard.
  Module M;
  Tensor In = M.placeholder("x", {4, 4});
  M.compute("pad", {4, 4}, [&](const std::vector<Expr> &Ix) {
    Expr H = sub(Ix[0], intImm(1));
    Expr G = binary(ExprKind::And, cmp(ExprKind::CmpLE, intImm(0), H),
                    cmp(ExprKind::CmpLT, H, intImm(4)));
    return select(G, tensorRead(In, {H, Ix[1]}), floatImm(0.0));
  });
  EXPECT_EQ(checkModuleBounds(M), "");
}

TEST(ModuleUtils, BoundsCheckerFlagsOutOfRangeRead) {
  Module M;
  Tensor In = M.placeholder("x", {4, 4});
  M.compute("shift", {4, 4}, [&](const std::vector<Expr> &Ix) {
    return tensorRead(In, {add(Ix[0], intImm(1)), Ix[1]}); // reads row 4
  });
  EXPECT_NE(checkModuleBounds(M), "");
}

TEST(ModuleUtils, EmitterRendersBuilderCalls) {
  Module M = verify::generateModule(1); // matmul theme
  std::string Code = emitModuleBuilder(M);
  EXPECT_NE(Code.find("ir::Module M;"), std::string::npos);
  EXPECT_NE(Code.find("M.placeholder("), std::string::npos);
  EXPECT_NE(Code.find("M.compute("), std::string::npos);
  EXPECT_NE(Code.find("M.reduceAxis("), std::string::npos); // matmul k-axis
}

// --- Oracle -------------------------------------------------------------

TEST(Oracle, CleanModulePassesQuickMatrix) {
  Module M = verify::generateModule(0);
  verify::OracleOptions OO;
  OO.Level = verify::MatrixLevel::Quick;
  verify::OracleReport Rep = verify::runOracle(M, OO);
  EXPECT_TRUE(Rep.Pass) << Rep.str();
  EXPECT_EQ(Rep.firstFailure(), "");
}

TEST(Oracle, FullMatrixSweepsDegradationRungs) {
  Module M = verify::generateModule(0);
  auto Cfgs = verify::oracleConfigs(M, verify::MatrixLevel::Full);
  std::set<std::string> Names;
  for (const auto &[Name, O] : Cfgs)
    Names.insert(Name);
  for (const char *Want :
       {"default", "nofuse", "fail_scheduler", "fail_tiling", "fail_sync"})
    EXPECT_TRUE(Names.count(Want)) << Want;
}

// --- Dynamic-shape differential configs ---------------------------------

TEST(Oracle, DynShapeThemeRunsDifferentialConfigs) {
  // The explicit DynShape theme (not in the Auto cycle) must trigger both
  // dynshape oracle configs, and over a handful of seeds at least one
  // module must actually take the bucketed path (empty Detail) rather
  // than all falling back to per-shape compiles.
  verify::GenOptions G;
  G.ThemeSel = verify::Theme::DynShape;
  verify::OracleOptions OO;
  OO.Level = verify::MatrixLevel::Quick;
  unsigned Bucketed = 0;
  for (uint64_t Seed = 0; Seed < 6; ++Seed) {
    Module M = verify::generateModule(Seed, G);
    ASSERT_TRUE(hasDynamicDims(M)) << "seed " << Seed;
    EXPECT_NE(verify::describeModule(Seed, M).find("theme=dynshape"),
              std::string::npos);
    verify::OracleReport Rep = verify::runOracle(M, OO);
    EXPECT_TRUE(Rep.Pass) << "seed " << Seed << "\n" << Rep.str();
    bool SawBucketed = false, SawKill = false;
    for (const verify::ConfigOutcome &O : Rep.Outcomes) {
      if (O.Config == "dynshape_bucketed") {
        SawBucketed = true;
        if (O.Detail.empty())
          ++Bucketed;
      } else if (O.Config == "dynshape_killswitch") {
        SawKill = true;
      }
    }
    EXPECT_TRUE(SawBucketed) << "seed " << Seed;
    EXPECT_TRUE(SawKill) << "seed " << Seed;
  }
  EXPECT_GT(Bucketed, 0u) << "no dynshape seed took the bucketed path";
}

TEST(Oracle, StaticModuleSkipsDynShapeConfigs) {
  Module M = verify::generateModule(0);
  verify::OracleOptions OO;
  OO.Level = verify::MatrixLevel::Quick;
  verify::OracleReport Rep = verify::runOracle(M, OO);
  EXPECT_TRUE(Rep.Pass) << Rep.str();
  for (const verify::ConfigOutcome &O : Rep.Outcomes)
    EXPECT_EQ(O.Config.find("dynshape"), std::string::npos) << O.Config;
}

TEST(Generator, DynShapeThemeIsDeterministicAndBudgeted) {
  verify::GenOptions G;
  G.ThemeSel = verify::Theme::DynShape;
  for (uint64_t Seed : {0ull, 11ull, 42ull}) {
    Module A = verify::generateModule(Seed, G);
    Module B = verify::generateModule(Seed, G);
    EXPECT_EQ(emitModuleBuilder(A), emitModuleBuilder(B)) << "seed " << Seed;
    for (const Tensor &T : A.allTensors())
      EXPECT_LE(T->numElements(), G.MaxTensorElems) << T->Name;
    EXPECT_EQ(checkModuleBounds(A), "") << verify::describeModule(Seed, A);
  }
}

// --- The injected-bug end-to-end test -----------------------------------

/// Deliberate miscompile: drop the last compute instruction carrying a
/// functional payload from the kernel, but only in the "default" config so
/// the differential matrix disagrees. The consumer's output buffer is
/// never produced, which the oracle must flag as a mismatch.
void dropLastCompute(const ir::Module &, const std::string &Config,
                     cce::Kernel &K) {
  if (Config != "default")
    return;
  for (auto It = K.Body.rbegin(); It != K.Body.rend(); ++It) {
    if ((*It)->Sem) {
      K.Body.erase(std::next(It).base());
      return;
    }
  }
}

TEST(InjectedBug, OracleFlagsAndReducerShrinks) {
  // A multi-op module so the reducer has real work to do.
  verify::GenOptions G;
  G.MinOps = 4;
  Module M = verify::generateModule(5, G); // chain1d: a long op chain
  ASSERT_GE(M.ops().size(), 3u);

  verify::OracleOptions OO;
  OO.Level = verify::MatrixLevel::Quick;
  OO.MutateKernel = dropLastCompute;

  verify::OracleReport Rep = verify::runOracle(M, OO);
  ASSERT_FALSE(Rep.Pass) << "oracle must flag the injected miscompile";
  EXPECT_NE(Rep.firstFailure().find("default"), std::string::npos)
      << Rep.firstFailure();

  // Sanity: without the mutation the module is clean.
  verify::OracleOptions Clean = OO;
  Clean.MutateKernel = nullptr;
  EXPECT_TRUE(verify::runOracle(M, Clean).Pass);

  verify::ReduceResult Red = verify::reduceModule(
      M, [&](const Module &Cand) { return !verify::runOracle(Cand, OO).Pass; });
  EXPECT_LE(Red.Reduced.ops().size(), 3u)
      << "reducer left " << Red.Reduced.ops().size() << " ops:\n"
      << Red.CppTestCase;
  EXPECT_GT(Red.MutationsKept, 0u);
  // The fixpoint still fails and still emits a usable repro.
  EXPECT_FALSE(verify::runOracle(Red.Reduced, OO).Pass);
  EXPECT_NE(Red.CppTestCase.find("M.compute("), std::string::npos);
  std::string Line = verify::corpusLine(5, "injected");
  EXPECT_EQ(Line, "5 # injected");
}

// --- Simulator truncation guard -----------------------------------------

TEST(SimTruncation, TinyBudgetSetsTruncatedWithoutCrashing) {
  Module M = verify::generateModule(0);
  CompileResult R = compileWithAkg(M, AkgOptions{}, "trunc");
  BufferMap Bufs = sim::makeModuleInputs(M);
  sim::SimOptions SO;
  SO.Functional = true;
  SO.MaxDynamicInstrs = 3; // far below any real kernel
  sim::SimResult SR =
      sim::simulate(R.Kernel, sim::MachineSpec::ascend910(), &Bufs, SO);
  EXPECT_TRUE(SR.Truncated);
  EXPECT_GT(SR.Cycles, 0) << "Cycles stays a lower bound, not garbage";

  // The comparison plumbing must surface truncation as a failure, not as
  // a spurious "matches within tolerance".
  sim::SimResult SR2;
  // (diffKernelAgainstReference runs with the default instruction budget;
  // truncation cannot trigger there for these tiny modules.)
  sim::FunctionalDiff D = sim::diffKernelAgainstReference(
      R.Kernel, M, sim::MachineSpec::ascend910(), 1, &SR2);
  EXPECT_FALSE(SR2.Truncated);
  EXPECT_TRUE(D.within(2e-2)) << D.str();
}

// --- Fuzz regressions ---------------------------------------------------

TEST(FuzzRepro, Seed53InliningSurvivesJsonRoundTrip) {
  // The module akg-fuzz --seed 53 writes. Its JSON round trip has the
  // same cache fingerprint but parses every shared index node apart, so
  // under EnableInlining both must inline alike: the size test counts
  // structurally distinct subtrees, not pointer-distinct nodes.
  ir::Module M;
  ir::Tensor T0 = M.placeholder("in0", {1, 4, 4, 5}, ir::DType::F16);
  ir::Tensor T1 = M.placeholder("in1", {1, 4, 4, 5}, ir::DType::F16);
  M.placeholder("in2", {4, 5}, ir::DType::F16);
  auto At = [](const ir::Tensor &T, const std::vector<ir::Expr> &Ix) {
    return ir::tensorRead(T, {Ix[0], Ix[1], Ix[2], Ix[3]});
  };
  ir::Tensor T3 = M.compute(
      "op1", {1, 4, 4, 5},
      [&](const std::vector<ir::Expr> &Ix) {
        return ir::maxE(At(T1, Ix), At(T0, Ix));
      },
      ir::DType::F16);
  ir::Tensor T4 = M.compute(
      "op2", {1, 4, 4, 5},
      [&](const std::vector<ir::Expr> &Ix) {
        return ir::select(
            ir::cmp(ir::ExprKind::CmpLT, At(T3, Ix), ir::floatImm(0.0)),
            ir::mul(At(T3, Ix), ir::floatImm(0.5)), At(T3, Ix));
      },
      ir::DType::F16);
  M.compute(
      "op3", {1, 4, 4, 5},
      [&](const std::vector<ir::Expr> &Ix) {
        return ir::call("tanh", {At(T4, Ix)}, ir::DType::F16);
      },
      ir::DType::F16);

  composite::FrontendResult F =
      composite::loadComposite(composite::moduleToCompositeJson(M, "rt"));
  ASSERT_TRUE(F.ok()) << F.Outcome.str();
  EXPECT_EQ(ir::inlineElementwiseOps(M).ops().size(),
            ir::inlineElementwiseOps(*F.Mod).ops().size());

  verify::OracleReport Rep = verify::runOracle(M);
  EXPECT_TRUE(Rep.Pass) << Rep.str();
}

TEST(FuzzRepro, Seed92NestedMinMaxBoundsSimplifyInLinearTime) {
  // An 11x6 matmul with a bias and a halo read. Under the oracle's tile4
  // config its loop bounds are 6-deep max/min chains of min(3 + 4*c0, 8)
  // terms. simplifyExpr must not simplify again the operands of a node it
  // builds from already-simplified parts (a Sub distributed over min/max,
  // a min/max difference probe): that is exponential in the chain depth.
  verify::OracleReport Rep = verify::runOracle(verify::generateModule(92));
  EXPECT_TRUE(Rep.Pass) << Rep.str();
}

} // namespace
