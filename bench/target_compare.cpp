//===- bench/target_compare.cpp - CCE vs SIMT target comparison -----------===//
//
// Compiles the Fig 9 operator set for both simulated targets through one
// CompileService sharing a single content-addressed KernelCache, then
// reports per-family cycles on each target's own machine model
// (ascend910 for CCE, sm80 for SIMT). The point is not that the two
// cycle counts are comparable in absolute terms - they model different
// machines - but that the target abstraction holds up under load:
//
//   * both targets compile the whole op set through the shared frontend;
//   * the warm pass must be 100% cache hits with zero cross-target
//     aliasing (a simt request may never be served a cce kernel - the
//     cache key mixes the resolved target);
//   * every SIMT kernel's functional result matches the reference
//     evaluator (spot-checked on one shape per family to bound runtime).
//
// Results land in BENCH_target_compare.json: per-family cce_cycles /
// simt_cycles gate exactly in bench_diff.py; hit rates and
// aliasing/mismatch counters gate structurally (they are 0/1-exact).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "graph/Ops.h"
#include "sim/SimtRun.h"
#include "target/CceIr.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace akg;
using namespace akg::bench;
using namespace akg::graph;

namespace {

struct OpFamily {
  const char *Name;
  std::vector<ModulePtr> Shapes;
};

/// The Fig 9 op set, four shapes per family (the full ten-shape sweep
/// lives in fig09_single_ops; this bench pays for every module twice).
std::vector<OpFamily> buildFamilies() {
  std::vector<OpFamily> F;
  {
    OpFamily C{"op1_conv", {}};
    int64_t Cfg[4][5] = {{16, 14, 14, 32, 3},
                         {32, 14, 14, 32, 3},
                         {64, 14, 14, 64, 1},
                         {16, 28, 28, 16, 5}};
    for (auto &S : Cfg)
      C.Shapes.push_back(
          makeConv(16, S[0], S[1], S[2], S[3], S[4], S[4], 1, S[4] / 2));
    F.push_back(std::move(C));
  }
  {
    OpFamily C{"op2_matmul", {}};
    int64_t Cfg[4][3] = {
        {128, 128, 128}, {256, 256, 256}, {512, 512, 512}, {256, 512, 128}};
    for (auto &S : Cfg)
      C.Shapes.push_back(makeMatmul(S[0], S[1], S[2]));
    F.push_back(std::move(C));
  }
  {
    OpFamily C{"op3_relu", {}};
    for (int I = 0; I < 4; ++I)
      C.Shapes.push_back(makeRelu({16, 32 + 16 * I, 28, 28}));
    F.push_back(std::move(C));
  }
  {
    OpFamily C{"op4_bmm", {}};
    int64_t Cfg[4][3] = {
        {64, 64, 64}, {64, 64, 128}, {128, 64, 64}, {96, 96, 96}};
    for (auto &S : Cfg)
      C.Shapes.push_back(makeBatchMatmul(16, S[0], S[1], S[2]));
    F.push_back(std::move(C));
  }
  {
    OpFamily C{"op5_cast", {}};
    for (int I = 0; I < 4; ++I)
      C.Shapes.push_back(makeCast({16, 64, 14 + 2 * I, 14 + 2 * I}));
    F.push_back(std::move(C));
  }
  {
    OpFamily C{"op6_transpose", {}};
    for (int I = 0; I < 4; ++I)
      C.Shapes.push_back(makeTranspose(256 + 128 * I, 512));
    F.push_back(std::move(C));
  }
  {
    OpFamily C{"op7_onehot", {}};
    for (int I = 0; I < 4; ++I)
      C.Shapes.push_back(makeOneHot(16 * (I + 1) * 8, 128 + 64 * I));
    F.push_back(std::move(C));
  }
  {
    OpFamily C{"op8_add", {}};
    for (int I = 0; I < 4; ++I)
      C.Shapes.push_back(makeTensorAdd({16, 48 + 24 * I, 24, 24}));
    F.push_back(std::move(C));
  }
  {
    OpFamily C{"op9_bn_reduce", {}};
    for (int I = 0; I < 4; ++I)
      C.Shapes.push_back(makeBnReduce(16, 32 + 16 * I, 14, 14));
    F.push_back(std::move(C));
  }
  {
    OpFamily C{"op10_bn_update", {}};
    for (int I = 0; I < 4; ++I)
      C.Shapes.push_back(makeBnUpdate(16, 32 + 16 * I, 14, 14));
    F.push_back(std::move(C));
  }
  return F;
}

int64_t simtCycles(const cce::Kernel &K, sim::SimtResult *Out = nullptr) {
  sim::SimOptions SO;
  SO.Functional = false;
  sim::SimtResult R = sim::simulateSimt(K, sim::SimtSpec::sm80(), nullptr, SO);
  if (Out)
    *Out = R;
  return R.Cycles;
}

} // namespace

int main() {
  const Environment Env = readEnvironment();
  Env.installDiagnostics();
  printHeader("Target comparison: Fig 9 op set on the CCE (ascend910) and "
              "SIMT (sm80) backends, one shared kernel cache");
  std::printf("%-16s %12s %12s %8s %8s %9s\n", "operator", "cce cycles",
              "simt cycles", "blocks", "waves", "barriers");

  std::vector<OpFamily> Families = buildFamilies();
  KernelCache Cache(Env.Cache);
  CompileService::Options SO = Env.Service;
  SO.Cache = &Cache;
  CompileService Svc(SO);

  AkgOptions CceOpts;
  CceOpts.Target = sim::TargetKind::Cce;
  AkgOptions SimtOpts;
  SimtOpts.Target = sim::TargetKind::Simt;

  // Interleaved request stream: every module once per target, the way a
  // serving stack with mixed fleets would present it.
  std::vector<CompileJob> Jobs;
  for (const OpFamily &Fam : Families)
    for (const ModulePtr &M : Fam.Shapes) {
      Jobs.push_back(CompileJob{M.get(), CceOpts, Fam.Name});
      Jobs.push_back(CompileJob{M.get(), SimtOpts, Fam.Name});
    }

  std::vector<CompileResult> Cold;
  double ColdSecs = wallSeconds([&] { Cold = Svc.compileAll(Jobs); });
  KernelCacheStats ColdStats = Cache.stats();

  std::vector<CompileResult> Warm;
  double WarmSecs = wallSeconds([&] { Warm = Svc.compileAll(Jobs); });
  KernelCacheStats WarmStats = Cache.stats();

  // Audit: request i of the warm pass must be a cache hit serving the
  // SAME target the request asked for, byte-identical to the cold pass.
  int64_t Aliased = 0, Unstable = 0, Failed = 0;
  for (size_t I = 0; I < Jobs.size(); ++I) {
    if (!Cold[I].Outcome.isOk() || !Warm[I].Outcome.isOk()) {
      ++Failed;
      continue;
    }
    if (Cold[I].Kernel.Target != Jobs[I].Opts.Target ||
        Warm[I].Kernel.Target != Jobs[I].Opts.Target)
      ++Aliased;
    if (cce::printKernel(Cold[I].Kernel) != cce::printKernel(Warm[I].Kernel))
      ++Unstable;
  }
  int64_t WarmHits =
      (WarmStats.Hits + WarmStats.Coalesced) - (ColdStats.Hits + ColdStats.Coalesced);

  // Per-family cycle totals on each target's own machine, plus a
  // one-shape-per-family functional spot check of the SIMT kernels.
  BenchJson J("target_compare");
  size_t Idx = 0;
  int64_t SimtMismatches = 0;
  for (const OpFamily &Fam : Families) {
    int64_t CceCyc = 0, SimtCyc = 0, Blocks = 0, Waves = 0, Barriers = 0;
    for (size_t S = 0; S < Fam.Shapes.size(); ++S) {
      const CompileResult &RC = Cold[Idx++];
      const CompileResult &RS = Cold[Idx++];
      CceCyc += simCycles(RC.Kernel);
      sim::SimtResult SR;
      SimtCyc += simtCycles(RS.Kernel, &SR);
      Blocks += SR.Blocks;
      Waves += SR.Waves;
      Barriers += SR.Barriers;
      if (S == 0) {
        sim::FunctionalDiff D = sim::diffSimtAgainstReference(
            RS.Kernel, *Fam.Shapes[S], sim::SimtSpec::sm80());
        if (!D.within(2e-2))
          ++SimtMismatches;
      }
    }
    std::printf("%-16s %12lld %12lld %8lld %8lld %9lld\n", Fam.Name,
                (long long)CceCyc, (long long)SimtCyc, (long long)Blocks,
                (long long)Waves, (long long)Barriers);
    J.record(Fam.Name)
        .num("cce_cycles", double(CceCyc))
        .num("simt_cycles", double(SimtCyc))
        .num("simt_blocks", double(Blocks))
        .num("simt_waves", double(Waves))
        .num("simt_barriers", double(Barriers));
  }

  std::printf("\ncold %.2fs (%lld misses), warm %.2fs (%lld/%zu hits); "
              "cross-target aliases %lld, warm mismatches %lld, "
              "simt functional mismatches %lld, failures %lld\n",
              ColdSecs, (long long)ColdStats.Misses, WarmSecs,
              (long long)WarmHits, Jobs.size(), (long long)Aliased,
              (long long)Unstable, (long long)SimtMismatches,
              (long long)Failed);

  J.total("compile_wall_seconds", ColdSecs);
  J.total("warm_wall_seconds", WarmSecs);
  J.total("warm_hit_rate",
          Jobs.empty() ? 0.0 : double(WarmHits) / double(Jobs.size()));
  // Exact-zero correctness gates (bench_diff flags any cycle-key drift;
  // these are structural and must stay 0 / 1).
  J.total("cross_target_aliases", double(Aliased));
  J.total("warm_kernel_mismatches", double(Unstable));
  J.total("simt_functional_mismatches", double(SimtMismatches));
  J.total("request_failures", double(Failed));
  J.total("determinism_ok",
          (Aliased == 0 && Unstable == 0 && SimtMismatches == 0 && Failed == 0)
              ? 1.0
              : 0.0);
  J.write();
  return (Aliased || Unstable || SimtMismatches || Failed) ? 1 : 0;
}
