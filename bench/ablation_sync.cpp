//===- bench/ablation_sync.cpp - Ablation: synchronization grouping -------===//
//
// Design-choice ablation (Sec 5.2 / Fig 11 discussion): the DP-grouped
// flags versus the empirical per-producer clustering versus full
// serialization, on the same AKG-scheduled kernels. The flag counts and
// stall cycles quantify why the grouping policy matters.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "graph/Ops.h"

using namespace akg;
using namespace akg::bench;
using namespace akg::graph;

int main() {
  readEnvironment().installDiagnostics();
  printHeader("Ablation: DAE synchronization strategies on AKG kernels");
  ModulePtr Cases[] = {makeMatmul(1024, 1024, 1024), makeSubgraph1(2),
                       makeTensorAdd({16, 256, 28, 28})};
  const char *Names[] = {"gemm1024", "subgraph1", "tensor_add"};
  std::printf("%-12s %-12s %14s %10s %14s\n", "case", "strategy", "cycles",
              "flags", "stall cyc");
  for (int I = 0; I < 3; ++I) {
    for (auto [Strat, SName] :
         {std::pair{cce::SyncStrategy::AkgDp, "DP (AKG)"},
          std::pair{cce::SyncStrategy::TvmEmpirical, "empirical"},
          std::pair{cce::SyncStrategy::FullSerial, "serial"}}) {
      AkgOptions O;
      O.Sync = Strat;
      CompileResult R = compileWithAkg(*Cases[I], O, Names[I]);
      sim::SimResult S = simFull(R.Kernel);
      std::printf("%-12s %-12s %14lld %10lld %14lld\n", Names[I], SName,
                  (long long)S.Cycles, (long long)S.FlagPairs,
                  (long long)S.SyncStallCycles);
    }
  }
  return 0;
}
