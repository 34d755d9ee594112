//===- bench/ablation_tuner.cpp - Ablation: Auto Tiling vs auto-tuner -----===//
//
// Sec 5.3: the learning-based auto-tuner usually finds a better tiling
// than Auto Tiling's data-movement-minimizing analytical choice. This
// ablation measures both on representative operators.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "graph/Ops.h"

using namespace akg;
using namespace akg::bench;
using namespace akg::graph;

int main() {
  readEnvironment().installDiagnostics();
  printHeader("Ablation: Auto Tiling (Sec 4.2) vs the learning-based "
              "auto-tuner (Sec 5.3)");
  ModulePtr Cases[] = {makeMatmul(768, 768, 768),
                       makeTensorAdd({16, 128, 28, 28}),
                       makeBnUpdate(16, 64, 14, 14)};
  const char *Names[] = {"gemm768", "tensor_add", "bn_update"};
  std::printf("%-12s %16s %16s %9s %9s\n", "case", "AutoTiling cyc",
              "tuned cyc", "gain", "samples");
  for (int I = 0; I < 3; ++I) {
    TunerOptions TO;
    TO.FirstRoundSamples = 12;
    TO.RoundSamples = 8;
    TO.MaxRounds = 2;
    TuneResult R = tuneAkgKernel(*Cases[I], AkgOptions{}, machine(), TO);
    std::printf("%-12s %16lld %16lld %8.2f%% %9u\n", Names[I],
                (long long)R.InitialCycles, (long long)R.BestCycles,
                (double(R.InitialCycles) / double(R.BestCycles) - 1.0) *
                    100.0,
                R.SamplesMeasured);
  }
  return 0;
}
