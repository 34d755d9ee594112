//===- bench/fig12_subgraphs.cpp - Fig 12: fused subgraphs ----------------===//
//
// Reproduces Fig 12: the five Table 1 subgraphs compiled as a single
// fused kernel by AKG and by the TVM baseline, and composed op-by-op from
// the hand-optimized CCE library. Speedups are normalized to AKG (higher
// is better). Paper reference: AKG 1.3x over TVM and 5.6x over the
// composed library on average; TVM 4.4x over the library.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "graph/Ops.h"

using namespace akg;
using namespace akg::bench;
using namespace akg::graph;

int main() {
  readEnvironment().installDiagnostics();
  printHeader("Fig 12: subgraph speedup normalized to AKG "
              "(higher is better)");
  // Scale 2 keeps the larger feature maps tractable on the host simulator
  // without changing the fusion structure (documented in DESIGN.md).
  ModulePtr Subs[5] = {makeSubgraph1(2), makeSubgraph2(2), makeSubgraph3(2),
                       makeSubgraph4(1), makeSubgraph5(1)};
  std::printf("%-12s %12s %12s %12s\n", "subgraph", "CCE opt", "TVM", "AKG");
  BenchJson J("fig12_subgraphs");
  std::vector<double> OptR, TvmR;
  for (int I = 0; I < 5; ++I) {
    std::string Name = "subgraph" + std::to_string(I + 1);
    int64_t A = 0, T = 0, O = 0;
    double Seconds = wallSeconds([&] {
      A = cyclesAkgTuned(*Subs[I], Name.c_str());
      T = cyclesTvmTuned(*Subs[I], Name.c_str(), nullptr, 6);
      O = cyclesCceOpt(*Subs[I], Name.c_str());
    });
    OptR.push_back(double(A) / double(O));
    TvmR.push_back(double(A) / double(T));
    J.record(Name)
        .num("akg_cycles", double(A))
        .num("tvm_cycles", double(T))
        .num("cce_opt_cycles", double(O))
        .num("compile_wall_seconds", Seconds);
    std::printf("%-12s %12.3f %12.3f %12.3f\n", Name.c_str(),
                double(A) / double(O), double(A) / double(T), 1.0);
  }
  std::printf("\nAKG over TVM: %.2fx (paper 1.3x); AKG over CCE opt: %.2fx "
              "(paper 5.6x); TVM over CCE opt: %.2fx (paper 4.4x)\n",
              1.0 / geomean(TvmR), 1.0 / geomean(OptR),
              geomean(TvmR) / geomean(OptR));
  J.total("akg_vs_tvm_geomean", 1.0 / geomean(TvmR));
  J.total("akg_vs_cce_opt_geomean", 1.0 / geomean(OptR));
  J.write();
  return 0;
}
