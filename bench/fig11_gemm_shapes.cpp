//===- bench/fig11_gemm_shapes.cpp - Fig 11: GEMM shape sweep -------------===//
//
// Reproduces Fig 11: execution cycles of the GEMM product under 41 shape
// configurations from (64,64) to (4608,4608), AKG vs the TVM baseline
// (lower is better). The paper reports AKG ahead on 29 of 41 shapes, with
// the difference attributed to the DAE synchronization grouping.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "graph/Ops.h"

using namespace akg;
using namespace akg::bench;
using namespace akg::graph;

int main() {
  readEnvironment().installDiagnostics();
  printHeader("Fig 11: GEMM cycles across 41 shapes, AKG vs TVM "
              "(lower is better)");
  std::printf("%-8s %14s %14s %8s\n", "size", "AKG cycles", "TVM cycles",
              "winner");
  BenchJson J("fig11_gemm_shapes");
  unsigned AkgWins = 0, Total = 0;
  int64_t Lo = 64, Hi = 4608;
  double TotalSeconds = wallSeconds([&] {
    for (int I = 0; I < 41; ++I) {
      int64_t S = Lo + (Hi - Lo) * I / 40;
      S = (S + 15) / 16 * 16; // fractal-aligned sizes
      ModulePtr M = makeMatmul(S, S, S);
      int64_t A = cyclesAkg(*M, "gemm");
      int64_t T = cyclesTvmTuned(*M, "gemm", nullptr, 6);
      ++Total;
      if (A <= T)
        ++AkgWins;
      J.record("gemm_" + std::to_string(S))
          .num("akg_cycles", double(A))
          .num("tvm_cycles", double(T))
          .str("winner", A <= T ? "AKG" : "TVM");
      std::printf("%-8lld %14lld %14lld %8s\n", (long long)S, (long long)A,
                  (long long)T, A <= T ? "AKG" : "TVM");
    }
  });
  std::printf("\nAKG faster on %u / %u shapes "
              "(paper: 29 / 41).\n",
              AkgWins, Total);
  J.total("akg_wins", double(AkgWins));
  J.total("shapes", double(Total));
  J.total("compile_wall_seconds", TotalSeconds);
  J.write();
  return 0;
}
