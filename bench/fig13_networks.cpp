//===- bench/fig13_networks.cpp - Fig 13: end-to-end networks -------------===//
//
// Reproduces Fig 13: per-training-step cycles of five end-to-end
// workloads (ResNet-50, MobileNet-v2, AlexNet, BERT with two vocabulary
// sizes, SSD) under AKG and the TVM baseline, normalized to AKG (higher
// is better). The hand-optimized CCE library only supports ResNet-50, as
// in the paper. Network totals are the sum over the graph engine's fused
// subgraphs weighted by occurrence count.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "akg/KernelCache.h"
#include "graph/Networks.h"
#include "support/Stats.h"

#include <cstdlib>
#include <functional>

using namespace akg;
using namespace akg::bench;
using namespace akg::graph;

namespace {

int64_t networkCycles(const NetworkModel &N,
                      const std::function<int64_t(
                          const ir::Module &, const char *,
                          CompileResult *)> &Compile) {
  int64_t Total = 0;
  for (const LayerWorkload &L : N.Layers) {
    if (Stats::enabled())
      std::fprintf(stderr, "[fig13] %s / %s\n", N.Name.c_str(),
                   L.Name.c_str());
    Total += Compile(*L.Mod, L.Name.c_str(), nullptr) * L.Count;
  }
  return Total;
}

int64_t networkCyclesCceOpt(const NetworkModel &N) {
  int64_t Total = 0;
  for (const LayerWorkload &L : N.Layers)
    Total += cyclesCceOpt(*L.Mod, L.Name.c_str()) * L.Count;
  return Total;
}

} // namespace

int main() {
  readEnvironment().installDiagnostics();
  printHeader("Fig 13: end-to-end workloads, speedup normalized to AKG "
              "(higher is better; one training step, batch 16)");
  NetworkModel Nets[6] = {buildResNet50(), buildMobileNetV2(),
                          buildAlexNet(), buildBert(21128),
                          buildBert(30522), buildSsd()};
  std::printf("%-14s %14s %14s %10s %10s\n", "network", "AKG cycles",
              "TVM cycles", "TVM", "CCE opt");
  BenchJson J("fig13_networks");
  std::vector<double> TvmR;
  for (NetworkModel &N : Nets) {
    int64_t A = 0, T = 0;
    double Seconds = wallSeconds([&] {
      A = networkCycles(N, [](const ir::Module &M,
                              const char *Nm,
                              CompileResult *O) {
        return cyclesAkgTuned(M, Nm, O, 6);
      });
      T = networkCycles(N, [](const ir::Module &M,
                              const char *Nm,
                              CompileResult *O) {
        return cyclesTvmTuned(M, Nm, O, 6);
      });
    });
    TvmR.push_back(double(A) / double(T));
    BenchJson::Rec &R = J.record(N.Name)
                            .num("akg_cycles", double(A))
                            .num("tvm_cycles", double(T))
                            .num("compile_wall_seconds", Seconds);
    if (N.Name == "ResNet-50") {
      int64_t O = networkCyclesCceOpt(N);
      R.num("cce_opt_cycles", double(O));
      std::printf("%-14s %14lld %14lld %10.3f %10.3f\n", N.Name.c_str(),
                  (long long)A, (long long)T, double(A) / double(T),
                  double(A) / double(O));
    } else {
      std::printf("%-14s %14lld %14lld %10.3f %10s\n", N.Name.c_str(),
                  (long long)A, (long long)T, double(A) / double(T), "n/a");
    }
  }
  std::printf("\nOverall AKG improvement over TVM: %.1f%% "
              "(paper: 20.2%%)\n",
              (1.0 / geomean(TvmR) - 1.0) * 100.0);
  J.total("akg_vs_tvm_improvement_pct", (1.0 / geomean(TvmR) - 1.0) * 100.0);
  J.total("cache_hit_rate", KernelCache::global().stats().hitRate());
  J.write();
  return 0;
}
