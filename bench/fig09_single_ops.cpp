//===- bench/fig09_single_ops.cpp - Fig 9: single operators ---------------===//
//
// Reproduces Fig 9: for the ten single operators commonly used in DNNs,
// with ten shape configurations each (batch 16), measure execution cycles
// of the four code paths and report the per-operator geometric-mean
// speedup normalized to AKG (higher is better; AKG = 1.0).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "akg/KernelCache.h"
#include "graph/Ops.h"
#include "support/Stats.h"

using namespace akg;
using namespace akg::bench;
using namespace akg::graph;

namespace {

struct OpFamily {
  const char *Name;
  std::vector<ModulePtr> Shapes;
};

std::vector<OpFamily> buildFamilies() {
  std::vector<OpFamily> F;
  // op1: convolution. 10 shape configs, batch 16.
  {
    OpFamily C{"op1_conv", {}};
    int64_t Cfg[10][5] = {{16, 14, 14, 32, 3}, {32, 14, 14, 32, 3},
                          {32, 28, 28, 32, 3}, {64, 14, 14, 64, 1},
                          {64, 14, 14, 64, 3}, {32, 28, 28, 64, 1},
                          {16, 28, 28, 16, 5}, {64, 7, 7, 128, 3},
                          {128, 7, 7, 128, 1}, {32, 14, 14, 96, 3}};
    for (auto &S : Cfg)
      C.Shapes.push_back(
          makeConv(16, S[0], S[1], S[2], S[3], S[4], S[4], 1, S[4] / 2));
    F.push_back(std::move(C));
  }
  // op2: matmul.
  {
    OpFamily C{"op2_matmul", {}};
    int64_t Cfg[10][3] = {{128, 128, 128},  {256, 256, 256},
                          {512, 512, 512},  {256, 512, 128},
                          {512, 256, 1024}, {1024, 1024, 256},
                          {768, 768, 768},  {384, 1536, 384},
                          {1024, 256, 512}, {640, 640, 640}};
    for (auto &S : Cfg)
      C.Shapes.push_back(makeMatmul(S[0], S[1], S[2]));
    F.push_back(std::move(C));
  }
  // op3: relu.
  {
    OpFamily C{"op3_relu", {}};
    for (int I = 0; I < 10; ++I)
      C.Shapes.push_back(makeRelu({16, 32 + 16 * I, 28, 28}));
    F.push_back(std::move(C));
  }
  // op4: batched matmul.
  {
    OpFamily C{"op4_bmm", {}};
    int64_t Cfg[10][3] = {{64, 64, 64},   {64, 64, 128},  {128, 64, 64},
                          {64, 128, 128}, {128, 128, 128}, {96, 96, 96},
                          {64, 192, 64},  {192, 64, 64},  {128, 96, 64},
                          {96, 128, 96}};
    for (auto &S : Cfg)
      C.Shapes.push_back(makeBatchMatmul(16, S[0], S[1], S[2]));
    F.push_back(std::move(C));
  }
  // op5: cast.
  {
    OpFamily C{"op5_cast", {}};
    for (int I = 0; I < 10; ++I)
      C.Shapes.push_back(makeCast({16, 64, 14 + 2 * I, 14 + 2 * I}));
    F.push_back(std::move(C));
  }
  // op6: transpose.
  {
    OpFamily C{"op6_transpose", {}};
    for (int I = 0; I < 10; ++I)
      C.Shapes.push_back(makeTranspose(256 + 128 * I, 512));
    F.push_back(std::move(C));
  }
  // op7: one-hot.
  {
    OpFamily C{"op7_onehot", {}};
    for (int I = 0; I < 10; ++I)
      C.Shapes.push_back(makeOneHot(16 * (I + 1) * 8, 128 + 64 * I));
    F.push_back(std::move(C));
  }
  // op8: tensor add.
  {
    OpFamily C{"op8_add", {}};
    for (int I = 0; I < 10; ++I)
      C.Shapes.push_back(makeTensorAdd({16, 48 + 24 * I, 24, 24}));
    F.push_back(std::move(C));
  }
  // op9 / op10: BatchNorm training reduction and update.
  {
    OpFamily C{"op9_bn_reduce", {}};
    for (int I = 0; I < 10; ++I)
      C.Shapes.push_back(makeBnReduce(16, 32 + 16 * I, 14, 14));
    F.push_back(std::move(C));
  }
  {
    OpFamily C{"op10_bn_update", {}};
    for (int I = 0; I < 10; ++I)
      C.Shapes.push_back(makeBnUpdate(16, 32 + 16 * I, 14, 14));
    F.push_back(std::move(C));
  }
  return F;
}

} // namespace

int main() {
  readEnvironment().installDiagnostics();
  printHeader("Fig 9: single-operator speedup normalized to AKG "
              "(geomean over 10 shapes each, batch 16; higher is better)");
  std::printf("%-16s %10s %10s %10s %10s\n", "operator", "CCE naive",
              "CCE opt", "TVM", "AKG");
  BenchJson J("fig09_single_ops");
  std::vector<double> AllTvm, AllOpt, AllNaive;
  double TotalSeconds = 0;
  for (const OpFamily &Fam : buildFamilies()) {
    std::vector<double> Naive, Opt, Tvm;
    int64_t CycA = 0, CycT = 0, CycO = 0, CycN = 0;
    double FamSeconds = wallSeconds([&] {
      for (const ModulePtr &M : Fam.Shapes) {
        int64_t A = cyclesAkg(*M, Fam.Name);
        int64_t T = cyclesTvm(*M, Fam.Name);
        int64_t O = cyclesCceOpt(*M, Fam.Name);
        int64_t N = cyclesCceNaive(*M, Fam.Name);
        CycA += A;
        CycT += T;
        CycO += O;
        CycN += N;
        Naive.push_back(double(A) / double(N));
        Opt.push_back(double(A) / double(O));
        Tvm.push_back(double(A) / double(T));
      }
    });
    TotalSeconds += FamSeconds;
    double GN = geomean(Naive), GO = geomean(Opt), GT = geomean(Tvm);
    AllNaive.push_back(GN);
    AllOpt.push_back(GO);
    AllTvm.push_back(GT);
    J.record(Fam.Name)
        .num("akg_cycles", double(CycA))
        .num("tvm_cycles", double(CycT))
        .num("cce_opt_cycles", double(CycO))
        .num("cce_naive_cycles", double(CycN))
        .num("speedup_vs_tvm", 1.0 / GT)
        .num("compile_wall_seconds", FamSeconds);
    std::printf("%-16s %10.3f %10.3f %10.3f %10.3f\n", Fam.Name, GN, GO, GT,
                1.0);
  }
  std::printf("%-16s %10.3f %10.3f %10.3f %10.3f\n", "geomean",
              geomean(AllNaive), geomean(AllOpt), geomean(AllTvm), 1.0);
  std::printf("\nPaper reference shape: CCE opt within ~4%% of AKG, AKG "
              "~1.6x over TVM, CCE opt ~2.8x over naive.\n");
  std::printf("AKG/TVM mean speedup: %.2fx; CCE-opt/naive: %.2fx; "
              "AKG vs CCE opt: %+.1f%%\n",
              1.0 / geomean(AllTvm),
              geomean(AllOpt) / geomean(AllNaive),
              (1.0 / geomean(AllOpt) - 1.0) * 100.0);
  J.total("akg_vs_tvm_geomean", 1.0 / geomean(AllTvm));
  J.total("compile_wall_seconds", TotalSeconds);
  J.total("cache_hit_rate", KernelCache::global().stats().hitRate());
  // Polyhedral-core fast-path counters: nonzero hits here prove the int64
  // simplex / sample cache / prefilter actually fired on this workload.
  for (const char *K : {"lp.int64_fastpath", "lp.rational_fallback",
                        "lp.solves_avoided_sample",
                        "affine.redundant_prefiltered",
                        "pluto.master_dedup", "affine.dup_constraint"})
    J.total(K, double(Stats::get().counter(K)));
  J.write();
  return 0;
}
