//===- bench/fig10_loc.cpp - Fig 10: lines-of-code comparison -------------===//
//
// Reproduces Fig 10: the development effort for three important single
// operators, measured in lines of the artifact each path requires a human
// to write and maintain:
//   * CCE opt - the hand-written kernel itself (we print the tuned CCE
//     kernel our library builder produces; the vendor's real kernels are
//     of the same nature),
//   * TVM     - the compute declaration plus the manual schedule template
//     (declaration + schedule primitives + tile spec),
//   * AKG     - the compute declaration alone (the whole point: everything
//     below it is automatic).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "graph/Ops.h"

#include <sstream>

using namespace akg;
using namespace akg::bench;
using namespace akg::graph;

namespace {

unsigned lineCount(const std::string &S) {
  unsigned N = 0;
  for (char C : S)
    if (C == '\n')
      ++N;
  return N;
}

/// The manual TVM schedule template: compute declaration + the schedule
/// directives a developer writes (split/reorder/cache/tensorize/pragma per
/// tiled axis, plus the tile specification).
unsigned tvmTemplateLines(const ir::Module &M,
                          const CompileResult &TvmResult) {
  unsigned Decl = lineCount(M.str());
  // One split + one reorder + one bind per tiled axis; cache_read/write
  // per tensor; tensorize + double-buffer + sync pragmas.
  unsigned Axes = static_cast<unsigned>(TvmResult.TileSizes.size());
  unsigned Tensors = static_cast<unsigned>(M.inputs().size()) + 1;
  unsigned SchedulePrimitives = Axes * 3 + Tensors * 2 + 6;
  return Decl + SchedulePrimitives + lineCount(TvmResult.TilingPolicyText) +
         1;
}

} // namespace

int main() {
  readEnvironment().installDiagnostics();
  printHeader("Fig 10: lines of code per implementation path "
              "(lower is better)");
  struct Case {
    const char *Name;
    ModulePtr M;
  } Cases[] = {{"conv", makeConv(16, 32, 14, 14, 32, 3, 3, 1, 1)},
               {"matmul", makeMatmul(512, 512, 512)},
               {"tensor_add", makeTensorAdd({16, 64, 28, 28})}};
  std::printf("%-12s %10s %10s %10s\n", "operator", "CCE opt", "TVM", "AKG");
  for (const Case &C : Cases) {
    // CCE opt: the tuned kernel text a library developer maintains.
    baselines::LibrarySequence Seq =
        baselines::buildCceOptLibrary(*C.M, machine(), C.Name);
    unsigned CceLines = 0;
    for (const cce::Kernel &K : Seq.Kernels)
      CceLines += lineCount(cce::printKernel(K));
    // TVM: declaration + manual schedule template.
    CompileResult TvmRes;
    cyclesTvm(*C.M, C.Name, &TvmRes);
    unsigned TvmLines = tvmTemplateLines(*C.M, TvmRes);
    // AKG: the DSL declaration only.
    unsigned AkgLines = lineCount(C.M->str());
    std::printf("%-12s %10u %10u %10u\n", C.Name, CceLines, TvmLines,
                AkgLines);
  }
  std::printf("\nPaper reference shape: vendor kernels cost hundreds of "
              "lines; schedule templates tens; AKG only the declaration.\n");
  return 0;
}
