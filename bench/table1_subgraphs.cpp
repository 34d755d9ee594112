//===- bench/table1_subgraphs.cpp - Table 1: subgraph summary -------------===//
//
// Reproduces Table 1: the five fused subgraphs used in Sec 6.2 with their
// operator counts, precision, batch size and input/output shapes.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "graph/Ops.h"

using namespace akg;
using namespace akg::bench;
using namespace akg::graph;

namespace {

std::string shapeOf(const ir::Tensor &T) {
  std::string S = "(";
  for (unsigned I = 0; I < T->Shape.size(); ++I)
    S += (I ? "," : "") + std::to_string(T->Shape[I]);
  return S + ")";
}

} // namespace

int main() {
  readEnvironment().installDiagnostics();
  printHeader("Table 1: summary of the subgraphs");
  std::printf("%-4s %-8s %-10s %-11s %-18s %-18s\n", "no.", "# of ops",
              "precision", "batch size", "input shape", "output shape");
  ModulePtr Subs[5] = {makeSubgraph1(), makeSubgraph2(), makeSubgraph3(),
                       makeSubgraph4(), makeSubgraph5()};
  const char *Prec[5] = {"FP16", "FP16", "FP32", "FP32", "FP16"};
  BenchJson J("table1_subgraphs");
  for (int I = 0; I < 5; ++I) {
    const ir::Module &M = *Subs[I];
    J.record("subgraph" + std::to_string(I + 1))
        .num("ops", double(opCount(M)))
        .num("batch", 16)
        .str("precision", Prec[I])
        .str("input_shape", shapeOf(M.inputs().front()))
        .str("output_shape", shapeOf(M.outputs().front()));
    std::printf("%-4d %-8u %-10s %-11d %-18s %-18s\n", I + 1, opCount(M),
                Prec[I], 16, shapeOf(M.inputs().front()).c_str(),
                shapeOf(M.outputs().front()).c_str());
  }
  J.write();
  return 0;
}
