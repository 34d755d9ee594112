//===- bench/BenchCommon.h - Shared benchmark harness -----------*- C++ -*-===//
//
// Helpers shared by the per-figure benchmark binaries: compile a module
// with each of the four evaluated code paths (AKG, vendor-adapted TVM,
// hand-optimized CCE library, naive CCE) and measure cycles on the
// simulator in performance mode.
//
//===----------------------------------------------------------------------===//

#ifndef AKG_BENCH_BENCHCOMMON_H
#define AKG_BENCH_BENCHCOMMON_H

#include "akg/AutoTuner.h"
#include "akg/Environment.h"
#include "baselines/CceLibrary.h"
#include "baselines/TvmCompiler.h"
#include "sim/Simulator.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace akg {
namespace bench {

inline const sim::MachineSpec &machine() {
  return sim::MachineSpec::ascend910();
}

inline int64_t simCycles(const cce::Kernel &K) {
  sim::SimOptions SO;
  SO.Functional = false;
  return sim::simulate(K, machine(), nullptr, SO).Cycles;
}

inline sim::SimResult simFull(const cce::Kernel &K) {
  sim::SimOptions SO;
  SO.Functional = false;
  return sim::simulate(K, machine(), nullptr, SO);
}

/// AKG: the full pipeline with Auto Tiling (Sec 4.2) selecting tiles.
inline int64_t cyclesAkg(const ir::Module &M, const char *Name,
                         CompileResult *Out = nullptr) {
  CompileResult R = compileWithAkg(M, AkgOptions{}, Name);
  int64_t C = simCycles(R.Kernel);
  if (Out)
    *Out = std::move(R);
  return C;
}

/// AKG with its learning-based auto-tuner (Sec 5.3) refining Auto
/// Tiling's choice - the full Fig 2 pipeline.
inline int64_t cyclesAkgTuned(const ir::Module &M, const char *Name,
                              CompileResult *Out = nullptr,
                              unsigned Budget = 8) {
  TunerOptions TO;
  TO.FirstRoundSamples = Budget;
  TO.RoundSamples = Budget / 2;
  TO.MaxRounds = 2;
  TuneResult TR = tuneAkgKernel(M, AkgOptions{}, machine(), TO);
  if (Out) {
    ir::PolyProgram P = ir::extractPolyProgram(M);
    AkgOptions O;
    transforms::TilingPolicy Pol;
    transforms::StmtTileSpec Spec;
    for (int64_t T : TR.BestTiles)
      Spec.Entries.push_back(transforms::TileSpecEntry{T, "UB"});
    Pol.PerStmt[P.Stmts.back().Id] = Spec;
    O.ManualTiles = Pol;
    *Out = compileWithAkg(M, O, Name);
  }
  return TR.BestCycles;
}

/// Vendor TVM: manual schedule templates, expert default tiles, empirical
/// sync grouping.
inline int64_t cyclesTvm(const ir::Module &M, const char *Name,
                         CompileResult *Out = nullptr) {
  baselines::TvmOptions O;
  CompileResult R = baselines::compileWithTvm(M, O, Name);
  int64_t C = simCycles(R.Kernel);
  if (Out)
    *Out = std::move(R);
  return C;
}

/// Vendor TVM with its auto-tuner: the paper's manual templates are
/// "fully tuned by its auto-tuner" (Sec 6); the tuner searches the same
/// valid-tile space as AKG's.
inline int64_t cyclesTvmTuned(const ir::Module &M, const char *Name,
                              CompileResult *Out = nullptr,
                              unsigned Budget = 10) {
  ir::PolyProgram P = ir::extractPolyProgram(M);
  unsigned LiveId = P.Stmts.back().Id;
  const ir::PolyStmt &Live = P.Stmts[LiveId];
  unsigned W = static_cast<unsigned>(Live.Op->Axis.size());
  std::vector<std::vector<int64_t>> Space(W);
  for (unsigned D = 0; D < W; ++D) {
    int64_t Ext = Live.Op->Axis[D].Extent;
    for (int64_t S = 1; S < Ext; S *= 2)
      Space[D].push_back(S);
    Space[D].push_back(Ext);
  }
  std::vector<int64_t> Start = baselines::tvmExpertDefaultTiles(M);
  Start.resize(W, 1);
  MeasureFn Measure = [&](const std::vector<int64_t> &Tiles) -> int64_t {
    baselines::TvmOptions O;
    O.ManualTiles = Tiles;
    CompileResult R = baselines::compileWithTvm(M, O, Name);
    return simCycles(R.Kernel);
  };
  TunerOptions TO;
  TO.FirstRoundSamples = Budget;
  TO.RoundSamples = Budget / 2;
  TO.MaxRounds = 2;
  TuneResult TR = tuneTiles(Space, Start, Measure, TO);
  if (Out) {
    baselines::TvmOptions O;
    O.ManualTiles = TR.BestTiles;
    *Out = baselines::compileWithTvm(M, O, Name);
  }
  return TR.BestCycles;
}

/// CCE opt: one hand-tuned library kernel per operator, composed through
/// global memory.
inline int64_t cyclesCceOpt(const ir::Module &M, const char *Name) {
  baselines::LibrarySequence Seq =
      baselines::buildCceOptLibrary(M, machine(), Name);
  return baselines::simulateSequence(Seq, machine()).Cycles;
}

/// CCE naive: scalar, serialized reference.
inline int64_t cyclesCceNaive(const ir::Module &M, const char *Name) {
  CompileResult R = baselines::buildCceNaive(M, Name);
  return simCycles(R.Kernel);
}

inline double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double S = 0;
  for (double X : V)
    S += std::log(X);
  return std::exp(S / double(V.size()));
}

inline void printHeader(const char *Title) {
  std::printf("==============================================================="
              "=\n%s\n"
              "==============================================================="
              "=\n",
              Title);
}

/// Wall-clock seconds of \p Fn (steady clock).
template <typename Fn> inline double wallSeconds(Fn &&F) {
  auto T0 = std::chrono::steady_clock::now();
  F();
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(T1 - T0).count();
}

/// --- Machine-readable benchmark output ------------------------------------
/// Every bench binary emits a BENCH_<figure>.json next to its stdout table
/// so the perf trajectory (cycles per code path, compile wall-time, cache
/// hit rates) is tracked across PRs:
///   {"figure": "...", "totals": {...}, "records": [{"op": "...", ...}]}
class BenchJson {
public:
  explicit BenchJson(std::string Figure) : Figure(std::move(Figure)) {}

  struct Rec {
    std::string Op;
    std::vector<std::pair<std::string, double>> Nums;
    std::vector<std::pair<std::string, std::string>> Strs;

    Rec &num(const std::string &K, double V) {
      Nums.emplace_back(K, V);
      return *this;
    }
    Rec &str(const std::string &K, const std::string &V) {
      Strs.emplace_back(K, V);
      return *this;
    }
  };

  Rec &record(const std::string &Op) {
    Records.push_back(Rec{Op, {}, {}});
    return Records.back();
  }
  void total(const std::string &K, double V) { Totals.emplace_back(K, V); }

  /// Writes BENCH_<figure>.json into the working directory.
  void write() const {
    std::string Path = "BENCH_" + Figure + ".json";
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "cannot write %s\n", Path.c_str());
      return;
    }
    std::string Out = "{\n  \"figure\": \"" + escape(Figure) + "\",\n";
    Out += "  \"totals\": {";
    for (size_t I = 0; I < Totals.size(); ++I)
      Out += (I ? ", " : "") + quoted(Totals[I].first) + ": " +
             numText(Totals[I].second);
    Out += "},\n  \"records\": [\n";
    for (size_t I = 0; I < Records.size(); ++I) {
      const Rec &R = Records[I];
      Out += "    {\"op\": " + quoted(R.Op);
      for (const auto &[K, V] : R.Nums)
        Out += ", " + quoted(K) + ": " + numText(V);
      for (const auto &[K, V] : R.Strs)
        Out += ", " + quoted(K) + ": " + quoted(V);
      Out += I + 1 < Records.size() ? "},\n" : "}\n";
    }
    Out += "  ]\n}\n";
    std::fwrite(Out.data(), 1, Out.size(), F);
    std::fclose(F);
    std::printf("\nwrote %s\n", Path.c_str());
  }

private:
  static std::string escape(const std::string &S) {
    std::string E;
    for (char C : S) {
      if (C == '"' || C == '\\')
        E += '\\';
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof Buf, "\\u%04x", C);
        E += Buf;
        continue;
      }
      E += C;
    }
    return E;
  }
  static std::string quoted(const std::string &S) {
    return "\"" + escape(S) + "\"";
  }
  static std::string numText(double V) {
    char Buf[40];
    if (V == std::floor(V) && std::fabs(V) < 9e15)
      std::snprintf(Buf, sizeof Buf, "%lld", static_cast<long long>(V));
    else
      std::snprintf(Buf, sizeof Buf, "%.6g", V);
    return Buf;
  }

  std::string Figure;
  std::vector<std::pair<std::string, double>> Totals;
  std::vector<Rec> Records;
};

} // namespace bench
} // namespace akg

#endif // AKG_BENCH_BENCHCOMMON_H
