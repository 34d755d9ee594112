//===- akg/AutoTuner.cpp - Learning-based tile auto-tuner -----------------===//

#include "akg/AutoTuner.h"

#include "sim/Simulator.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>

namespace akg {

namespace {

/// Deterministic xorshift RNG (no global state).
struct Rng {
  uint64_t S;
  explicit Rng(uint32_t Seed) : S(Seed * 2654435761ull + 1) {}
  uint64_t next() {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    return S;
  }
  uint64_t below(uint64_t N) { return N ? next() % N : 0; }
  double unit() { return double(next() % (1ull << 30)) / double(1ull << 30); }
};

/// The learned model: nearest-neighbour regression over log-tile features
/// with a finite-difference "derivative" per dimension, used to pick the
/// forwarding direction of second-round samples.
struct PerfModel {
  struct Sample {
    std::vector<unsigned> Idx; // candidate indices per dim
    int64_t Cycles;
  };
  std::vector<Sample> Samples;

  void add(std::vector<unsigned> Idx, int64_t Cycles) {
    Samples.push_back({std::move(Idx), Cycles});
  }

  /// Direction (-1, 0, +1) per dimension that the measurements suggest
  /// improves performance around \p At.
  std::vector<int> gradientAt(const std::vector<unsigned> &At) const {
    std::vector<int> Dir(At.size(), 0);
    for (unsigned D = 0; D < At.size(); ++D) {
      // Average cycles of samples with larger vs smaller candidate index
      // on this dim.
      double UpSum = 0, DownSum = 0;
      unsigned UpN = 0, DownN = 0;
      for (const Sample &S : Samples) {
        if (S.Idx[D] > At[D]) {
          UpSum += double(S.Cycles);
          ++UpN;
        } else if (S.Idx[D] < At[D]) {
          DownSum += double(S.Cycles);
          ++DownN;
        }
      }
      if (UpN && DownN)
        Dir[D] = (UpSum / UpN < DownSum / DownN) ? 1 : -1;
      else if (UpN)
        Dir[D] = 1;
      else if (DownN)
        Dir[D] = -1;
    }
    return Dir;
  }
};

} // namespace

TuneResult tuneTiles(const std::vector<std::vector<int64_t>> &Space,
                     const std::vector<int64_t> &Start, MeasureFn Measure,
                     const TunerOptions &Opts) {
  TuneResult Res;
  unsigned W = static_cast<unsigned>(Space.size());
  Rng R(Opts.Seed);
  PerfModel Model;
  std::map<std::vector<unsigned>, int64_t> Seen;
  unsigned Threads = std::max(1u, Opts.MeasureThreads);

  auto TilesOf = [&](const std::vector<unsigned> &Idx) {
    std::vector<int64_t> T(W);
    for (unsigned D = 0; D < W; ++D)
      T[D] = Space[D][Idx[D]];
    return T;
  };

  std::vector<unsigned> BestIdx;
  int64_t Best = 0;
  bool HaveBest = false;

  // Measures a batch of distinct, not-yet-seen configurations, fanning
  // across workers, and folds the results in draw order - so the tuning
  // trajectory is identical on 1 thread and on N.
  auto MeasureBatch = [&](const std::vector<std::vector<unsigned>> &Batch) {
    std::vector<int64_t> Cycles(Batch.size());
    parallelFor(Threads, Batch.size(),
                [&](size_t I) { Cycles[I] = Measure(TilesOf(Batch[I])); });
    for (size_t I = 0; I < Batch.size(); ++I) {
      Seen.emplace(Batch[I], Cycles[I]);
      Model.add(Batch[I], Cycles[I]);
      ++Res.SamplesMeasured;
      if (!HaveBest || Cycles[I] < Best) {
        Best = Cycles[I];
        BestIdx = Batch[I];
        HaveBest = true;
      }
    }
  };

  // Draws one candidate via \p DrawOne, resampling (bounded) until it is
  // distinct from everything measured or already drawn this batch: the
  // sample budget buys distinct points, never a re-measurement.
  std::set<std::vector<unsigned>> InBatch;
  auto PushDistinct = [&](std::vector<std::vector<unsigned>> &Batch,
                          const std::function<std::vector<unsigned>()>
                              &DrawOne) {
    for (unsigned Try = 0; Try < 16; ++Try) {
      std::vector<unsigned> Idx = DrawOne();
      if (Seen.count(Idx) || InBatch.count(Idx)) {
        Stats::get().add("tuner.duplicate_draws");
        continue;
      }
      InBatch.insert(Idx);
      Batch.push_back(std::move(Idx));
      return;
    }
    // Space locally exhausted around this draw; spend the slot nowhere
    // rather than on a duplicate measurement.
    Stats::get().add("tuner.exhausted_draws");
  };

  auto DrawUniform = [&] {
    std::vector<unsigned> Idx(W);
    for (unsigned D = 0; D < W; ++D)
      Idx[D] = static_cast<unsigned>(R.below(Space[D].size()));
    return Idx;
  };

  // Starting point (Auto Tiling's choice).
  std::vector<unsigned> StartIdx(W, 0);
  for (unsigned D = 0; D < W; ++D) {
    for (unsigned I = 0; I < Space[D].size(); ++I)
      if (Space[D][I] == Start[D])
        StartIdx[D] = I;
  }
  MeasureBatch({StartIdx});
  Res.InitialCycles = Seen.at(StartIdx);

  // Round 1: random samples, drawn up front, measured concurrently.
  {
    std::vector<std::vector<unsigned>> Batch;
    InBatch.clear();
    for (unsigned I = 0; I < Opts.FirstRoundSamples; ++I)
      PushDistinct(Batch, DrawUniform);
    MeasureBatch(Batch);
  }

  // Follow-up rounds: model-guided steps from the best pool with
  // probability p, uniform otherwise; p evolves with the pre-defined
  // parameter and stays within (0, e). Each round's candidates are drawn
  // against the model as of the round start, then measured as a batch.
  for (unsigned Round = 0; Round < Opts.MaxRounds; ++Round) {
    double P = std::min(std::exp(Opts.PParam * (Round + 1)) - 1.0,
                        std::exp(1.0)) /
               std::exp(1.0);
    int64_t RoundStartBest = Best;
    // Best pool: the N best samples, copied - the batch measurement
    // below grows Model.Samples and would invalidate pointers into it.
    std::vector<PerfModel::Sample> Pool(Model.Samples);
    std::sort(Pool.begin(), Pool.end(),
              [](const PerfModel::Sample &A, const PerfModel::Sample &B) {
                return A.Cycles < B.Cycles;
              });
    if (Pool.size() > Opts.BestPool)
      Pool.resize(Opts.BestPool);
    auto DrawGuided = [&] {
      if (Pool.empty() || R.unit() >= P)
        return DrawUniform();
      std::vector<unsigned> Idx = Pool[R.below(Pool.size())].Idx;
      std::vector<int> Dir = Model.gradientAt(Idx);
      unsigned D = static_cast<unsigned>(R.below(W));
      int Step = Dir[D] != 0 ? Dir[D] : (R.below(2) ? 1 : -1);
      int64_t NI = int64_t(Idx[D]) + Step;
      NI = std::max<int64_t>(
          0, std::min<int64_t>(NI, int64_t(Space[D].size()) - 1));
      Idx[D] = static_cast<unsigned>(NI);
      return Idx;
    };
    std::vector<std::vector<unsigned>> Batch;
    InBatch.clear();
    for (unsigned I = 0; I < Opts.RoundSamples; ++I)
      PushDistinct(Batch, DrawGuided);
    MeasureBatch(Batch);
    if (Best == RoundStartBest)
      break; // no performance gain: stop early (paper's criterion)
  }
  Res.BestTiles = TilesOf(BestIdx);
  Res.BestCycles = Best;
  return Res;
}

TuneResult tuneAkgKernel(const ir::Module &M, const AkgOptions &Base,
                         const sim::MachineSpec &Spec,
                         const TunerOptions &Opts) {
  // Build the space: per live-out dim, powers of two up to the extent
  // (the valid tiling parameters of Sec 4.2).
  ir::PolyProgram P = extractPolyProgram(M);
  unsigned LiveId = P.Stmts.back().Id;
  const ir::PolyStmt &Live = P.Stmts[LiveId];
  unsigned W = Live.Op ? static_cast<unsigned>(Live.Op->Axis.size())
                       : Live.numIters();
  std::vector<std::vector<int64_t>> Space(W);
  for (unsigned D = 0; D < W; ++D) {
    int64_t Ext = Live.Op->Axis[D].Extent;
    for (int64_t S = 1; S < Ext; S *= 2)
      Space[D].push_back(S);
    Space[D].push_back(Ext);
  }
  // Starting point from the default compilation.
  CompileResult Start = compileWithAkg(M, Base, "tune_seed");
  std::vector<int64_t> StartTiles = Start.TileSizes;
  StartTiles.resize(W, 1);

  // Runs on tuner measurement workers: everything it touches is either
  // captured by value/const-ref or pure (compileWithAkg, the simulator).
  MeasureFn Measure = [&](const std::vector<int64_t> &Tiles) -> int64_t {
    if (Stats::enabled()) {
      std::string Line = "tuner probe:";
      for (int64_t T : Tiles)
        Line += " " + std::to_string(T);
      // Measurement workers run concurrently: serialize through the
      // shared diagnostic sink so probe lines never interleave.
      trace::debugEcho(Line);
    }
    AkgOptions O = Base;
    transforms::TilingPolicy Pol;
    transforms::StmtTileSpec Spec2;
    // Name each probe after its tile vector so AKG_TRACE dumps carry one
    // distinguishable trace per tuner configuration.
    std::string ProbeName = "tune_probe";
    for (int64_t S : Tiles) {
      Spec2.Entries.push_back(transforms::TileSpecEntry{S, "UB"});
      ProbeName += "_" + std::to_string(S);
    }
    Pol.PerStmt[LiveId] = Spec2;
    O.ManualTiles = Pol;
    CompileResult C = compileWithAkg(M, O, ProbeName);
    sim::SimOptions SO;
    SO.Functional = false;
    return sim::simulate(C.Kernel, Spec, nullptr, SO).Cycles;
  };
  return tuneTiles(Space, StartTiles, Measure, Opts);
}

} // namespace akg
