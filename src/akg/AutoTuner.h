//===- akg/AutoTuner.h - Learning-based tile auto-tuner ---------*- C++ -*-===//
//
// The auto-tuning strategy of Sec 5.3: the tuning space is the set of
// valid tiling parameters from Sec 4.2. A first round of random samples is
// measured (on the simulator - the substitution for hardware measurement);
// the samples train a simple learned performance model. Second-round
// samples are derived from one of the N best first-round samples by moving
// a random step in the direction the model predicts to improve, with
// probability p, or drawn uniformly from the space with probability 1-p;
// p evolves with a pre-defined parameter (0.5) as in the paper, N = 64.
// Iteration stops at a sample budget or when no gain is seen.
//
//===----------------------------------------------------------------------===//

#ifndef AKG_AKG_AUTOTUNER_H
#define AKG_AKG_AUTOTUNER_H

#include "akg/Compiler.h"

#include <functional>

namespace akg {

struct TunerOptions {
  unsigned FirstRoundSamples = 24;
  unsigned RoundSamples = 12;
  unsigned MaxRounds = 3;
  unsigned BestPool = 64;  // N in the paper
  double PParam = 0.5;     // the pre-defined parameter feeding p
  uint32_t Seed = 42;
  /// Worker threads for candidate measurement (each round's samples are
  /// drawn up front, then measured concurrently); 0 and 1 measure on the
  /// calling thread. The tuning result is identical for any thread
  /// count: draws depend only on the seeded RNG and the previous rounds'
  /// measurements, and results fold in draw order.
  unsigned MeasureThreads = 1;
};

struct TuneResult {
  std::vector<int64_t> BestTiles;
  int64_t BestCycles = 0;
  int64_t InitialCycles = 0; // cycles of the starting (Auto Tiling) choice
  unsigned SamplesMeasured = 0;
};

/// Measures one tile configuration: compile + performance-mode simulation.
using MeasureFn =
    std::function<int64_t(const std::vector<int64_t> &Tiles)>;

/// Tunes tile sizes over the per-dimension candidate sets.
TuneResult tuneTiles(const std::vector<std::vector<int64_t>> &Space,
                     const std::vector<int64_t> &Start, MeasureFn Measure,
                     const TunerOptions &Opts = TunerOptions());

/// Convenience wrapper: tunes an AKG compilation of \p M and returns the
/// best configuration found (the simulator stands in for the chip).
TuneResult tuneAkgKernel(const ir::Module &M, const AkgOptions &Base,
                         const sim::MachineSpec &Spec,
                         const TunerOptions &Opts = TunerOptions());

} // namespace akg

#endif // AKG_AKG_AUTOTUNER_H
