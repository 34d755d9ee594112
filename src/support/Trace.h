//===- support/Trace.h - Structured per-compile traces ----------*- C++ -*-===//
//
// Every compile records what the pass pipeline actually did: one
// TraceEvent per executed pass (wall time, Stats counter deltas,
// degradation steps recorded during the pass, an optional IR /
// schedule-tree snapshot) plus synthetic events from the pipeline
// controllers (retile decisions of the tile-halving ladder, fusion
// rejection, fault injection) and the kernel cache (hit / coalesced).
// The trace rides on CompileResult, so callers - the compile service,
// the tuner, the fuzzer - get it for free with every kernel.
//
// AKG_TRACE=<path> appends each compile's trace to <path> as one JSON
// object per line (JSONL; schema in DESIGN.md 4g, validated by
// tools/check_trace.py); AKG_TRACE=- prints the human-readable rendering
// to stderr instead. AKG_TRACE_SNAPSHOTS=1 additionally embeds module /
// schedule-tree snapshots in the events that declare one. A tool's main
// installs both once through setDestination / setSnapshots.
//
//===----------------------------------------------------------------------===//

#ifndef AKG_SUPPORT_TRACE_H
#define AKG_SUPPORT_TRACE_H

#include "support/Diag.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace akg {

/// One pass (or controller decision) of one compile.
struct TraceEvent {
  std::string Pass;        // pass / event name ("schedule", "retile", ...)
  Stage Id = Stage::None;  // the fault-injection stage this pass owns
  unsigned Attempt = 0;    // fusion-rejection attempt index
  unsigned Retry = 0;      // tile-halving retry index
  double WallSeconds = 0;
  /// Stats counters that moved while the pass ran (best-effort under
  /// concurrent compiles: the counters are process-global).
  std::vector<std::pair<std::string, int64_t>> Counters;
  /// Degradation steps recorded during this pass.
  std::vector<DegradationStep> Degradations;
  /// Free-form detail: the capacity error, the retile decision, ...
  std::string Note;
  /// Optional IR / schedule-tree snapshot (AKG_TRACE_SNAPSHOTS=1).
  std::string Snapshot;
};

/// The full trace of one compile request.
struct CompileTrace {
  std::string Kernel;  // kernel name the compile ran under
  /// Target the compile lowered for ("cce", "simt"); emitted as the
  /// "target" key of the JSONL line. Empty on traces predating the
  /// target layer (readers treat that as "cce").
  std::string Target;
  double TotalSeconds = 0;
  bool CacheHit = false;  // served from the kernel cache
  /// Terminal outcome code ("ok" implied when empty): "deadline_exceeded",
  /// "cancelled", "overloaded", "quarantined", "unavailable". Emitted
  /// into the JSONL line so chaos-run logs can be audited offline.
  std::string Outcome;
  std::vector<TraceEvent> Events;

  /// Sum of WallSeconds over events named \p Pass.
  double passSeconds(const std::string &Pass) const;
  /// First event named \p Pass, or null.
  const TraceEvent *find(const std::string &Pass) const;

  /// One-line JSON object (the AKG_TRACE=<path> format).
  std::string json() const;
  /// Human-readable multi-line rendering (the AKG_TRACE=- format).
  std::string str() const;
};

namespace trace {

/// Where maybeDump writes: "-" prints each trace human-readably to
/// stderr, any other non-empty path appends T.json() as one line to that
/// file, and "" (the default) turns dumping off. The tool's main installs
/// AKG_TRACE here (akg/Environment.h).
void setDestination(const std::string &Path);

/// Whether passes embed module / schedule-tree snapshots in their events
/// (AKG_TRACE_SNAPSHOTS; off by default).
void setSnapshots(bool On);
bool snapshotsEnabled();

/// Dumps \p T to the destination set above, serialized under a
/// process-wide mutex so concurrent compiles interleave whole lines.
/// No-op when no destination is set.
void maybeDump(const CompileTrace &T);

/// Debug echo to stderr, gated on AKG_STATS like the legacy inline
/// fprintf diagnostics this layer replaces (e.g. the retile messages).
void debugEcho(const std::string &Line);

} // namespace trace

} // namespace akg

#endif // AKG_SUPPORT_TRACE_H
