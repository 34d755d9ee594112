//===- akg/Environment.h - The one reader of AKG_* variables ----*- C++ -*-===//
//
// Every AKG_* environment variable the library honours is parsed here,
// once, when a tool or bench starts, into the structs that already carry
// configuration (README "Environment" lists them all):
//
//   AkgOptions              AKG_TARGET, AKG_FAIL_STAGE, AKG_DEADLINE_MS,
//                           AKG_ASTGEN_MEMO
//   CompileService::Options AKG_THREADS, AKG_QUEUE_DEPTH, AKG_SHED_POLICY,
//                           AKG_CHAOS
//   KernelCacheConfig       AKG_CACHE_DIR, AKG_CACHE_MAX_BYTES,
//                           AKG_DYNSHAPE, AKG_SHAPE_BUCKETS
//   Diagnostics             AKG_STATS, AKG_TRACE, AKG_TRACE_SNAPSHOTS
//
// Nothing else in src/ reads the environment, and nothing in the project
// writes it, so a compile depends only on its module and options. The
// caller decides precedence by building on these structs: an explicit
// option, a CLI flag or a composite payload's "target" overrides the
// environment, which overrides the built-in default.
//
//===----------------------------------------------------------------------===//

#ifndef AKG_AKG_ENVIRONMENT_H
#define AKG_AKG_ENVIRONMENT_H

#include "akg/CompileService.h"

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace akg {

/// Looks a variable up: its value, or nullopt when unset.
using EnvLookup = std::function<std::optional<std::string>(const char *)>;

/// The process environment (getenv). Safe from any thread, because no
/// code in the project writes the environment.
std::optional<std::string> processEnv(const char *Name);

/// A lookup over a fixed set of variables (tests, embedders).
EnvLookup mapLookup(std::map<std::string, std::string> Vars);

/// Integer value of \p Name, or \p Default when unset or not an integer.
int64_t envInt(const EnvLookup &Lookup, const char *Name, int64_t Default);

/// Process-wide diagnostics: the Stats printer and the trace sink.
struct Diagnostics {
  bool Stats = false;          // AKG_STATS (set to anything)
  std::string TracePath;       // AKG_TRACE: a JSONL file, or "-" (stderr)
  bool TraceSnapshots = false; // AKG_TRACE_SNAPSHOTS (set to anything)
};

struct Environment {
  AkgOptions Compile;
  CompileService::Options Service;
  KernelCacheConfig Cache;
  Diagnostics Diag;
  /// Values that were set but could not be used (each one is ignored).
  std::vector<std::string> Warnings;

  /// Installs Diag through Stats::setEnabled, trace::setDestination and
  /// trace::setSnapshots, and prints Warnings to stderr. Call once, from
  /// main, before the first compile.
  void installDiagnostics() const;
};

/// Parses every AKG_* variable the library honours through \p Lookup.
/// Pure: tests pass a map instead of touching the process environment.
Environment readEnvironment(const EnvLookup &Lookup = processEnv);

} // namespace akg

#endif // AKG_AKG_ENVIRONMENT_H
