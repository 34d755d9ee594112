//===- akg/Environment.cpp - The one reader of AKG_* variables ------------===//

#include "akg/Environment.h"

#include "support/Stats.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace akg {

std::optional<std::string> processEnv(const char *Name) {
  const char *V = std::getenv(Name);
  if (!V)
    return std::nullopt;
  return std::string(V);
}

EnvLookup mapLookup(std::map<std::string, std::string> Vars) {
  return [Vars = std::move(Vars)](const char *Name) {
    auto It = Vars.find(Name);
    return It == Vars.end() ? std::nullopt
                            : std::optional<std::string>(It->second);
  };
}

namespace {

std::optional<int64_t> parseInt(const std::string &S) {
  if (S.empty())
    return std::nullopt;
  char *End = nullptr;
  long long N = std::strtoll(S.c_str(), &End, 10);
  if (End == S.c_str() || *End != '\0')
    return std::nullopt;
  return static_cast<int64_t>(N);
}

} // namespace

int64_t envInt(const EnvLookup &Lookup, const char *Name, int64_t Default) {
  std::optional<std::string> V = Lookup(Name);
  return V ? parseInt(*V).value_or(Default) : Default;
}

Environment readEnvironment(const EnvLookup &Lookup) {
  Environment E;

  // Compile options.
  if (std::optional<std::string> V = Lookup("AKG_TARGET"))
    sim::parseTargetName(*V, E.Compile.Target); // unknown names: ignored
  if (std::optional<std::string> V = Lookup("AKG_FAIL_STAGE"))
    if (Stage S = parseStage(*V); S != Stage::None)
      E.Compile.FailStage = S;
  E.Compile.RequestDeadlineMs =
      static_cast<double>(envInt(Lookup, "AKG_DEADLINE_MS", 0));
  if (std::optional<std::string> V = Lookup("AKG_ASTGEN_MEMO"))
    E.Compile.AstGen.UseMemo = *V != "0";

  // Compile service.
  if (Lookup("AKG_THREADS"))
    E.Service.Threads = static_cast<unsigned>(
        std::clamp<int64_t>(envInt(Lookup, "AKG_THREADS", 1), 1, 256));
  if (Lookup("AKG_QUEUE_DEPTH"))
    E.Service.QueueDepth = static_cast<unsigned>(std::max<int64_t>(
        1, envInt(Lookup, "AKG_QUEUE_DEPTH", E.Service.QueueDepth)));
  if (std::optional<std::string> V = Lookup("AKG_SHED_POLICY"))
    E.Service.Shed = *V == "degrade" ? ShedPolicy::Degrade : ShedPolicy::Reject;
  if (std::optional<std::string> V = Lookup("AKG_CHAOS"); V && !V->empty()) {
    std::string Err;
    std::optional<ChaosSpec> S = ChaosSpec::parse(*V, &Err);
    if (!S)
      E.Warnings.push_back("AKG_CHAOS ignored: " + Err);
    else if (S->enabled())
      E.Service.Chaos = S;
  }

  // Kernel cache.
  if (std::optional<std::string> V = Lookup("AKG_CACHE_DIR"))
    E.Cache.DiskDir = *V;
  if (std::optional<std::string> V = Lookup("AKG_CACHE_MAX_BYTES"))
    E.Cache.DiskMaxBytes = std::max<int64_t>(0, parseInt(*V).value_or(0));
  E.Cache.DynShape = envInt(Lookup, "AKG_DYNSHAPE", 1) != 0;
  if (std::optional<std::string> V = Lookup("AKG_SHAPE_BUCKETS"))
    if (std::optional<BucketScheme> S = BucketScheme::parse(*V))
      E.Cache.Buckets = std::move(*S); // malformed: the default bounds

  // Diagnostics.
  E.Diag.Stats = Lookup("AKG_STATS").has_value();
  E.Diag.TracePath = Lookup("AKG_TRACE").value_or("");
  E.Diag.TraceSnapshots = Lookup("AKG_TRACE_SNAPSHOTS").has_value();
  return E;
}

void Environment::installDiagnostics() const {
  Stats::setEnabled(Diag.Stats);
  trace::setDestination(Diag.TracePath);
  trace::setSnapshots(Diag.TraceSnapshots);
  for (const std::string &W : Warnings)
    std::fprintf(stderr, "%s\n", W.c_str());
}

} // namespace akg
