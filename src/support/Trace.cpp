//===- support/Trace.cpp - Structured per-compile traces ------------------===//

#include "support/Trace.h"

#include "support/Stats.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>

namespace akg {

double CompileTrace::passSeconds(const std::string &Pass) const {
  double S = 0;
  for (const TraceEvent &E : Events)
    if (E.Pass == Pass)
      S += E.WallSeconds;
  return S;
}

const TraceEvent *CompileTrace::find(const std::string &Pass) const {
  for (const TraceEvent &E : Events)
    if (E.Pass == Pass)
      return &E;
  return nullptr;
}

namespace {

void appendEscaped(std::string &Out, const std::string &S) {
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof Buf, "\\u%04x", C);
      Out += Buf;
      continue;
    }
    Out += C;
  }
}

std::string quoted(const std::string &S) {
  std::string Out = "\"";
  appendEscaped(Out, S);
  Out += '"';
  return Out;
}

std::string numText(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof Buf, "%.9g", V);
  return Buf;
}

} // namespace

std::string CompileTrace::json() const {
  std::string Out = "{\"kernel\": " + quoted(Kernel) +
                    ", \"total_seconds\": " + numText(TotalSeconds) +
                    ", \"cache_hit\": " + (CacheHit ? "true" : "false");
  if (!Target.empty())
    Out += ", \"target\": " + quoted(Target);
  if (!Outcome.empty())
    Out += ", \"outcome\": " + quoted(Outcome);
  Out += ", \"events\": [";
  for (size_t I = 0; I < Events.size(); ++I) {
    const TraceEvent &E = Events[I];
    if (I)
      Out += ", ";
    Out += "{\"pass\": " + quoted(E.Pass) +
           ", \"stage\": " + quoted(stageName(E.Id)) +
           ", \"attempt\": " + std::to_string(E.Attempt) +
           ", \"retry\": " + std::to_string(E.Retry) +
           ", \"wall_seconds\": " + numText(E.WallSeconds) + ", \"counters\": {";
    for (size_t J = 0; J < E.Counters.size(); ++J)
      Out += (J ? ", " : "") + quoted(E.Counters[J].first) + ": " +
             std::to_string(E.Counters[J].second);
    Out += "}, \"degradations\": [";
    for (size_t J = 0; J < E.Degradations.size(); ++J) {
      const DegradationStep &D = E.Degradations[J];
      Out += (J ? ", " : "");
      Out += "{\"stage\": " + quoted(stageName(D.Where)) +
             ", \"reason\": " + quoted(D.Reason) +
             ", \"action\": " + quoted(D.Action) + "}";
    }
    Out += "]";
    if (!E.Note.empty())
      Out += ", \"note\": " + quoted(E.Note);
    if (!E.Snapshot.empty())
      Out += ", \"snapshot\": " + quoted(E.Snapshot);
    Out += "}";
  }
  Out += "]}";
  return Out;
}

std::string CompileTrace::str() const {
  char Buf[192];
  std::snprintf(Buf, sizeof Buf,
                "compile trace: kernel=%s%s%s total=%.3fms events=%zu%s%s%s\n",
                Kernel.c_str(), Target.empty() ? "" : " target=",
                Target.empty() ? "" : Target.c_str(), TotalSeconds * 1e3,
                Events.size(), CacheHit ? " (cache hit)" : "",
                Outcome.empty() ? "" : " outcome=",
                Outcome.empty() ? "" : Outcome.c_str());
  std::string Out = Buf;
  for (const TraceEvent &E : Events) {
    std::snprintf(Buf, sizeof Buf, "  a%u r%-2u %-16s %9.3fms", E.Attempt,
                  E.Retry, E.Pass.c_str(), E.WallSeconds * 1e3);
    Out += Buf;
    if (!E.Counters.empty()) {
      Out += "  [";
      for (size_t J = 0; J < E.Counters.size(); ++J)
        Out += (J ? ", " : "") + E.Counters[J].first +
               (E.Counters[J].second >= 0 ? "+" : "") +
               std::to_string(E.Counters[J].second);
      Out += "]";
    }
    if (!E.Note.empty())
      Out += "  note: " + E.Note;
    Out += "\n";
    for (const DegradationStep &D : E.Degradations)
      Out += std::string("         ! ") + stageName(D.Where) + ": " +
             D.Reason + " -> " + D.Action + "\n";
  }
  return Out;
}

namespace trace {

namespace {
// One mutex for every diagnostic sink - trace dumps and debugEcho lines -
// so chaos-run logs interleave as whole lines, never torn ones. It also
// guards the destination path.
std::mutex &dumpLock() {
  static std::mutex M;
  return M;
}
std::string &destination() {
  static std::string D;
  return D;
}
std::atomic<bool> SnapshotsOn{false};
} // namespace

void setDestination(const std::string &Path) {
  std::lock_guard<std::mutex> G(dumpLock());
  destination() = Path;
}

void setSnapshots(bool On) { SnapshotsOn.store(On); }

bool snapshotsEnabled() { return SnapshotsOn.load(); }

void maybeDump(const CompileTrace &T) {
  std::lock_guard<std::mutex> G(dumpLock());
  const std::string &Dest = destination();
  if (Dest.empty())
    return;
  if (Dest == "-") {
    std::string S = T.str();
    std::fwrite(S.data(), 1, S.size(), stderr);
    return;
  }
  std::FILE *F = std::fopen(Dest.c_str(), "a");
  if (!F) {
    std::fprintf(stderr, "AKG_TRACE: cannot open %s\n", Dest.c_str());
    return;
  }
  std::string Line = T.json() + "\n";
  std::fwrite(Line.data(), 1, Line.size(), F);
  std::fclose(F);
}

void debugEcho(const std::string &Line) {
  if (!Stats::enabled())
    return;
  std::lock_guard<std::mutex> G(dumpLock());
  std::fprintf(stderr, "%s\n", Line.c_str());
}

} // namespace trace

} // namespace akg
