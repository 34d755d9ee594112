//===- support/Stats.h - Lightweight internal statistics --------*- C++ -*-===//
//
// Counters and accumulated timers for compiler-internal diagnostics,
// printed at exit when enabled (AKG_STATS, installed by the tool's main
// through setEnabled, akg/Environment.h). Used to keep the ILP-heavy
// scheduling paths honest about where compile time goes (the paper
// discusses compilation-time budgets in Sec 8).
//
// The singleton is shared by every compile in the process, including the
// concurrent compiles of the compile service, so all mutation happens
// under a mutex. ScopedTimer measures unconditionally cheap (two clock
// reads) and only takes the lock when stats are enabled.
//
//===----------------------------------------------------------------------===//

#ifndef AKG_SUPPORT_STATS_H
#define AKG_SUPPORT_STATS_H

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace akg {

class Stats {
public:
  static Stats &get() {
    // Intentionally leaked: setEnabled registers an atexit printer,
    // which would otherwise run after this object's own static
    // destructor (atexit handlers run in reverse registration order) and
    // iterate destructed maps.
    static Stats *S = new Stats();
    return *S;
  }

  void add(const std::string &Key, int64_t N = 1) {
    std::lock_guard<std::mutex> G(Lock);
    Counters[Key] += N;
  }
  void addTime(const std::string &Key, double Seconds) {
    std::lock_guard<std::mutex> G(Lock);
    Timers[Key] += Seconds;
  }

  /// Current value of a counter (0 when never touched).
  int64_t counter(const std::string &Key) const {
    std::lock_guard<std::mutex> G(Lock);
    auto It = Counters.find(Key);
    return It == Counters.end() ? 0 : It->second;
  }
  /// Accumulated seconds of a timer (0 when never touched).
  double timer(const std::string &Key) const {
    std::lock_guard<std::mutex> G(Lock);
    auto It = Timers.find(Key);
    return It == Timers.end() ? 0 : It->second;
  }

  /// Point-in-time copy of every counter, for before/after diffing around
  /// a pipeline pass (the compile trace records the deltas). Counters are
  /// process-global, so deltas taken while other compiles run concurrently
  /// include their activity too - best-effort attribution by design.
  std::map<std::string, int64_t> snapshotCounters() const {
    std::lock_guard<std::mutex> G(Lock);
    return Counters;
  }

  /// The counters that moved between two snapshots, sorted by name:
  /// (key, after - before) pairs, omitting unchanged keys.
  static std::vector<std::pair<std::string, int64_t>>
  diffCounters(const std::map<std::string, int64_t> &Before,
               const std::map<std::string, int64_t> &After) {
    std::vector<std::pair<std::string, int64_t>> Delta;
    for (const auto &[K, V] : After) {
      auto It = Before.find(K);
      int64_t D = V - (It == Before.end() ? 0 : It->second);
      if (D != 0)
        Delta.emplace_back(K, D);
    }
    return Delta;
  }

  /// Counters print sorted by name; timers print sorted by descending
  /// accumulated time so the profile reads as a flame-summary.
  void print() const {
    std::map<std::string, int64_t> C;
    std::vector<std::pair<std::string, double>> T;
    {
      std::lock_guard<std::mutex> G(Lock);
      C = Counters;
      T.assign(Timers.begin(), Timers.end());
    }
    std::stable_sort(T.begin(), T.end(),
                     [](const auto &A, const auto &B) {
                       return A.second > B.second;
                     });
    std::fprintf(stderr, "--- akg stats ---\n");
    for (const auto &[K, V] : C)
      std::fprintf(stderr, "%-40s %" PRId64 "\n", K.c_str(), V);
    for (const auto &[K, V] : T)
      std::fprintf(stderr, "%-40s %10.3fs\n", K.c_str(), V);
  }

  static bool enabled() { return Enabled.load(); }

  /// Turns the diagnostics on or off. The first enable registers the
  /// at-exit printer, which prints if they are still on at exit.
  static void setEnabled(bool On) {
    static std::once_flag Printer;
    if (On)
      std::call_once(Printer, [] {
        std::atexit([] {
          if (enabled())
            get().print();
        });
      });
    Enabled.store(On);
  }

private:
  Stats() = default;
  static inline std::atomic<bool> Enabled{false};
  mutable std::mutex Lock;
  std::map<std::string, int64_t> Counters;
  std::map<std::string, double> Timers;
};

/// RAII timer accumulating into a named Stats timer.
class ScopedTimer {
public:
  explicit ScopedTimer(const char *Key)
      : Key(Key), Start(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    if (!Stats::enabled())
      return;
    auto End = std::chrono::steady_clock::now();
    Stats::get().addTime(
        Key, std::chrono::duration<double>(End - Start).count());
    Stats::get().add(std::string(Key) + ".calls");
  }

private:
  const char *Key;
  std::chrono::steady_clock::time_point Start;
};

} // namespace akg

#endif // AKG_SUPPORT_STATS_H
