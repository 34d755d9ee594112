//===- akg/Chaos.h - Seeded probabilistic fault injection -------*- C++ -*-===//
//
// AKG_FAIL_STAGE injects exactly one deterministic stage failure; chaos
// testing needs the other regime: a whole workload where a seeded
// fraction of requests fault, stall, or hang, so the service's deadlines,
// retries, shedding, and quarantine can be exercised end to end and the
// run still replays bit-identically from its seed.
//
// Spec grammar (the AKG_CHAOS environment variable; DESIGN.md 4h):
//
//   AKG_CHAOS=seed=42,fault=0.1,transient=0.5,delay=0.1:20,hang=0.01
//
//   seed=<u64>        base seed (default 1)
//   fault=<p>         P(injected compile failure) in [0,1]
//   transient=<p>     given a fault, P(it is transient) - transient
//                     faults return Unavailable (the service retries with
//                     backoff), the rest FaultInjected (deterministic,
//                     counted by the quarantine)
//   delay=<p>[:<ms>]  P(injected delay before compiling), duration ms
//                     (default 10)
//   hang=<p>[:<ms>]   P(injected hang): an interruptible sleep of <ms>
//                     (default 60000) that a deadline or cancel rescues -
//                     the bounded stand-in for a wedged compile
//
// Decisions are a pure function of (seed, request name, attempt): two
// runs with the same spec and workload inject identical faults, and a
// retry of the same request redraws (attempt differs) so transient
// faults actually clear.
//
//===----------------------------------------------------------------------===//

#ifndef AKG_AKG_CHAOS_H
#define AKG_AKG_CHAOS_H

#include <cstdint>
#include <optional>
#include <string>

namespace akg {

struct ChaosSpec {
  uint64_t Seed = 1;
  double FaultP = 0;
  double TransientP = 0.5;
  double DelayP = 0;
  double DelayMs = 10;
  double HangP = 0;
  double HangMs = 60000;

  bool enabled() const { return FaultP > 0 || DelayP > 0 || HangP > 0; }

  /// Parses the spec grammar above; nullopt (with \p Err filled) on a
  /// malformed spec. The empty string parses to a disabled spec.
  static std::optional<ChaosSpec> parse(const std::string &Text,
                                        std::string *Err = nullptr);
};

/// What the chaos layer decided for one (request, attempt).
struct ChaosAction {
  enum class Kind { None, Fault, Delay, Hang };
  Kind K = Kind::None;
  bool Transient = false; // meaningful for Fault
  double Ms = 0;          // meaningful for Delay / Hang
};

/// Deterministic decision for \p Name's attempt \p Attempt under \p S.
/// Draw order: hang, fault, delay (a request gets at most one action).
ChaosAction chaosDecide(const ChaosSpec &S, const std::string &Name,
                        unsigned Attempt);

} // namespace akg

#endif // AKG_AKG_CHAOS_H
