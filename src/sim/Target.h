//===- sim/Target.h - Target abstraction over machine models ----*- C++ -*-===//
//
// The target layer: every hardware-specific decision in the pipeline
// (auto-tiling capacities, lowering, storage checks, synchronization,
// simulation cost model) routes through a TargetSpec instead of reaching
// for the CCE MachineSpec directly. Two simulated machines are modeled:
//
//   - Cce: the Ascend 910 DaVinci NPU of the paper (sim/Machine.h) —
//     explicit L1/UB/L0 buffers, decoupled pipes, set/wait flags.
//   - Simt: a GPU-like SIMT machine — a grid of thread blocks scheduled
//     across streaming multiprocessors, per-block shared memory and
//     registers, a global memory whose cost model charges per coalesced
//     transaction segment, and __syncthreads-style block barriers in
//     place of flag pairs.
//
// The target is selected per compile via AkgOptions::Target (a tool's
// default comes from AKG_TARGET=cce|simt, akg/Environment.h), and is part
// of the kernel-cache fingerprint so the two backends never alias.
//
//===----------------------------------------------------------------------===//

#ifndef AKG_SIM_TARGET_H
#define AKG_SIM_TARGET_H

#include "sim/Machine.h"

namespace akg {
namespace sim {

/// The simulated machines a module can be compiled for.
enum class TargetKind { Cce, Simt };

constexpr unsigned NumTargetKinds = 2;

/// "cce" / "simt" — the names accepted by AKG_TARGET, --target and the
/// composite JSON "target" field.
const char *targetName(TargetKind K);

/// Parses a target name; false (and \p Out untouched) on an unknown
/// name, so callers can emit a structured Diag instead of crashing.
bool parseTargetName(const std::string &Name, TargetKind &Out);

/// SIMT/GPU-like machine model. Parameters follow the publicly described
/// shape of a Volta-class part: 80 SMs, 1024 threads and 48 KiB of
/// shared memory per block, 128 B coalescing segments, ~400-cycle global
/// memory latency. Like the CCE MachineSpec this drives a deterministic
/// cycle-approximate model, not a real chip.
struct SimtSpec {
  // Grid scheduling.
  int64_t NumSMs = 80;              // streaming multiprocessors
  int64_t MaxBlocksPerSM = 16;      // resident-block cap per SM
  int64_t MaxThreadsPerBlock = 1024;
  int64_t WarpSize = 32;            // block sizes are rounded to warps

  // Per-block memories (bytes).
  int64_t SharedMemBytes = 48 << 10; // shared memory per block
  int64_t RegisterBytes = 64 << 10;  // register file slice per block

  // Global memory: cycles = Latency + ceil(bytes/Bandwidth) + one
  // TransactionCost per coalesced segment beyond the first. Strided
  // accesses split into more segments (sim/SimtRun.cpp).
  int64_t GlobalBandwidth = 32;     // bytes/cycle per block
  int64_t GlobalLatency = 400;      // warm-up cycles per transfer
  int64_t CoalesceBytes = 128;      // transaction segment size
  int64_t TransactionCost = 4;      // extra cycles per extra segment

  // Shared memory (bank-conflict-free model).
  int64_t SharedLatency = 24;
  int64_t SharedBandwidth = 128;    // bytes/cycle

  // Execution.
  int64_t IssueCost = 4;            // per-instruction issue overhead
  int64_t ScalarCost = 2;           // cycles per element within one thread
  int64_t BarrierCost = 20;         // __syncthreads
  int64_t LaunchLatency = 600;      // kernel launch overhead

  int64_t bufferBytes(Buffer B) const {
    switch (B) {
    case Buffer::GM:
      return INT64_MAX;
    case Buffer::Shared:
      return SharedMemBytes;
    case Buffer::Reg:
      return RegisterBytes;
    default:
      return 0; // CCE-only memories do not exist on a SIMT machine
    }
  }

  /// The configuration used throughout the evaluation (Volta-class).
  static const SimtSpec &sm80();
};

/// The machine description every hardware-specific pipeline decision is
/// routed through: a target kind plus the spec of each simulated
/// machine. Value semantics (cheap to copy, fingerprintable); the
/// behavioral side of a target (lowering, capacity checks, sync) lives
/// behind target/TargetBackend.h.
struct TargetSpec {
  TargetKind Kind = TargetKind::Cce;
  CceSpec Cce = CceSpec::ascend910();
  SimtSpec Simt = SimtSpec::sm80();

  const char *name() const { return targetName(Kind); }

  /// Capacity of memory \p B on the active machine.
  int64_t bufferBytes(Buffer B) const {
    return Kind == TargetKind::Cce ? Cce.bufferBytes(B) : Simt.bufferBytes(B);
  }

  static TargetSpec cce(const CceSpec &C) {
    TargetSpec T;
    T.Kind = TargetKind::Cce;
    T.Cce = C;
    return T;
  }
  static TargetSpec simt(const SimtSpec &S) {
    TargetSpec T;
    T.Kind = TargetKind::Simt;
    T.Simt = S;
    return T;
  }
};

} // namespace sim
} // namespace akg

#endif // AKG_SIM_TARGET_H
