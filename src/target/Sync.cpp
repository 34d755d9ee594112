//===- target/Sync.cpp - Pipeline synchronization insertion ---------------===//

#include "target/Sync.h"

#include "support/Stats.h"

#include <algorithm>
#include <array>
#include <map>
#include <set>

namespace akg {
namespace cce {

namespace {

struct Footprint {
  std::set<std::string> R, W;
  std::set<sim::Pipe> Pipes;
  bool Compound = false; // Loop: internal ordering handled recursively
};

Footprint footprintOf(const Instr &I) {
  Footprint F;
  if (I.Kind == InstrKind::Loop) {
    F.Compound = true;
    for (const InstrPtr &C : I.Body) {
      Footprint CF = footprintOf(*C);
      F.R.insert(CF.R.begin(), CF.R.end());
      F.W.insert(CF.W.begin(), CF.W.end());
      F.Pipes.insert(CF.Pipes.begin(), CF.Pipes.end());
    }
    return F;
  }
  if (I.Kind == InstrKind::SetFlag || I.Kind == InstrKind::WaitFlag ||
      I.Kind == InstrKind::Barrier)
    return F;
  F.R.insert(I.ReadBufs.begin(), I.ReadBufs.end());
  F.W.insert(I.WriteBufs.begin(), I.WriteBufs.end());
  F.Pipes.insert(I.Pipe);
  return F;
}

bool intersects(const std::set<std::string> &A,
                const std::set<std::string> &B) {
  for (const std::string &X : A)
    if (B.count(X))
      return true;
  return false;
}

/// RAW/WAR/WAW conflict from instruction \p Src to later instruction \p Dst.
bool conflicts(const Footprint &Src, const Footprint &Dst) {
  return intersects(Src.W, Dst.R) || intersects(Src.W, Dst.W) ||
         intersects(Src.R, Dst.W);
}

struct FlagEdge {
  unsigned Src = 0, Dst = 0; // indices into the instruction list
  sim::Pipe SrcPipe = sim::Pipe::S, DstPipe = sim::Pipe::S;
  unsigned Depth = 1;
  bool Wrap = false; // loop back edge: set after Src, wait before Dst
};

class SyncInserter {
public:
  SyncInserter(SyncStrategy S) : Strategy(S) {}

  SyncReport Report;

  void process(std::vector<InstrPtr> &L, bool IsLoopBody, bool LoopDb) {
    // Inside-out: loop bodies first so their footprints are final.
    for (InstrPtr &I : L)
      if (I->Kind == InstrKind::Loop)
        process(I->Body, /*IsLoopBody=*/true, I->DoubleBuffered);

    if (Strategy == SyncStrategy::FullSerial) {
      serialize(L);
      return;
    }

    std::vector<Footprint> F;
    F.reserve(L.size());
    for (const InstrPtr &I : L)
      F.push_back(footprintOf(*I));

    std::vector<FlagEdge> Edges;
    std::vector<bool> BarrierBefore(L.size(), false);
    bool BarrierAtEnd = false;

    auto SinglePipe = [&](unsigned I) {
      return F[I].Pipes.size() == 1 ? *F[I].Pipes.begin() : sim::Pipe::S;
    };
    auto SamePipeOnly = [&](unsigned I, unsigned J) {
      return F[I].Pipes.size() == 1 && F[I].Pipes == F[J].Pipes;
    };

    // Forward edges.
    for (unsigned J = 0; J < L.size(); ++J) {
      for (unsigned I = 0; I < J; ++I) {
        if (!conflicts(F[I], F[J]))
          continue;
        if (SamePipeOnly(I, J))
          continue; // in-order within one pipe
        if (F[I].Compound || F[J].Compound) {
          BarrierBefore[J] = true;
          continue;
        }
        Edges.push_back(
            {I, J, SinglePipe(I), SinglePipe(J), /*Depth=*/1, false});
      }
    }

    // Loop-carried (wrap) edges: dependence from iteration t's instruction
    // J to iteration t+1's instruction I. Only pairs with J >= I need a
    // flag across the back edge; J < I is already implied by the forward
    // edge plus per-pipe ordering.
    if (IsLoopBody) {
      for (unsigned J = 0; J < L.size(); ++J) {
        for (unsigned I = 0; I <= J; ++I) {
          if (!conflicts(F[J], F[I]))
            continue;
          if (SamePipeOnly(I, J))
            continue;
          if (F[I].Compound || F[J].Compound) {
            BarrierAtEnd = true;
            continue;
          }
          Edges.push_back({J, I, SinglePipe(J), SinglePipe(I),
                           LoopDb ? 2u : 1u, true});
        }
      }
    }

    if (Strategy == SyncStrategy::AkgDp)
      Edges = minimalCover(Edges);
    else
      for (FlagEdge &E : Edges)
        E.Depth = 1; // TvmEmpirical: no ping-pong analysis

    materialize(L, Edges, BarrierBefore, BarrierAtEnd);
  }

private:
  SyncStrategy Strategy;
  std::array<unsigned, sim::NumPipes> NextEvent{};

  /// The DP grouping: per (src pipe, dst pipe), an edge is redundant when
  /// another kept edge with a later source and earlier destination already
  /// orders the pair (the wait happens no later, the set no earlier).
  std::vector<FlagEdge> minimalCover(const std::vector<FlagEdge> &Edges) {
    std::vector<FlagEdge> Kept;
    for (unsigned A = 0; A < Edges.size(); ++A) {
      bool Dominated = false;
      for (unsigned B = 0; B < Edges.size() && !Dominated; ++B) {
        if (A == B)
          continue;
        const FlagEdge &Ea = Edges[A], &Eb = Edges[B];
        if (Ea.SrcPipe != Eb.SrcPipe || Ea.DstPipe != Eb.DstPipe ||
            Ea.Wrap != Eb.Wrap || Ea.Depth != Eb.Depth)
          continue;
        bool Covers = Eb.Src >= Ea.Src && Eb.Dst <= Ea.Dst;
        bool Strict = Eb.Src > Ea.Src || Eb.Dst < Ea.Dst;
        // Ties broken by index so exactly one of two identical edges wins.
        if (Covers && (Strict || B < A))
          Dominated = true;
      }
      if (!Dominated)
        Kept.push_back(Edges[A]);
    }
    return Kept;
  }

  void materialize(std::vector<InstrPtr> &L,
                   const std::vector<FlagEdge> &Edges,
                   const std::vector<bool> &BarrierBefore,
                   bool BarrierAtEnd) {
    // Assign event ids round-robin per source pipe.
    std::vector<unsigned> Ids(Edges.size(), 0);
    for (unsigned E = 0; E < Edges.size(); ++E)
      Ids[E] = NextEvent[size_t(Edges[E].SrcPipe)]++ % 8;
    Report.FlagsInserted += unsigned(Edges.size());

    std::vector<InstrPtr> Out;
    for (unsigned Idx = 0; Idx < L.size(); ++Idx) {
      if (BarrierBefore[Idx]) {
        Out.push_back(makeBarrier());
        ++Report.BarriersInserted;
      }
      for (unsigned E = 0; E < Edges.size(); ++E)
        if (Edges[E].Dst == Idx)
          Out.push_back(makeWaitFlag(Edges[E].DstPipe, Edges[E].SrcPipe,
                                     Ids[E], Edges[E].Depth));
      Out.push_back(L[Idx]);
      for (unsigned E = 0; E < Edges.size(); ++E)
        if (Edges[E].Src == Idx)
          Out.push_back(makeSetFlag(Edges[E].SrcPipe, Ids[E]));
    }
    if (BarrierAtEnd) {
      Out.push_back(makeBarrier());
      ++Report.BarriersInserted;
    }
    L = std::move(Out);
  }

  void serialize(std::vector<InstrPtr> &L) {
    std::vector<InstrPtr> Out;
    for (InstrPtr &I : L) {
      bool NeedsBarrier = I->Kind != InstrKind::SetFlag &&
                          I->Kind != InstrKind::WaitFlag &&
                          I->Kind != InstrKind::Barrier;
      Out.push_back(std::move(I));
      if (NeedsBarrier) {
        Out.push_back(makeBarrier());
        ++Report.BarriersInserted;
      }
    }
    L = std::move(Out);
  }
};

//===----------------------------------------------------------------------===//
// SIMT block barriers
//===----------------------------------------------------------------------===//

struct BarrierState {
  std::set<std::string> SharedBufs;
  unsigned Inserted = 0;

  bool isShared(const std::string &N) const { return SharedBufs.count(N); }

  /// Rewrites \p L, inserting a barrier before any instruction whose
  /// shared reads conflict with writes since the last barrier (RAW) or
  /// whose shared writes conflict with prior reads/writes (WAR/WAW).
  /// \p Serial places a barrier after every instruction instead.
  void rewrite(std::vector<InstrPtr> &L, bool Serial) {
    std::set<std::string> WrittenSince, ReadSince;
    std::vector<InstrPtr> Out;
    auto Flush = [&]() {
      Out.push_back(makeBarrier());
      ++Inserted;
      WrittenSince.clear();
      ReadSince.clear();
    };
    for (InstrPtr &I : L) {
      if (I->Kind == InstrKind::Loop) {
        // Conservative: synchronize around loops that touch shared
        // memory so loop-carried reuse of a staging buffer is ordered
        // across iterations.
        bool Touches = touchesShared(I->Body);
        if (Touches && (!WrittenSince.empty() || !ReadSince.empty()))
          Flush();
        rewrite(I->Body, Serial);
        if (Touches && !I->Body.empty() &&
            I->Body.back()->Kind != InstrKind::Barrier) {
          I->Body.push_back(makeBarrier());
          ++Inserted;
        }
        Out.push_back(std::move(I));
        continue;
      }
      bool Conflict = false;
      for (const std::string &R : I->ReadBufs)
        if (isShared(R) && WrittenSince.count(R))
          Conflict = true;
      for (const std::string &W : I->WriteBufs)
        if (isShared(W) && (WrittenSince.count(W) || ReadSince.count(W)))
          Conflict = true;
      if (Conflict)
        Flush();
      for (const std::string &R : I->ReadBufs)
        if (isShared(R))
          ReadSince.insert(R);
      for (const std::string &W : I->WriteBufs)
        if (isShared(W))
          WrittenSince.insert(W);
      bool IsWork = I->Kind != InstrKind::Barrier;
      Out.push_back(std::move(I));
      if (Serial && IsWork)
        Flush();
    }
    L = std::move(Out);
  }

  bool touchesShared(const std::vector<InstrPtr> &L) const {
    for (const InstrPtr &I : L) {
      for (const std::string &R : I->ReadBufs)
        if (isShared(R))
          return true;
      for (const std::string &W : I->WriteBufs)
        if (isShared(W))
          return true;
      if (I->Kind == InstrKind::Loop && touchesShared(I->Body))
        return true;
    }
    return false;
  }
};

} // namespace

SyncReport insertSynchronization(Kernel &K, SyncStrategy Strategy) {
  SyncInserter S(Strategy);
  S.process(K.Body, /*IsLoopBody=*/false, /*LoopDb=*/false);
  // Unconditional counters for the compile trace's per-pass deltas.
  if (S.Report.FlagsInserted)
    Stats::get().add("sync.flags", S.Report.FlagsInserted);
  if (S.Report.BarriersInserted)
    Stats::get().add("sync.barriers", S.Report.BarriersInserted);
  return S.Report;
}

SyncReport insertSimtBarriers(Kernel &K, SyncStrategy Strategy) {
  BarrierState B;
  for (const BufferAlloc &A : K.Buffers)
    if (A.Location == sim::Buffer::Shared)
      B.SharedBufs.insert(A.Name);
  B.rewrite(K.Body, Strategy == SyncStrategy::FullSerial);
  SyncReport R;
  R.BarriersInserted = B.Inserted;
  if (B.Inserted)
    Stats::get().add("simt.barriers", static_cast<int64_t>(B.Inserted));
  return R;
}

} // namespace cce
} // namespace akg
