//===- tests/KernelStoreTest.cpp - On-disk kernel store + astgen memo -----===//
//
// The persistence tier's contract (DESIGN.md 4i): a disk round-trip is
// bit-identical (printKernel and simulated cycles), a version-salt bump
// invalidates every stale entry, corruption and truncation are clean
// misses (never crashes), two processes can share a store directory
// (atomic rename = no torn reads), LRU eviction respects the size cap,
// and the ast_gen memo serves bit-identical ASTs across configurations
// that change the emitted loop-bound set.
//
//===----------------------------------------------------------------------===//

#include "akg/KernelStore.h"
#include "graph/Ops.h"
#include "sim/Simulator.h"
#include "support/Stats.h"
#include "target/CceIr.h"
#include "transforms/AutoTiling.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace akg;
using namespace akg::ir;

namespace {

/// Fresh unique store directory under the gtest temp root.
std::string freshDir(const std::string &Tag) {
  static int Counter = 0;
  std::string D = testing::TempDir() + "akg_store_" + Tag + "_" +
                  std::to_string(getpid()) + "_" +
                  std::to_string(Counter++);
  mkdir(D.c_str(), 0755);
  return D;
}

CompileResult compileSample(const char *Name = "store_sample") {
  auto M = graph::makeTensorAdd({8, 16, 4});
  return compileWithAkg(*M, AkgOptions{}, Name);
}

CacheKey sampleKey(uint64_t Salt = 0) {
  return CacheKey{0x1111111111111111ull + Salt, 0x2222222222222222ull,
                  0x3333333333333333ull};
}

int64_t simCycles(const cce::Kernel &K) {
  sim::SimOptions SO;
  SO.Functional = false;
  return sim::simulate(K, sim::MachineSpec::ascend910(), nullptr, SO).Cycles;
}

} // namespace

//===----------------------------------------------------------------------===//
// Serialization round-trip
//===----------------------------------------------------------------------===//

TEST(KernelStoreSerde, RoundTripIsBitIdentical) {
  CompileResult R = compileSample();
  ASSERT_TRUE(R.Outcome.isOk());
  std::string Bytes = serializeCompileResult(R);
  CompileResult Back;
  ASSERT_TRUE(deserializeCompileResult(Bytes, Back));
  EXPECT_EQ(cce::printKernel(R.Kernel), cce::printKernel(Back.Kernel));
  EXPECT_EQ(simCycles(R.Kernel), simCycles(Back.Kernel));
  EXPECT_EQ(R.ScheduleTreeDump, Back.ScheduleTreeDump);
  EXPECT_EQ(R.TileSizes, Back.TileSizes);
  EXPECT_EQ(R.Trace.Events.size(), Back.Trace.Events.size());
  EXPECT_TRUE(Back.Outcome.isOk());
  // Mod is reconstructed lazily and deliberately not persisted.
  EXPECT_EQ(Back.Mod, nullptr);
}

TEST(KernelStoreSerde, TruncatedBytesFailCleanly) {
  CompileResult R = compileSample();
  std::string Bytes = serializeCompileResult(R);
  // Every prefix must fail to deserialize without crashing (the reader
  // is bounds-checked, not trusting any embedded length).
  for (size_t Cut : {size_t(0), size_t(1), Bytes.size() / 4,
                     Bytes.size() / 2, Bytes.size() - 1}) {
    CompileResult Out;
    EXPECT_FALSE(deserializeCompileResult(Bytes.substr(0, Cut), Out))
        << "prefix of " << Cut << " bytes deserialized";
  }
}

//===----------------------------------------------------------------------===//
// Disk store
//===----------------------------------------------------------------------===//

TEST(KernelStore, StoreThenLoadRoundTrips) {
  DiskKernelStore S(freshDir("roundtrip"));
  CompileResult R = compileSample();
  CacheKey K = sampleKey();
  EXPECT_EQ(S.load(K), nullptr); // cold miss
  S.store(K, R);
  auto Hit = S.load(K);
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(cce::printKernel(R.Kernel), cce::printKernel(Hit->Kernel));
  EXPECT_EQ(simCycles(R.Kernel), simCycles(Hit->Kernel));
  KernelStoreStats St = S.stats();
  EXPECT_EQ(St.DiskHits, 1);
  EXPECT_EQ(St.DiskMisses, 1);
  EXPECT_EQ(St.Stores, 1);
  EXPECT_EQ(St.Corrupt, 0);
}

TEST(KernelStore, SecondStoreInstanceSeesEntries) {
  // A "restarted service": a brand-new store over the same directory
  // (index rebuilt from the entry files) serves the old entries.
  std::string Dir = freshDir("restart");
  CompileResult R = compileSample();
  CacheKey K = sampleKey();
  {
    DiskKernelStore S(Dir);
    S.store(K, R);
  }
  // Remove the index to force the rebuild-from-scan path too.
  unlink((Dir + "/index.akgi").c_str());
  DiskKernelStore S2(Dir);
  auto Hit = S2.load(K);
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(cce::printKernel(R.Kernel), cce::printKernel(Hit->Kernel));
}

TEST(KernelStore, VersionSaltInvalidatesEntries) {
  DiskKernelStore S(freshDir("salt"));
  CompileResult R = compileSample();
  CacheKey K = sampleKey();
  S.store(K, R);
  // Rewrite the entry's version field (u64 after the u32 magic) to a
  // future salt: the load must treat the whole entry as stale.
  std::string Path = S.dir() + "/" + DiskKernelStore::entryFileName(K);
  {
    std::fstream F(Path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(F.good());
    uint64_t Bumped = kKernelStoreVersion + 1;
    F.seekp(4);
    F.write(reinterpret_cast<const char *>(&Bumped), sizeof Bumped);
  }
  EXPECT_EQ(S.load(K), nullptr);
  EXPECT_GE(S.stats().Corrupt, 1);
}

TEST(KernelStore, CorruptionIsACleanMiss) {
  DiskKernelStore S(freshDir("corrupt"));
  CompileResult R = compileSample();
  CacheKey K = sampleKey();
  std::string Path = S.dir() + "/" + DiskKernelStore::entryFileName(K);

  auto WriteRaw = [&](const std::string &Bytes) {
    std::ofstream F(Path, std::ios::binary | std::ios::trunc);
    F.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  };
  auto ReadRaw = [&]() {
    std::ifstream F(Path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(F),
                       std::istreambuf_iterator<char>());
  };

  // Truncation at various points: header, key echo, mid-payload.
  S.store(K, R);
  std::string Good = ReadRaw();
  ASSERT_GT(Good.size(), 64u);
  for (size_t Cut : {size_t(3), size_t(11), size_t(40), Good.size() / 2,
                     Good.size() - 1}) {
    WriteRaw(Good.substr(0, Cut));
    EXPECT_EQ(S.load(K), nullptr) << "truncated at " << Cut;
  }
  // Flipped payload byte: checksum catches it.
  std::string Flipped = Good;
  Flipped[Flipped.size() - 10] ^= 0x5a;
  WriteRaw(Flipped);
  EXPECT_EQ(S.load(K), nullptr);
  // Checksum-valid but semantically corrupted payload: flip a byte AND
  // refresh the stored checksum, forcing the deserializer itself to
  // reject out-of-range enums / dangling lengths without crashing.
  std::string DeepBad = Good;
  DeepBad[DeepBad.size() / 2] = char(0xff);
  {
    // Recompute FNV-1a over the payload (after the 60-byte header).
    constexpr size_t HeaderBytes = 4 + 8 * 7;
    uint64_t H = 1469598103934665603ull;
    for (size_t I = HeaderBytes; I < DeepBad.size(); ++I) {
      H ^= static_cast<unsigned char>(DeepBad[I]);
      H *= 1099511628211ull;
    }
    std::memcpy(&DeepBad[HeaderBytes - 8], &H, sizeof H);
  }
  WriteRaw(DeepBad);
  S.load(K); // may miss or (if the flipped byte was inert padding) hit -
             // either way it must not crash or return garbage enums
  // Garbage file entirely.
  WriteRaw("not a kernel entry at all");
  EXPECT_EQ(S.load(K), nullptr);
  // A valid entry stored afterwards overwrites the damage.
  S.store(K, R);
  auto Hit = S.load(K);
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(cce::printKernel(R.Kernel), cce::printKernel(Hit->Kernel));
}

TEST(KernelStore, WrongKeyFileNameIsAMiss) {
  DiskKernelStore S(freshDir("wrongkey"));
  CompileResult R = compileSample();
  CacheKey K1 = sampleKey(), K2 = sampleKey(7);
  S.store(K1, R);
  // Rename K1's entry to K2's name: the key echo in the header must
  // reject it (a hash-named file is authoritative about its content).
  ASSERT_EQ(rename((S.dir() + "/" + DiskKernelStore::entryFileName(K1))
                       .c_str(),
                   (S.dir() + "/" + DiskKernelStore::entryFileName(K2))
                       .c_str()),
            0);
  EXPECT_EQ(S.load(K2), nullptr);
  EXPECT_GE(S.stats().Corrupt, 1);
}

TEST(KernelStore, LruEvictionUnderSizeCap) {
  CompileResult R = compileSample();
  int64_t EntryBytes;
  {
    DiskKernelStore Probe(freshDir("probe"));
    Probe.store(sampleKey(), R);
    EntryBytes = Probe.sizeBytes();
    ASSERT_GT(EntryBytes, 0);
  }
  // Cap at ~3 entries, store 6: the oldest three go; the store never
  // exceeds the cap after a store() returns.
  DiskKernelStore S(freshDir("lru"), 3 * EntryBytes + EntryBytes / 2);
  for (uint64_t I = 0; I < 6; ++I) {
    S.store(sampleKey(I), R);
    EXPECT_LE(S.sizeBytes(), 3 * EntryBytes + EntryBytes / 2);
  }
  EXPECT_GE(S.stats().Evictions, 3);
  // Newest still present, oldest evicted. (Entries share one mtime
  // second, but eviction breaks ties deterministically by file name and
  // never removes more than needed, so the last stored key survives.)
  EXPECT_EQ(S.load(sampleKey(0)), nullptr);
  EXPECT_NE(S.load(sampleKey(5)), nullptr);
}

TEST(KernelStore, TwoProcessesShareAStore) {
  // Concurrent cross-process access: the child hammers stores of the
  // same keys while the parent loads them. Atomic temp-file + rename
  // publication means every load sees a complete entry or nothing.
  std::string Dir = freshDir("twoproc");
  CompileResult R = compileSample();
  std::string Want = cce::printKernel(R.Kernel);
  constexpr int Keys = 4, Rounds = 25;

  pid_t Child = fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) {
    // Child process: repeatedly (re)store every key.
    DiskKernelStore S(Dir);
    for (int I = 0; I < Rounds; ++I)
      for (uint64_t J = 0; J < Keys; ++J)
        S.store(sampleKey(J), R);
    _exit(0);
  }
  DiskKernelStore S(Dir);
  int Complete = 0;
  for (int I = 0; I < Rounds; ++I)
    for (uint64_t J = 0; J < Keys; ++J)
      if (auto Hit = S.load(sampleKey(J))) {
        ++Complete;
        // Never a torn read: anything visible is the full entry.
        EXPECT_EQ(cce::printKernel(Hit->Kernel), Want);
      }
  int WStatus = 0;
  ASSERT_EQ(waitpid(Child, &WStatus, 0), Child);
  EXPECT_TRUE(WIFEXITED(WStatus) && WEXITSTATUS(WStatus) == 0);
  // After the child finished, every key must load.
  for (uint64_t J = 0; J < Keys; ++J)
    EXPECT_NE(S.load(sampleKey(J)), nullptr);
  EXPECT_EQ(S.stats().Corrupt, 0);
  (void)Complete;
}

//===----------------------------------------------------------------------===//
// Tiered cache integration (memory -> disk -> compile)
//===----------------------------------------------------------------------===//

namespace {

/// Fifteen Fig 9 shapes, three each of conv, matmul, batched matmul,
/// tensor add and batch-norm reduce.
std::vector<graph::ModulePtr> fig09Stream() {
  std::vector<graph::ModulePtr> S;
  int64_t Conv[3][4] = {{32, 28, 28, 32}, {64, 14, 14, 64}, {64, 7, 7, 128}};
  for (auto &C : Conv)
    S.push_back(graph::makeConv(16, C[0], C[1], C[2], C[3], 3, 3, 1, 1));
  int64_t Mm[3][3] = {{512, 512, 512}, {1024, 1024, 256}, {768, 768, 768}};
  for (auto &C : Mm)
    S.push_back(graph::makeMatmul(C[0], C[1], C[2]));
  int64_t Bmm[3][3] = {{128, 128, 128}, {64, 192, 64}, {192, 64, 64}};
  for (auto &C : Bmm)
    S.push_back(graph::makeBatchMatmul(16, C[0], C[1], C[2]));
  for (int64_t I = 0; I < 3; ++I)
    S.push_back(graph::makeTensorAdd({16, 48 + 24 * I, 24, 24}));
  for (int64_t I = 0; I < 3; ++I)
    S.push_back(graph::makeBnReduce(16, 32 + 16 * I, 14, 14));
  return S;
}

} // namespace

TEST(KernelStoreTiered, SecondProcessServesFirstRequestFromDisk) {
  // Simulated restart: two distinct in-memory caches (cold memory tier)
  // over one disk directory serve the same stream. Every first request
  // of the second cache must be served from disk - observable via
  // stats().DiskHits and the cache_hit trace marker - and its compile
  // function must never run.
  KernelCacheConfig Cfg;
  Cfg.MaxEntries = 32;
  Cfg.DiskDir = freshDir("tiered");
  std::vector<graph::ModulePtr> Stream = fig09Stream();
  AkgOptions Opts;
  auto NameOf = [](size_t I) { return "proc" + std::to_string(I); };

  KernelCache Cold1(Cfg);
  std::vector<std::string> Texts;
  for (size_t I = 0; I < Stream.size(); ++I) {
    CompileResult R = Cold1.compileOrGet(*Stream[I], Opts, NameOf(I));
    ASSERT_TRUE(R.Outcome.isOk()) << NameOf(I);
    Texts.push_back(cce::printKernel(R.Kernel));
  }
  KernelCacheStats S1 = Cold1.stats();
  EXPECT_EQ(S1.DiskHits, 0); // fresh dir: compiled, persisted
  EXPECT_EQ(S1.Misses, static_cast<int64_t>(Stream.size()));

  int Compiles = 0;
  KernelCache::CompileFn Counting = [&](const Module &M, const AkgOptions &O,
                                        const std::string &N) {
    ++Compiles;
    return compileWithAkg(M, O, N);
  };
  KernelCache Cold2(Cfg);
  for (size_t I = 0; I < Stream.size(); ++I) {
    CompileResult R =
        Cold2.compileOrGet(*Stream[I], Opts, NameOf(I), Counting);
    ASSERT_TRUE(R.Outcome.isOk()) << NameOf(I);
    ASSERT_FALSE(R.Trace.Events.empty());
    EXPECT_EQ(R.Trace.Events[0].Pass, "cache_hit");
    EXPECT_NE(R.Trace.Events[0].Note.find("disk"), std::string::npos);
    EXPECT_TRUE(R.Trace.CacheHit);
    EXPECT_EQ(Texts[I], cce::printKernel(R.Kernel)) << NameOf(I);
  }
  EXPECT_EQ(Compiles, 0);
  EXPECT_EQ(Cold2.stats().DiskHits, S1.Misses);
  EXPECT_EQ(Cold2.stats().Misses, S1.Misses);
  EXPECT_EQ(Cold2.stats().Hits, 0);
  // And the request after that is a pure memory hit.
  CompileResult Again = Cold2.compileOrGet(*Stream[0], Opts, "again", Counting);
  EXPECT_EQ(Cold2.stats().Hits, 1);
  EXPECT_EQ(Again.Trace.Events[0].Pass, "cache_hit");
  EXPECT_EQ(Compiles, 0);
}

//===----------------------------------------------------------------------===//
// ast_gen memo (AstGenOptions::UseMemo, AKG_ASTGEN_MEMO)
//===----------------------------------------------------------------------===//

namespace {

std::string kernelWithTiles(const Module &M, int64_t Tile, bool Memo) {
  AkgOptions O;
  O.AstGen.UseMemo = Memo;
  if (Tile > 0) {
    transforms::TilingPolicy TP;
    transforms::StmtTileSpec Spec;
    Spec.Entries.push_back(transforms::TileSpecEntry{Tile, "L1"});
    TP.PerStmt[0] = Spec;
    O.ManualTiles = TP;
  }
  return cce::printKernel(compileWithAkg(M, O, "memo_probe").Kernel);
}

} // namespace

TEST(AstGenMemo, BitIdenticalAcrossEmittedSetChanges) {
  // Different tile configurations give the same statements different
  // emitted loop-bound sets at the leaves. Because memo keys serialize
  // the full emitted-set content, entries learned under one
  // configuration must never leak into another: every memoized compile
  // matches its memo-off reference byte for byte - including recompiles
  // of earlier configs served from the (now populated, possibly
  // conflicting-if-buggy) process-global memo.
  auto M = graph::makeTensorAdd({16, 32});
  for (int Round = 0; Round < 2; ++Round)
    for (int64_t Tile : {0, 4, 8}) {
      std::string Ref = kernelWithTiles(*M, Tile, false);
      std::string Fast = kernelWithTiles(*M, Tile, true);
      EXPECT_EQ(Ref, Fast) << "tile=" << Tile << " round=" << Round;
    }
}

TEST(AstGenMemo, MemoHitsAreObservable) {
  auto M = graph::makeTensorAdd({8, 24});
  compileWithAkg(*M, AkgOptions{}, "warmup");
  int64_t HitsBefore = Stats::get().counter("astgen.proj_memo_hit");
  compileWithAkg(*M, AkgOptions{}, "warm");
  EXPECT_GT(Stats::get().counter("astgen.proj_memo_hit"), HitsBefore);
}
