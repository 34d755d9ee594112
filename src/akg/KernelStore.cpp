//===- akg/KernelStore.cpp - On-disk content-addressed kernel store -------===//

#include "akg/KernelStore.h"

#include "support/Serialize.h"
#include "support/Stats.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <unordered_map>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

namespace akg {

using namespace ir;

//===----------------------------------------------------------------------===//
// CompileResult serialization
//===----------------------------------------------------------------------===//
//
// Tensors are interned by pointer identity and serialized once, at first
// occurrence: a reference is a u32 id (0 = null, 1..N = back-reference,
// N+1 = a new definition follows inline). Deserialization rebuilds the
// table in the same order, so shared tensors stay shared - the simulator
// and printKernel only consult Name/Shape/Type (TensorDecl::Source is a
// non-owning pointer into the originating Module and stays null on a
// disk-loaded kernel).

namespace {

constexpr unsigned kMaxDepth = 512; // recursion guard for hostile inputs

struct TensorWriteTable {
  std::unordered_map<const TensorDecl *, uint32_t> Ids;
};

void writeTensor(ByteWriter &W, TensorWriteTable &T, const Tensor &Ten) {
  if (!Ten) {
    W.u32(0);
    return;
  }
  auto It = T.Ids.find(Ten.get());
  if (It != T.Ids.end()) {
    W.u32(It->second);
    return;
  }
  uint32_t Id = static_cast<uint32_t>(T.Ids.size()) + 1;
  T.Ids.emplace(Ten.get(), Id);
  W.u32(Id);
  W.str(Ten->Name);
  W.u8(static_cast<uint8_t>(Ten->Type));
  W.u64(Ten->Shape.size());
  for (int64_t S : Ten->Shape)
    W.i64(S);
}

struct TensorReadTable {
  std::vector<Tensor> List;
};

Tensor readTensor(ByteReader &R, TensorReadTable &T) {
  uint32_t Id = R.u32();
  if (!R.ok() || Id == 0)
    return nullptr;
  if (Id <= T.List.size())
    return T.List[Id - 1];
  if (Id != T.List.size() + 1) { // ids are dense and in definition order
    R.fits(~0ull, 1);            // poison
    return nullptr;
  }
  auto Ten = std::make_shared<TensorDecl>();
  Ten->Name = R.str();
  Ten->Type = R.enumOf<DType>(static_cast<uint8_t>(DType::Bool));
  uint64_t N = R.u64();
  if (!R.fits(N, 8))
    return nullptr;
  Ten->Shape.reserve(N);
  for (uint64_t I = 0; I < N; ++I)
    Ten->Shape.push_back(R.i64());
  T.List.push_back(Ten);
  return Ten;
}

void writeExpr(ByteWriter &W, TensorWriteTable &T, const Expr &E) {
  if (!E) {
    W.b(false);
    return;
  }
  W.b(true);
  W.u8(static_cast<uint8_t>(E->Kind));
  W.u8(static_cast<uint8_t>(E->Type));
  W.i64(E->IntVal);
  W.f64(E->FloatVal);
  W.str(E->Name);
  writeTensor(W, T, E->Ref);
  W.u8(static_cast<uint8_t>(E->RKind));
  W.u64(E->ReduceAxes.size());
  for (const IterVar &V : E->ReduceAxes) {
    W.str(V.Name);
    W.i64(V.Extent);
    W.b(V.IsReduce);
  }
  W.u64(E->Operands.size());
  for (const Expr &Op : E->Operands)
    writeExpr(W, T, Op);
}

Expr readExpr(ByteReader &R, TensorReadTable &T, unsigned Depth) {
  if (Depth > kMaxDepth) {
    R.fits(~0ull, 1); // poison
    return nullptr;
  }
  if (!R.b() || !R.ok())
    return nullptr;
  auto N = std::make_shared<ExprNode>();
  N->Kind = R.enumOf<ExprKind>(static_cast<uint8_t>(ExprKind::Reduce));
  N->Type = R.enumOf<DType>(static_cast<uint8_t>(DType::Bool));
  N->IntVal = R.i64();
  N->FloatVal = R.f64();
  N->Name = R.str();
  N->Ref = readTensor(R, T);
  N->RKind = R.enumOf<ReduceKind>(static_cast<uint8_t>(ReduceKind::Min));
  uint64_t NAxes = R.u64();
  if (!R.fits(NAxes, 17))
    return nullptr;
  for (uint64_t I = 0; I < NAxes; ++I) {
    IterVar V;
    V.Name = R.str();
    V.Extent = R.i64();
    V.IsReduce = R.b();
    N->ReduceAxes.push_back(std::move(V));
  }
  uint64_t NOps = R.u64();
  if (!R.fits(NOps, 1))
    return nullptr;
  for (uint64_t I = 0; I < NOps; ++I)
    N->Operands.push_back(readExpr(R, T, Depth + 1));
  return N;
}

void writeStmt(ByteWriter &W, TensorWriteTable &T, const Stmt &S) {
  if (!S) {
    W.b(false);
    return;
  }
  W.b(true);
  W.u8(static_cast<uint8_t>(S->Kind));
  W.str(S->Var);
  writeExpr(W, T, S->Min);
  writeExpr(W, T, S->Extent);
  W.u8(static_cast<uint8_t>(S->FType));
  writeTensor(W, T, S->Target);
  W.u64(S->Indices.size());
  for (const Expr &I : S->Indices)
    writeExpr(W, T, I);
  writeExpr(W, T, S->Value);
  writeExpr(W, T, S->Cond);
  W.str(S->Key);
  W.str(S->StrValue);
  writeTensor(W, T, S->Buffer);
  W.str(S->MemScope);
  W.u64(S->Children.size());
  for (const Stmt &C : S->Children)
    writeStmt(W, T, C);
}

Stmt readStmt(ByteReader &R, TensorReadTable &T, unsigned Depth) {
  if (Depth > kMaxDepth) {
    R.fits(~0ull, 1); // poison
    return nullptr;
  }
  if (!R.b() || !R.ok())
    return nullptr;
  auto N = std::make_shared<StmtNode>();
  N->Kind = R.enumOf<StmtKind>(static_cast<uint8_t>(StmtKind::Evaluate));
  N->Var = R.str();
  N->Min = readExpr(R, T, Depth + 1);
  N->Extent = readExpr(R, T, Depth + 1);
  N->FType = R.enumOf<ForType>(static_cast<uint8_t>(ForType::Unrolled));
  N->Target = readTensor(R, T);
  uint64_t NIdx = R.u64();
  if (!R.fits(NIdx, 1))
    return nullptr;
  for (uint64_t I = 0; I < NIdx; ++I)
    N->Indices.push_back(readExpr(R, T, Depth + 1));
  N->Value = readExpr(R, T, Depth + 1);
  N->Cond = readExpr(R, T, Depth + 1);
  N->Key = R.str();
  N->StrValue = R.str();
  N->Buffer = readTensor(R, T);
  N->MemScope = R.str();
  uint64_t NKids = R.u64();
  if (!R.fits(NKids, 1))
    return nullptr;
  for (uint64_t I = 0; I < NKids; ++I)
    N->Children.push_back(readStmt(R, T, Depth + 1));
  return N;
}

void writeInstr(ByteWriter &W, TensorWriteTable &T, const cce::InstrPtr &I) {
  if (!I) {
    W.b(false);
    return;
  }
  W.b(true);
  W.u8(static_cast<uint8_t>(I->Kind));
  W.u8(static_cast<uint8_t>(I->Pipe));
  W.str(I->Label);
  W.i64(I->Bytes);
  W.i64(I->Bursts);
  W.i64(I->Elems);
  W.i64(I->FractalOps);
  W.b(I->Fp32);
  writeStmt(W, T, I->Sem);
  W.u64(I->ReadBufs.size());
  for (const std::string &S : I->ReadBufs)
    W.str(S);
  W.u64(I->WriteBufs.size());
  for (const std::string &S : I->WriteBufs)
    W.str(S);
  W.str(I->Var);
  writeExpr(W, T, I->Min);
  writeExpr(W, T, I->Extent);
  W.u64(I->Body.size());
  for (const cce::InstrPtr &C : I->Body)
    writeInstr(W, T, C);
  W.b(I->DoubleBuffered);
  W.u32(I->EventId);
  W.u8(static_cast<uint8_t>(I->WaitSrc));
  W.u32(I->Depth);
  W.str(I->MapDim);
}

cce::InstrPtr readInstr(ByteReader &R, TensorReadTable &T, unsigned Depth) {
  if (Depth > kMaxDepth) {
    R.fits(~0ull, 1); // poison
    return nullptr;
  }
  if (!R.b() || !R.ok())
    return nullptr;
  auto I = std::make_shared<cce::Instr>();
  I->Kind = R.enumOf<cce::InstrKind>(
      static_cast<uint8_t>(cce::InstrKind::Barrier));
  I->Pipe = R.enumOf<sim::Pipe>(static_cast<uint8_t>(sim::Pipe::MTE3));
  I->Label = R.str();
  I->Bytes = R.i64();
  I->Bursts = R.i64();
  I->Elems = R.i64();
  I->FractalOps = R.i64();
  I->Fp32 = R.b();
  I->Sem = readStmt(R, T, Depth + 1);
  uint64_t N = R.u64();
  if (!R.fits(N, 8))
    return nullptr;
  for (uint64_t J = 0; J < N; ++J)
    I->ReadBufs.push_back(R.str());
  N = R.u64();
  if (!R.fits(N, 8))
    return nullptr;
  for (uint64_t J = 0; J < N; ++J)
    I->WriteBufs.push_back(R.str());
  I->Var = R.str();
  I->Min = readExpr(R, T, Depth + 1);
  I->Extent = readExpr(R, T, Depth + 1);
  N = R.u64();
  if (!R.fits(N, 1))
    return nullptr;
  for (uint64_t J = 0; J < N; ++J)
    I->Body.push_back(readInstr(R, T, Depth + 1));
  I->DoubleBuffered = R.b();
  I->EventId = R.u32();
  I->WaitSrc = R.enumOf<sim::Pipe>(static_cast<uint8_t>(sim::Pipe::MTE3));
  I->Depth = R.u32();
  I->MapDim = R.str();
  return I;
}

void writeTraceEvent(ByteWriter &W, const TraceEvent &E) {
  W.str(E.Pass);
  W.u8(static_cast<uint8_t>(E.Id));
  W.u32(E.Attempt);
  W.u32(E.Retry);
  W.f64(E.WallSeconds);
  W.u64(E.Counters.size());
  for (const auto &[K, V] : E.Counters) {
    W.str(K);
    W.i64(V);
  }
  W.u64(E.Degradations.size());
  for (const DegradationStep &D : E.Degradations) {
    W.u8(static_cast<uint8_t>(D.Where));
    W.str(D.Reason);
    W.str(D.Action);
  }
  W.str(E.Note);
  W.str(E.Snapshot);
}

bool readTraceEvent(ByteReader &R, TraceEvent &E) {
  E.Pass = R.str();
  E.Id = R.enumOf<Stage>(static_cast<uint8_t>(Stage::Sync));
  E.Attempt = R.u32();
  E.Retry = R.u32();
  E.WallSeconds = R.f64();
  uint64_t N = R.u64();
  if (!R.fits(N, 16))
    return false;
  for (uint64_t I = 0; I < N; ++I) {
    std::string K = R.str();
    int64_t V = R.i64();
    E.Counters.emplace_back(std::move(K), V);
  }
  N = R.u64();
  if (!R.fits(N, 17))
    return false;
  for (uint64_t I = 0; I < N; ++I) {
    DegradationStep D;
    D.Where = R.enumOf<Stage>(static_cast<uint8_t>(Stage::Sync));
    D.Reason = R.str();
    D.Action = R.str();
    E.Degradations.push_back(std::move(D));
  }
  E.Note = R.str();
  E.Snapshot = R.str();
  return R.ok();
}

} // namespace

std::string serializeCompileResult(const CompileResult &R) {
  ByteWriter W;
  TensorWriteTable T;

  const cce::Kernel &K = R.Kernel;
  W.str(K.Name);
  W.b(K.HandPrefetched);
  W.u8(static_cast<uint8_t>(K.Target));
  W.i64(K.BlockThreads);
  W.i64(K.GridBlocks);
  W.u64(K.GmTensors.size());
  for (const Tensor &G : K.GmTensors)
    writeTensor(W, T, G);
  W.u64(K.Buffers.size());
  for (const cce::BufferAlloc &B : K.Buffers) {
    W.str(B.Name);
    W.u8(static_cast<uint8_t>(B.Location));
    writeTensor(W, T, B.Decl);
    W.b(B.DoubleBuffered);
  }
  W.u64(K.Body.size());
  for (const cce::InstrPtr &I : K.Body)
    writeInstr(W, T, I);

  W.str(R.ScheduleTreeDump);
  W.str(R.TilingPolicyText);
  W.u64(R.TileSizes.size());
  for (int64_t S : R.TileSizes)
    W.i64(S);
  W.u32(R.FusedProducers);
  W.b(R.UsedSchedulerFallback);
  W.u32(R.Sync.FlagsInserted);
  W.u32(R.Sync.BarriersInserted);
  W.u64(R.Degradation.Steps.size());
  for (const DegradationStep &D : R.Degradation.Steps) {
    W.u8(static_cast<uint8_t>(D.Where));
    W.str(D.Reason);
    W.str(D.Action);
  }
  // Trace: kept so a disk-served request still dumps the original
  // compile's events under AKG_TRACE, exactly like a memory hit.
  W.str(R.Trace.Kernel);
  W.str(R.Trace.Target);
  W.f64(R.Trace.TotalSeconds);
  W.str(R.Trace.Outcome);
  W.u64(R.Trace.Events.size());
  for (const TraceEvent &E : R.Trace.Events)
    writeTraceEvent(W, E);
  // Outcome: only ok results are persisted, but serialize faithfully.
  W.u8(static_cast<uint8_t>(R.Outcome.code()));
  W.str(R.Outcome.message());
  return W.take();
}

bool deserializeCompileResult(const std::string &Bytes, CompileResult &Out) {
  ByteReader R(Bytes);
  TensorReadTable T;

  cce::Kernel &K = Out.Kernel;
  K.Name = R.str();
  K.HandPrefetched = R.b();
  K.Target = R.enumOf<sim::TargetKind>(
      static_cast<uint8_t>(sim::TargetKind::Simt));
  K.BlockThreads = R.i64();
  K.GridBlocks = R.i64();
  uint64_t N = R.u64();
  if (!R.fits(N, 4))
    return false;
  for (uint64_t I = 0; I < N; ++I)
    K.GmTensors.push_back(readTensor(R, T));
  N = R.u64();
  if (!R.fits(N, 10))
    return false;
  for (uint64_t I = 0; I < N; ++I) {
    cce::BufferAlloc B;
    B.Name = R.str();
    B.Location = R.enumOf<sim::Buffer>(static_cast<uint8_t>(sim::Buffer::Reg));
    B.Decl = readTensor(R, T);
    B.DoubleBuffered = R.b();
    K.Buffers.push_back(std::move(B));
  }
  N = R.u64();
  if (!R.fits(N, 1))
    return false;
  for (uint64_t I = 0; I < N; ++I)
    K.Body.push_back(readInstr(R, T, 0));

  Out.ScheduleTreeDump = R.str();
  Out.TilingPolicyText = R.str();
  N = R.u64();
  if (!R.fits(N, 8))
    return false;
  for (uint64_t I = 0; I < N; ++I)
    Out.TileSizes.push_back(R.i64());
  Out.FusedProducers = R.u32();
  Out.UsedSchedulerFallback = R.b();
  Out.Sync.FlagsInserted = R.u32();
  Out.Sync.BarriersInserted = R.u32();
  N = R.u64();
  if (!R.fits(N, 17))
    return false;
  for (uint64_t I = 0; I < N; ++I) {
    DegradationStep D;
    D.Where = R.enumOf<Stage>(static_cast<uint8_t>(Stage::Sync));
    D.Reason = R.str();
    D.Action = R.str();
    Out.Degradation.Steps.push_back(std::move(D));
  }
  Out.Trace.Kernel = R.str();
  Out.Trace.Target = R.str();
  Out.Trace.TotalSeconds = R.f64();
  Out.Trace.Outcome = R.str();
  N = R.u64();
  if (!R.fits(N, 8))
    return false;
  for (uint64_t I = 0; I < N; ++I) {
    TraceEvent E;
    if (!readTraceEvent(R, E))
      return false;
    Out.Trace.Events.push_back(std::move(E));
  }
  ErrCode Code =
      R.enumOf<ErrCode>(static_cast<uint8_t>(ErrCode::Unavailable));
  std::string Msg = R.str();
  Out.Outcome = Code == ErrCode::Ok ? Status::ok()
                                    : Status::error(Code, std::move(Msg));
  // Mod stays null: cache consumers (service, benches, simulator) carry
  // their own module; Pipeline only sets it on a real compile.
  return R.ok() && R.atEnd();
}

//===----------------------------------------------------------------------===//
// Entry file format
//===----------------------------------------------------------------------===//

namespace {

constexpr uint32_t kEntryMagic = 0x4B474B41; // "AKGK"

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (char C : S) {
    H ^= static_cast<unsigned char>(C);
    H *= 1099511628211ull;
  }
  return H;
}

bool readWholeFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  Out.assign(std::istreambuf_iterator<char>(In),
             std::istreambuf_iterator<char>());
  return In.good() || In.eof();
}

void countStat(const char *Name) {
  if (Stats::enabled())
    Stats::get().add(Name);
}

bool makeDirs(const std::string &Path) {
  std::string Cur;
  for (size_t I = 0; I <= Path.size(); ++I) {
    if (I == Path.size() || Path[I] == '/') {
      if (!Cur.empty() && mkdir(Cur.c_str(), 0755) != 0 && errno != EEXIST)
        return false;
      if (I < Path.size())
        Cur.push_back('/');
      continue;
    }
    Cur.push_back(Path[I]);
  }
  struct stat St;
  return stat(Path.c_str(), &St) == 0 && S_ISDIR(St.st_mode);
}

} // namespace

//===----------------------------------------------------------------------===//
// Mmap'd index
//===----------------------------------------------------------------------===//

struct DiskKernelStore::Index {
  // Advisory accelerator only: entry files are authoritative. Slots are
  // updated in place through the mapping with no cross-process locking;
  // a torn write at worst perturbs an access time or a presence bit,
  // which costs a stat(2) or a slightly unfair eviction, never a wrong
  // kernel. A header mismatch (version bump, truncation, foreign bytes)
  // rebuilds the whole file from a directory scan.
  static constexpr uint64_t kIndexMagic = 0x31494B4741ull; // "AGKI1"
  static constexpr uint64_t kSlots = 4096;
  static constexpr unsigned kProbeLimit = 64;

  struct Header {
    uint64_t Magic;
    uint64_t Version;
    uint64_t Slots;
  };
  struct Slot {
    uint64_t Key[3];
    uint64_t SizeBytes;
    uint64_t Atime; // seconds since epoch, logical LRU clock
    uint64_t Used;
  };
  static constexpr size_t kFileBytes =
      sizeof(Header) + kSlots * sizeof(Slot);

  int Fd = -1;
  void *Map = MAP_FAILED;

  Header *hdr() { return static_cast<Header *>(Map); }
  Slot *slots() {
    return reinterpret_cast<Slot *>(static_cast<char *>(Map) +
                                    sizeof(Header));
  }

  bool openAt(const std::string &Path) {
    Fd = ::open(Path.c_str(), O_RDWR | O_CREAT, 0644);
    if (Fd < 0)
      return false;
    struct stat St;
    bool Fresh = fstat(Fd, &St) != 0 ||
                 static_cast<size_t>(St.st_size) != kFileBytes;
    if (Fresh && ftruncate(Fd, static_cast<off_t>(kFileBytes)) != 0) {
      close();
      return false;
    }
    Map = mmap(nullptr, kFileBytes, PROT_READ | PROT_WRITE, MAP_SHARED, Fd,
               0);
    if (Map == MAP_FAILED) {
      close();
      return false;
    }
    if (Fresh || hdr()->Magic != kIndexMagic ||
        hdr()->Version != kKernelStoreVersion || hdr()->Slots != kSlots)
      return false; // mapped but needs (re)initialization + rescan
    return true;
  }

  void initialize() {
    std::memset(Map, 0, kFileBytes);
    hdr()->Magic = kIndexMagic;
    hdr()->Version = kKernelStoreVersion;
    hdr()->Slots = kSlots;
  }

  bool valid() const { return Map != MAP_FAILED; }

  Slot *find(const CacheKey &K) {
    if (!valid())
      return nullptr;
    size_t H = CacheKeyHash()(K) % kSlots;
    for (unsigned P = 0; P < kProbeLimit; ++P) {
      Slot &S = slots()[(H + P) % kSlots];
      if (S.Used && S.Key[0] == K.ModuleFp && S.Key[1] == K.OptionsFp &&
          S.Key[2] == K.BindingFp)
        return &S;
    }
    return nullptr;
  }

  void touch(const CacheKey &K, uint64_t SizeBytes) {
    if (!valid())
      return;
    Slot *S = find(K);
    if (!S) {
      size_t H = CacheKeyHash()(K) % kSlots;
      for (unsigned P = 0; P < kProbeLimit && !S; ++P) {
        Slot &Cand = slots()[(H + P) % kSlots];
        if (!Cand.Used)
          S = &Cand;
      }
      if (!S)
        return; // probe window full; the entry lives without an index row
      S->Key[0] = K.ModuleFp;
      S->Key[1] = K.OptionsFp;
      S->Key[2] = K.BindingFp;
    }
    if (SizeBytes)
      S->SizeBytes = SizeBytes;
    S->Atime = static_cast<uint64_t>(time(nullptr));
    S->Used = 1;
  }

  void erase(const CacheKey &K) {
    if (Slot *S = find(K))
      std::memset(S, 0, sizeof *S);
  }

  void close() {
    if (Map != MAP_FAILED)
      munmap(Map, kFileBytes);
    Map = MAP_FAILED;
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
  }
};

//===----------------------------------------------------------------------===//
// DiskKernelStore
//===----------------------------------------------------------------------===//

std::string DiskKernelStore::entryFileName(const CacheKey &K) {
  char Buf[3 * 16 + 8];
  snprintf(Buf, sizeof Buf, "%016" PRIx64 "-%016" PRIx64 "-%016" PRIx64
                            ".akgk",
           K.ModuleFp, K.OptionsFp, K.BindingFp);
  return Buf;
}

namespace {

/// Parses "<16 hex>-<16 hex>-<16 hex>.akgk"; used by the index rebuild
/// scan. Returns false for temp files and foreign names.
bool parseEntryFileName(const std::string &Name, CacheKey &K) {
  if (Name.size() != 3 * 16 + 2 + 5 || Name.substr(3 * 16 + 2) != ".akgk")
    return false;
  if (Name[16] != '-' || Name[33] != '-')
    return false;
  auto Hex = [&](size_t Off, uint64_t &V) {
    V = 0;
    for (size_t I = 0; I < 16; ++I) {
      char C = Name[Off + I];
      int D;
      if (C >= '0' && C <= '9')
        D = C - '0';
      else if (C >= 'a' && C <= 'f')
        D = C - 'a' + 10;
      else
        return false;
      V = (V << 4) | static_cast<uint64_t>(D);
    }
    return true;
  };
  return Hex(0, K.ModuleFp) && Hex(17, K.OptionsFp) && Hex(34, K.BindingFp);
}

} // namespace

DiskKernelStore::DiskKernelStore(std::string D, int64_t Max)
    : Dir(std::move(D)), MaxBytes(Max), Idx(std::make_unique<Index>()) {
  Usable = makeDirs(Dir);
  if (!Usable)
    return;
  if (!Idx->openAt(Dir + "/index.akgi") && Idx->valid()) {
    // Fresh or invalid index: reinitialize and rebuild from the entry
    // files actually present (the authoritative state).
    Idx->initialize();
    DIR *DH = opendir(Dir.c_str());
    if (DH) {
      while (struct dirent *E = readdir(DH)) {
        CacheKey K;
        if (!parseEntryFileName(E->d_name, K))
          continue;
        struct stat St;
        std::string Path = Dir + "/" + E->d_name;
        if (stat(Path.c_str(), &St) == 0)
          Idx->touch(K, static_cast<uint64_t>(St.st_size));
      }
      closedir(DH);
    }
  }
}

DiskKernelStore::~DiskKernelStore() { Idx->close(); }

std::string DiskKernelStore::entryPath(const CacheKey &K) const {
  return Dir + "/" + entryFileName(K);
}

std::shared_ptr<const CompileResult>
DiskKernelStore::load(const CacheKey &K) {
  if (!Usable)
    return nullptr;
  std::lock_guard<std::mutex> G(Lock);
  std::string Raw;
  if (!readWholeFile(entryPath(K), Raw)) {
    ++Counts.DiskMisses;
    countStat("cache.disk_miss");
    return nullptr;
  }
  auto Corrupt = [&]() -> std::shared_ptr<const CompileResult> {
    // Bad entry => miss, never a crash. Leave the file for post-mortems;
    // a store() for this key overwrites it atomically.
    ++Counts.DiskMisses;
    ++Counts.Corrupt;
    countStat("cache.disk_miss");
    countStat("cache.disk_corrupt");
    return nullptr;
  };
  ByteReader R(Raw);
  if (R.u32() != kEntryMagic)
    return Corrupt();
  if (R.u64() != kKernelStoreVersion)
    return Corrupt(); // stale format/codegen salt: recompile
  if (R.u64() != K.ModuleFp || R.u64() != K.OptionsFp ||
      R.u64() != K.BindingFp)
    return Corrupt(); // renamed/foreign file
  uint64_t PayloadLen = R.u64();
  uint64_t Checksum = R.u64();
  if (!R.ok() || PayloadLen != R.remaining())
    return Corrupt(); // truncated or padded
  std::string Payload = Raw.substr(Raw.size() - PayloadLen);
  if (fnv1a(Payload) != Checksum)
    return Corrupt();
  auto Result = std::make_shared<CompileResult>();
  if (!deserializeCompileResult(Payload, *Result))
    return Corrupt();
  ++Counts.DiskHits;
  countStat("cache.disk_hit");
  Idx->touch(K, Raw.size());
  return Result;
}

void DiskKernelStore::store(const CacheKey &K, const CompileResult &R) {
  if (!Usable || !R.Outcome.isOk())
    return;
  std::lock_guard<std::mutex> G(Lock);
  std::string Payload = serializeCompileResult(R);
  ByteWriter W;
  W.u32(kEntryMagic);
  W.u64(kKernelStoreVersion);
  W.u64(K.ModuleFp);
  W.u64(K.OptionsFp);
  W.u64(K.BindingFp);
  W.u64(Payload.size());
  W.u64(fnv1a(Payload));
  std::string Bytes = W.take() + Payload;

  // Atomic publish: write the whole entry to a private temp file, then
  // rename(2) it over the final name. Readers in any process see either
  // the old complete entry or the new complete entry, never a torn one.
  std::string Tmp = Dir + "/.tmp-" + std::to_string(getpid()) + "-" +
                    entryFileName(K) + "~";
  {
    std::ofstream O(Tmp, std::ios::binary | std::ios::trunc);
    if (!O)
      return;
    O.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    if (!O.good()) {
      O.close();
      unlink(Tmp.c_str());
      return;
    }
  }
  if (rename(Tmp.c_str(), entryPath(K).c_str()) != 0) {
    unlink(Tmp.c_str());
    return;
  }
  ++Counts.Stores;
  countStat("cache.disk_store");
  Idx->touch(K, Bytes.size());
  if (MaxBytes > 0)
    evictOverCap();
}

int64_t DiskKernelStore::sizeBytes() const {
  int64_t Total = 0;
  DIR *DH = opendir(Dir.c_str());
  if (!DH)
    return 0;
  while (struct dirent *E = readdir(DH)) {
    CacheKey K;
    if (!parseEntryFileName(E->d_name, K))
      continue;
    struct stat St;
    if (stat((Dir + "/" + E->d_name).c_str(), &St) == 0)
      Total += St.st_size;
  }
  closedir(DH);
  return Total;
}

void DiskKernelStore::evictOverCap() {
  struct Candidate {
    CacheKey Key;
    int64_t Size;
    uint64_t Atime;
  };
  std::vector<Candidate> All;
  int64_t Total = 0;
  DIR *DH = opendir(Dir.c_str());
  if (!DH)
    return;
  while (struct dirent *E = readdir(DH)) {
    Candidate C;
    if (!parseEntryFileName(E->d_name, C.Key))
      continue;
    struct stat St;
    if (stat((Dir + "/" + E->d_name).c_str(), &St) != 0)
      continue;
    C.Size = St.st_size;
    // LRU clock: the index access time when a row exists (loads refresh
    // it), else the file mtime (the write time).
    C.Atime = static_cast<uint64_t>(St.st_mtime);
    if (Index::Slot *S = Idx->find(C.Key))
      if (S->Atime)
        C.Atime = std::max(C.Atime, S->Atime);
    Total += C.Size;
    All.push_back(C);
  }
  closedir(DH);
  if (Total <= MaxBytes)
    return;
  std::sort(All.begin(), All.end(), [](const Candidate &A,
                                       const Candidate &B) {
    if (A.Atime != B.Atime)
      return A.Atime < B.Atime; // oldest first
    return DiskKernelStore::entryFileName(A.Key) <
           DiskKernelStore::entryFileName(B.Key); // deterministic tie-break
  });
  for (const Candidate &C : All) {
    if (Total <= MaxBytes)
      break;
    if (unlink((Dir + "/" + entryFileName(C.Key)).c_str()) != 0)
      continue;
    Total -= C.Size;
    Idx->erase(C.Key);
    ++Counts.Evictions;
    countStat("cache.disk_evict");
  }
}

KernelStoreStats DiskKernelStore::stats() const {
  std::lock_guard<std::mutex> G(Lock);
  return Counts;
}

} // namespace akg
