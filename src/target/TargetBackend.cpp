//===- target/TargetBackend.cpp - Backend dispatch interface --------------===//

#include "target/TargetBackend.h"

namespace akg {

namespace {

class CceBackend final : public TargetBackend {
public:
  sim::TargetKind kind() const override { return sim::TargetKind::Cce; }
  const char *lowerPassName() const override { return "lower_cce"; }

  std::string checkStorage(const cce::Kernel &K,
                           const cce::CodegenOptions &Opts) const override {
    return cce::checkBufferCapacities(K, Opts.Machine);
  }

  cce::SyncReport insertSync(cce::Kernel &K,
                             cce::SyncStrategy S) const override {
    return cce::insertSynchronization(K, S);
  }

  cce::Kernel scalarFallback(const ir::Module &M,
                             const std::string &Name) const override {
    return cce::lowerScalarFallback(M, Name);
  }
};

class SimtBackend final : public TargetBackend {
public:
  sim::TargetKind kind() const override { return sim::TargetKind::Simt; }
  const char *lowerPassName() const override { return "lower_simt"; }

  std::string checkStorage(const cce::Kernel &K,
                           const cce::CodegenOptions &Opts) const override {
    return cce::checkSimtCapacities(K, Opts.Simt);
  }

  cce::SyncReport insertSync(cce::Kernel &K,
                             cce::SyncStrategy S) const override {
    return cce::insertSimtBarriers(K, S);
  }

  cce::Kernel scalarFallback(const ir::Module &M,
                             const std::string &Name) const override {
    cce::Kernel K = cce::lowerScalarFallback(M, Name);
    // Single-thread launch: the whole module evaluated by one thread of
    // one block; allocates nothing in shared memory, so it always fits.
    K.Target = sim::TargetKind::Simt;
    K.GridBlocks = 1;
    K.BlockThreads = 1;
    return K;
  }
};

} // namespace

const TargetBackend &targetBackend(sim::TargetKind K) {
  static const CceBackend Cce;
  static const SimtBackend Simt;
  return K == sim::TargetKind::Simt ? static_cast<const TargetBackend &>(Simt)
                                    : Cce;
}

} // namespace akg
