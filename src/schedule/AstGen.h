//===- schedule/AstGen.h - Schedule tree -> AST generation ------*- C++ -*-===//
//
// Generates an imperative loop-nest AST (ir::Stmt) from a schedule tree, in
// the spirit of isl's AST generator (Sec 5): band rows become loops whose
// bounds are derived by Fourier-Motzkin projection of each statement's
// scheduling context; filters and sequences order statements; extension
// nodes introduce foreign statement instances whose domains are defined by
// the outer loop variables (post-tiling fusion, Sec 4.3); mark nodes become
// attribute annotations (a "skipped" mark suppresses code generation of the
// original producer subtree, per Fig 3e).
//
//===----------------------------------------------------------------------===//

#ifndef AKG_SCHEDULE_ASTGEN_H
#define AKG_SCHEDULE_ASTGEN_H

#include "ir/PolyExtract.h"
#include "ir/Stmt.h"
#include "schedule/ScheduleTree.h"

namespace akg {
namespace sched {

struct AstGenOptions {
  /// Consult and fill the process-wide AST-generation memo (reduced
  /// projections and implication checks, AstGen.cpp). It changes only
  /// whether LPs re-run, never the AST, so it is not part of the kernel
  /// cache key. AKG_ASTGEN_MEMO=0 turns it off.
  bool UseMemo = true;
};

/// Generates the AST for the whole tree. The paper's mark tag "skipped"
/// suppresses the marked subtree.
ir::Stmt generateAst(const ScheduleTree &T, const ir::PolyProgram &P,
                     const AstGenOptions &Opts = AstGenOptions());

} // namespace sched
} // namespace akg

#endif // AKG_SCHEDULE_ASTGEN_H
