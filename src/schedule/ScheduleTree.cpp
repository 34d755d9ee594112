//===- schedule/ScheduleTree.cpp - Schedule tree IR -----------------------===//

#include "schedule/ScheduleTree.h"

#include <cassert>
#include <sstream>

namespace akg {
namespace sched {

TreeNode *TreeNode::addChild(std::unique_ptr<TreeNode> C) {
  C->Parent = this;
  Children.push_back(std::move(C));
  return Children.back().get();
}

std::unique_ptr<TreeNode> makeDomain() {
  auto N = std::make_unique<TreeNode>();
  N->Kind = NodeKind::Domain;
  return N;
}

std::unique_ptr<TreeNode> makeBand(std::map<unsigned, StmtSchedule> Partial,
                                   bool Permutable,
                                   std::vector<bool> Coincident) {
  auto N = std::make_unique<TreeNode>();
  N->Kind = NodeKind::Band;
  N->Partial = std::move(Partial);
  N->Permutable = Permutable;
  if (!N->Partial.empty()) {
    unsigned W = static_cast<unsigned>(N->Partial.begin()->second.Rows.size());
    for ([[maybe_unused]] const auto &[Id, SS] : N->Partial)
      assert(SS.Rows.size() == W && "band rows must agree across statements");
    Coincident.resize(W, false);
  }
  N->Coincident = std::move(Coincident);
  return N;
}

std::unique_ptr<TreeNode> makeFilter(std::vector<unsigned> Stmts) {
  auto N = std::make_unique<TreeNode>();
  N->Kind = NodeKind::Filter;
  N->FilterStmts = std::move(Stmts);
  return N;
}

std::unique_ptr<TreeNode> makeSequence() {
  auto N = std::make_unique<TreeNode>();
  N->Kind = NodeKind::Sequence;
  return N;
}

std::unique_ptr<TreeNode> makeMark(std::string Tag) {
  auto N = std::make_unique<TreeNode>();
  N->Kind = NodeKind::Mark;
  N->MarkTag = std::move(Tag);
  return N;
}

std::unique_ptr<TreeNode> makeExtension(std::vector<ExtensionDecl> Exts) {
  auto N = std::make_unique<TreeNode>();
  N->Kind = NodeKind::Extension;
  N->Extensions = std::move(Exts);
  return N;
}

std::unique_ptr<TreeNode> cloneSubtree(const TreeNode *N) {
  auto C = std::make_unique<TreeNode>();
  C->Kind = N->Kind;
  C->FilterStmts = N->FilterStmts;
  C->Partial = N->Partial;
  C->Permutable = N->Permutable;
  C->Coincident = N->Coincident;
  C->MarkTag = N->MarkTag;
  C->Extensions = N->Extensions;
  C->ParamConstraints = N->ParamConstraints;
  for (const auto &Child : N->Children)
    C->addChild(cloneSubtree(Child.get()));
  return C;
}

ScheduleTree ScheduleTree::clone() const {
  ScheduleTree T;
  if (Root)
    T.setRoot(cloneSubtree(Root.get()));
  return T;
}

StmtSchedule identitySchedule(unsigned NumIters) {
  StmtSchedule S;
  for (unsigned R = 0; R < NumIters; ++R) {
    ScheduleRow Row;
    Row.Coeffs.assign(NumIters, 0);
    Row.Coeffs[R] = 1;
    S.Rows.push_back(std::move(Row));
  }
  return S;
}

void walkTree(TreeNode *N, const std::function<bool(TreeNode *)> &Fn) {
  if (!N || !Fn(N))
    return;
  for (auto &C : N->Children)
    walkTree(C.get(), Fn);
}

void walkTree(const TreeNode *N,
              const std::function<bool(const TreeNode *)> &Fn) {
  if (!N || !Fn(N))
    return;
  for (const auto &C : N->Children)
    walkTree(static_cast<const TreeNode *>(C.get()), Fn);
}

TreeNode *findNode(TreeNode *Root,
                   const std::function<bool(TreeNode *)> &Pred) {
  TreeNode *Found = nullptr;
  walkTree(Root, [&](TreeNode *N) {
    if (Found)
      return false;
    if (Pred(N)) {
      Found = N;
      return false;
    }
    return true;
  });
  return Found;
}

std::vector<unsigned> activeStatements(const TreeNode *N) {
  // Walk up collecting filters (innermost wins) and extensions.
  std::vector<const TreeNode *> Path;
  for (const TreeNode *P = N; P; P = P->Parent)
    Path.push_back(P);
  // From the root down: start with "all" (unknown), refine by filters, add
  // extensions.
  bool HaveSet = false;
  std::vector<unsigned> Active;
  for (auto It = Path.rbegin(); It != Path.rend(); ++It) {
    const TreeNode *P = *It;
    if (P->Kind == NodeKind::Filter) {
      if (!HaveSet) {
        Active = P->FilterStmts;
        HaveSet = true;
      } else {
        std::vector<unsigned> Keep;
        for (unsigned S : P->FilterStmts)
          for (unsigned A : Active)
            if (A == S)
              Keep.push_back(S);
        Active = Keep;
      }
    } else if (P->Kind == NodeKind::Extension) {
      for (const ExtensionDecl &E : P->Extensions) {
        bool Seen = false;
        for (unsigned A : Active)
          if (A == E.StmtId)
            Seen = true;
        if (!Seen)
          Active.push_back(E.StmtId);
        HaveSet = true;
      }
    }
  }
  return Active;
}

static void printNode(const TreeNode *N, std::ostringstream &OS,
                      unsigned Indent) {
  std::string Pad(Indent * 2, ' ');
  switch (N->Kind) {
  case NodeKind::Domain:
    OS << Pad << "Domain\n";
    break;
  case NodeKind::Band: {
    OS << Pad << "Band{";
    bool FirstStmt = true;
    for (const auto &[Id, SS] : N->Partial) {
      if (!FirstStmt)
        OS << "; ";
      FirstStmt = false;
      OS << "S" << Id << " -> (";
      for (unsigned R = 0; R < SS.Rows.size(); ++R) {
        if (R)
          OS << ", ";
        const ScheduleRow &Row = SS.Rows[R];
        bool First = true;
        std::ostringstream Term;
        for (unsigned C = 0; C < Row.Coeffs.size(); ++C) {
          if (Row.Coeffs[C] == 0)
            continue;
          if (!First)
            Term << "+";
          if (Row.Coeffs[C] != 1)
            Term << Row.Coeffs[C] << "*";
          Term << "i" << C;
          First = false;
        }
        if (Row.Const != 0 || First)
          Term << (First ? "" : "+") << Row.Const;
        if (Row.Denom > 1)
          OS << "floor((" << Term.str() << ")/" << Row.Denom << ")";
        else
          OS << Term.str();
      }
      OS << ")";
    }
    OS << "}" << (N->Permutable ? " permutable" : "") << "\n";
    break;
  }
  case NodeKind::Filter: {
    OS << Pad << "Filter{";
    for (unsigned I = 0; I < N->FilterStmts.size(); ++I)
      OS << (I ? "," : "") << "S" << N->FilterStmts[I];
    OS << "}\n";
    break;
  }
  case NodeKind::Sequence:
    OS << Pad << "Sequence\n";
    break;
  case NodeKind::SetNode:
    OS << Pad << "Set\n";
    break;
  case NodeKind::Mark:
    OS << Pad << "Mark{\"" << N->MarkTag << "\"}\n";
    break;
  case NodeKind::Extension: {
    OS << Pad << "Extension{";
    for (unsigned I = 0; I < N->Extensions.size(); ++I)
      OS << (I ? "," : "") << "S" << N->Extensions[I].StmtId;
    OS << "}\n";
    break;
  }
  case NodeKind::Context:
    OS << Pad << "Context\n";
    break;
  }
  for (const auto &C : N->Children)
    printNode(C.get(), OS, Indent + 1);
}

std::string ScheduleTree::str() const {
  std::ostringstream OS;
  if (Root)
    printNode(Root.get(), OS, 0);
  return OS.str();
}

} // namespace sched
} // namespace akg
