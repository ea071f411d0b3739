// postcard_lint_ast — optional clang LibTooling frontend (LLVM/Clang 14+).
//
// The token engine (lint.cc) is the authoritative gate and runs under any
// compiler; this frontend is an ADDITIVE second pass that re-checks the
// determinism family with real AST information, catching spellings the
// token scan cannot see through (aliases, `using namespace std::chrono`,
// template indirection). It is built only with -DPOSTCARD_LINT_AST=ON and
// is deliberately conservative: a finding here is always a finding, but
// silence here proves nothing the token pass did not already prove.
//
//   postcard_lint_ast -p <build dir> <src/...cc files>
//
// Suppression honors the same `// NOLINT(postcard-...: <reason>)`
// discipline, matched textually against the finding's line and the line
// above it (the reason discipline itself is enforced by the token pass).
#include <string>

#include "clang/ASTMatchers/ASTMatchFinder.h"
#include "clang/ASTMatchers/ASTMatchers.h"
#include "clang/Basic/SourceManager.h"
#include "clang/Tooling/CommonOptionsParser.h"
#include "clang/Tooling/Tooling.h"
#include "llvm/Support/CommandLine.h"
#include "llvm/Support/raw_ostream.h"

using namespace clang;
using namespace clang::ast_matchers;

namespace {

llvm::cl::OptionCategory kCategory("postcard_lint_ast options");

int g_findings = 0;

/// True when `line` (1-based) or the line above carries a postcard NOLINT
/// marker. Reason validation is the token pass's job.
bool suppressed_at(const SourceManager& sm, SourceLocation loc) {
  if (!loc.isValid() || !loc.isFileID()) return false;
  const FileID fid = sm.getFileID(loc);
  const unsigned line = sm.getSpellingLineNumber(loc);
  bool invalid = false;
  const llvm::StringRef buffer = sm.getBufferData(fid, &invalid);
  if (invalid) return false;
  llvm::SmallVector<llvm::StringRef, 0> lines;
  buffer.split(lines, '\n');
  for (unsigned l : {line, line > 1 ? line - 1 : line}) {
    if (l == 0 || l > lines.size()) continue;
    if (lines[l - 1].contains("NOLINT(postcard-") ||
        lines[l - 1].contains("NOLINTNEXTLINE(postcard-")) {
      return true;
    }
  }
  return false;
}

void report(const SourceManager& sm, SourceLocation loc, llvm::StringRef rule,
            llvm::StringRef message) {
  if (!loc.isValid() || !sm.isInMainFile(loc)) return;
  if (suppressed_at(sm, loc)) return;
  g_findings += 1;
  llvm::errs() << sm.getFilename(loc) << ":" << sm.getSpellingLineNumber(loc)
               << ": error: [" << rule << "] " << message << "\n";
}

class ClockCallback : public MatchFinder::MatchCallback {
 public:
  void run(const MatchFinder::MatchResult& result) override {
    const auto* call = result.Nodes.getNodeAs<CallExpr>("call");
    if (call == nullptr) return;
    report(*result.SourceManager, call->getBeginLoc(),
           "postcard-determinism-clock",
           "wall-clock read in the deterministic core (AST pass); bound "
           "work with a pivot count (lp::SolveBudget)");
  }
};

class RandCallback : public MatchFinder::MatchCallback {
 public:
  void run(const MatchFinder::MatchResult& result) override {
    const auto* call = result.Nodes.getNodeAs<CallExpr>("call");
    if (call == nullptr) return;
    report(*result.SourceManager, call->getBeginLoc(),
           "postcard-determinism-rand",
           "hidden-state random source (AST pass); use a seeded "
           "std::mt19937_64");
  }
};

class UnorderedIterCallback : public MatchFinder::MatchCallback {
 public:
  void run(const MatchFinder::MatchResult& result) override {
    const auto* loop = result.Nodes.getNodeAs<CXXForRangeStmt>("loop");
    if (loop == nullptr) return;
    report(*result.SourceManager, loop->getBeginLoc(),
           "postcard-determinism-unordered-iter",
           "range-for over std::unordered_{map,set} (AST pass); hash order "
           "must never reach committed state");
  }
};

}  // namespace

int main(int argc, const char** argv) {
  auto expected =
      tooling::CommonOptionsParser::create(argc, argv, kCategory);
  if (!expected) {
    llvm::errs() << llvm::toString(expected.takeError()) << "\n";
    return 2;
  }
  tooling::ClangTool tool(expected->getCompilations(),
                          expected->getSourcePathList());

  MatchFinder finder;
  ClockCallback clock_cb;
  RandCallback rand_cb;
  UnorderedIterCallback iter_cb;

  // steady_clock/system_clock/high_resolution_clock::now().
  finder.addMatcher(
      callExpr(callee(functionDecl(
                   hasName("now"),
                   hasDeclContext(recordDecl(hasAnyName(
                       "::std::chrono::steady_clock",
                       "::std::chrono::system_clock",
                       "::std::chrono::high_resolution_clock"))))))
          .bind("call"),
      &clock_cb);
  // rand()/srand() and random_device::operator().
  finder.addMatcher(
      callExpr(callee(functionDecl(hasAnyName("::rand", "::srand"))))
          .bind("call"),
      &rand_cb);
  finder.addMatcher(
      cxxOperatorCallExpr(
          callee(cxxMethodDecl(ofClass(hasName("::std::random_device")))))
          .bind("call"),
      &rand_cb);
  // Range-for whose range is an unordered container (possibly behind
  // references/aliases — hasUnqualifiedDesugaredType sees through both).
  finder.addMatcher(
      cxxForRangeStmt(
          hasRangeInit(expr(hasType(qualType(hasUnqualifiedDesugaredType(
              recordType(hasDeclaration(classTemplateSpecializationDecl(
                  hasAnyName("::std::unordered_map", "::std::unordered_set",
                             "::std::unordered_multimap",
                             "::std::unordered_multiset"))))))))))
          .bind("loop"),
      &iter_cb);

  const int run_status = tool.run(
      tooling::newFrontendActionFactory(&finder).get());
  if (run_status != 0) return run_status;
  llvm::errs() << "postcard_lint_ast: " << g_findings << " finding"
               << (g_findings == 1 ? "" : "s") << "\n";
  return g_findings == 0 ? 0 : 1;
}
