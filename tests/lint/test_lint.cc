// postcard_lint's own test suite (ctest label `lint`):
//
//  * one fixture TU per rule with EXACT diagnostic counts — a rule that
//    fires twice, or on the clean counterpart inside the same fixture, is
//    a bug in the linter, not noise;
//  * the suppression discipline (justified NOLINT suppresses, bare NOLINT
//    and unknown rules are findings themselves);
//  * the zero-findings gate over the real tree: src/ at HEAD must lint
//    clean, so any new violation fails ctest even before the CI scripts
//    run the standalone binary.
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint.h"

namespace postcard::lint {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

fs::path fixture_dir() { return fs::path(POSTCARD_LINT_FIXTURES); }

/// Lints one fixture file (scoped by its `// postcard-lint-fixture:`
/// header) and returns the result.
LintResult lint_fixture(const std::string& name) {
  const fs::path path = fixture_dir() / name;
  const std::string content = read_file(path);
  const auto vpath = fixture_virtual_path(content);
  EXPECT_TRUE(vpath.has_value()) << name << " lacks a fixture header";
  Linter linter;
  linter.add_file(name, *vpath, content);
  return linter.run();
}

std::map<std::string, int> histogram(const LintResult& r) {
  std::map<std::string, int> h;
  for (const Diagnostic& d : r.findings) h[d.rule] += 1;
  return h;
}

struct FixtureCase {
  const char* file;
  std::map<std::string, int> expected;  // rule -> exact count
  int suppressed = 0;
};

// The table IS the contract: every rule family has a firing fixture and
// shares its file with (or pairs with) a clean no-false-positive case.
const FixtureCase kCases[] = {
    {"determinism_clock.cc", {{"postcard-determinism-clock", 2}}, 0},
    {"determinism_clock_budget_exempt.cc",
     {{"postcard-determinism-clock", 2}},
     0},
    {"determinism_clock_sanctioned.cc", {}, 0},
    {"determinism_rand.cc", {{"postcard-determinism-rand", 3}}, 0},
    {"determinism_unordered_iter.cc",
     {{"postcard-determinism-unordered-iter", 2}},
     0},
    {"determinism_pointer_order.cc",
     {{"postcard-determinism-pointer-order", 2}},
     0},
    {"layering_back_edge.cc", {{"postcard-layering-back-edge", 1}}, 0},
    {"wire_require_done.cc", {{"postcard-wire-require-done", 1}}, 0},
    {"wire_unchecked_count.cc", {{"postcard-wire-unchecked-count", 1}}, 0},
    {"lock_unguarded.cc", {{"postcard-lock-unguarded", 1}}, 0},
    {"nolint_missing_reason.cc",
     {{"postcard-nolint-missing-reason", 1}, {"postcard-determinism-clock", 1}},
     0},
    {"nolint_unknown_rule.cc", {{"postcard-nolint-unknown-rule", 1}}, 0},
    {"suppressed_clock.cc", {}, 1},
    {"clean.cc", {}, 0},
};

TEST(LintFixtures, EachFixtureTriggersExactlyItsIntendedDiagnostics) {
  for (const FixtureCase& c : kCases) {
    const LintResult r = lint_fixture(c.file);
    EXPECT_EQ(histogram(r), c.expected) << c.file;
    EXPECT_EQ(r.suppressed, c.suppressed) << c.file;
  }
}

TEST(LintFixtures, OnlyTheSanctionedFileMayReadTheClock) {
  // The sanctioned fixture's clock reads, linted under other paths of the
  // deterministic core: each of its two steady_clock uses is reported.
  const std::string content =
      read_file(fixture_dir() / "determinism_clock_sanctioned.cc");
  for (const char* vpath : {"src/lp/stopwatch.cc", "src/lp/simplex.h",
                            "src/core/stopwatch.h", "src/runtime/runtime.cc"}) {
    Linter linter;
    linter.add_file("determinism_clock_sanctioned.cc", vpath, content);
    EXPECT_EQ(histogram(linter.run()),
              (std::map<std::string, int>{{"postcard-determinism-clock", 2}}))
        << vpath;
  }
}

TEST(LintFixtures, IncludeCyclePairIsReportedOnce) {
  Linter linter;
  for (const char* name : {"layering_cycle_a.h", "layering_cycle_b.h"}) {
    const std::string content = read_file(fixture_dir() / name);
    const auto vpath = fixture_virtual_path(content);
    ASSERT_TRUE(vpath.has_value()) << name;
    linter.add_file(name, *vpath, content);
  }
  const LintResult r = linter.run();
  const std::map<std::string, int> expected = {{"postcard-layering-cycle", 1}};
  EXPECT_EQ(histogram(r), expected);
}

TEST(LintFixtures, SameLineNolintWithReasonSuppresses) {
  Linter linter;
  linter.add_file(
      "inline", "src/core/inline.cc",
      "#include <chrono>\n"
      "double t() {\n"
      "  return std::chrono::steady_clock::now().time_since_epoch()"
      ".count();  // NOLINT(postcard-determinism-clock: telemetry only)\n"
      "}\n");
  const LintResult r = linter.run();
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.suppressed, 1);
}

TEST(LintFixtures, FamilyTagCoversItsSubRules) {
  EXPECT_TRUE(Linter::tag_covers("postcard-determinism",
                                 "postcard-determinism-clock"));
  EXPECT_TRUE(Linter::tag_covers("postcard-wire",
                                 "postcard-wire-require-done"));
  EXPECT_TRUE(Linter::tag_covers("postcard-determinism-clock",
                                 "postcard-determinism-clock"));
  EXPECT_FALSE(Linter::tag_covers("postcard-determinism",
                                  "postcard-wire-require-done"));
  // Prefix must align on a '-' boundary, not mid-word.
  EXPECT_FALSE(Linter::tag_covers("postcard-det",
                                  "postcard-determinism-clock"));
}

TEST(LintFixtures, RuleListIsStable) {
  const std::vector<std::string> rules = Linter::rule_ids();
  EXPECT_EQ(rules.size(), 11u);
  for (const std::string& r : rules) {
    EXPECT_EQ(r.rfind("postcard-", 0), 0u) << r;
  }
}

// The gate the whole PR leans on: the real tree must be clean. Every
// finding printed below is either a bug to fix or a site that needs a
// justified NOLINT.
TEST(LintRealTree, SrcLintsCleanAtHead) {
  const fs::path root = fs::path(POSTCARD_SOURCE_ROOT);
  const fs::path src = root / "src";
  ASSERT_TRUE(fs::is_directory(src));
  std::vector<fs::path> paths;
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cc") continue;
    paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  ASSERT_GT(paths.size(), 50u) << "tree walk found suspiciously few files";

  Linter linter;
  for (const fs::path& p : paths) {
    const std::string vpath =
        fs::absolute(p).lexically_normal().lexically_relative(
            fs::absolute(root).lexically_normal()).generic_string();
    linter.add_file(p.string(), vpath, read_file(p));
  }
  const LintResult r = linter.run();
  for (const Diagnostic& d : r.findings) {
    ADD_FAILURE() << d.file << ":" << d.line << " [" << d.rule << "] "
                  << d.message;
  }
  EXPECT_GT(r.suppressed, 0) << "the tree carries justified NOLINTs; zero "
                                "suppressions means they stopped parsing";
}

}  // namespace
}  // namespace postcard::lint
