// postcard_lint — project-specific invariant checker.
//
// Four rule families protect guarantees the repo ships and tests
// dynamically (the pinned simplex trajectory, pruned-vs-full-sweep
// pricing equivalence, deterministic-replay failover) by making their
// preconditions machine-checked on every build:
//
//   postcard-determinism-*  (src/core, lp, linalg, charging, net, sim,
//                            flow, audit, runtime)
//     -clock          wall-clock reads (steady_clock/system_clock/...)
//                     anywhere but src/lp/stopwatch.h, the one telemetry
//                     timer every seconds counter goes through
//     -rand           rand()/srand()/std::random_device/random_shuffle
//                     and unseeded random engines
//     -unordered-iter iteration (range-for, .begin()) over
//                     std::unordered_{map,set} — hash order must never
//                     feed committed state or column/arc ordering
//     -pointer-order  pointer values used as ordering/hash keys
//                     (std::hash<T*>, std::less<T*>,
//                      reinterpret_cast<uintptr_t>)
//
//   postcard-layering-*  (all of src/)
//     -back-edge      #include against the layer order
//                     base < linalg < lp < {core,charging,net} <
//                     {sim,flow,audit} < runtime < {server,replication};
//                     sim/policy.h is a sanctioned interface header (it
//                     only includes downward and exists so policies in
//                     src/core can implement the scheduling interface)
//     -cycle          any include cycle between first-party files
//
//   postcard-wire-*  (src/server, src/replication)
//     -require-done   a function that constructs a ByteReader over a
//                     payload must reach require_done() before the
//                     reader goes out of scope (trailing garbage is a
//                     protocol violation, not noise)
//     -unchecked-count a raw reader.u16/u32/u64() result used as a
//                     reserve()/resize() size — counts must flow
//                     through ByteReader::length(min_element_bytes)
//
//   postcard-lock-*  (all of src/)
//     -unguarded      a data member of a class that owns a base::Mutex,
//                     written while a MutexLock is held, without a
//                     GUARDED_BY annotation
//
//   postcard-nolint-*  (suppression discipline; never suppressible)
//     -missing-reason // NOLINT(postcard-x) without ": <reason>"
//     -unknown-rule   // NOLINT(postcard-x: r) naming no known rule
//
// Suppression: `// NOLINT(postcard-<rule-or-family>: <reason>)` on the
// offending line, or `// NOLINTNEXTLINE(...)` on the line above. A family
// tag (e.g. postcard-determinism) suppresses every rule in the family.
// The reason is mandatory — an unexplained suppression is itself a
// finding, so every waiver in the tree documents why it is safe.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "lexer.h"

namespace postcard::lint {

struct Diagnostic {
  std::string file;  // display path, as given to add_file
  int line = 0;
  std::string rule;  // e.g. "postcard-determinism-clock"
  std::string message;
};

struct LintResult {
  std::vector<Diagnostic> findings;   // unsuppressed, file/line ordered
  int suppressed = 0;                 // findings silenced by a valid NOLINT
  int files = 0;
};

class Linter {
 public:
  /// Registers a file. `display_path` is used in diagnostics;
  /// `virtual_path` is the repo-relative path ("src/core/foo.cc") used for
  /// rule scoping and include resolution — for real files they agree, for
  /// fixtures the virtual path places the file in the tree under test.
  void add_file(const std::string& display_path,
                const std::string& virtual_path, const std::string& content);

  /// Runs every rule over every registered file.
  LintResult run() const;

  /// All rule identifiers, for --list-rules and the fixture tests.
  static std::vector<std::string> rule_ids();

  /// True when `tag` (a NOLINT argument) covers `rule`: exact match or a
  /// family prefix (postcard-determinism covers postcard-determinism-*).
  static bool tag_covers(const std::string& tag, const std::string& rule);

 private:
  struct File {
    std::string display;
    std::string vpath;
    std::string dir;  // first-level directory under src/, or ""
    LexResult lx;
  };
  std::vector<File> files_;
};

/// Reads a `// postcard-lint-fixture: <virtual path>` header from the
/// first line of a fixture file.
std::optional<std::string> fixture_virtual_path(const std::string& content);

}  // namespace postcard::lint
