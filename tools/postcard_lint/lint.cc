#include "lint.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace postcard::lint {
namespace {

using Toks = std::vector<Token>;

// ---------------------------------------------------------------------------
// Scoping.

const std::set<std::string> kDeterminismDirs = {
    "core", "lp", "linalg", "charging", "net", "sim", "flow", "audit",
    "runtime"};
const std::set<std::string> kWireDirs = {"server", "replication"};

/// Layer ranks; an include may only point at an equal or lower rank.
const std::map<std::string, int> kLayerRank = {
    {"base", 0},    {"linalg", 1}, {"lp", 2},      {"net", 3},
    {"charging", 3}, {"core", 3},  {"sim", 4},     {"flow", 4},
    {"audit", 4},   {"runtime", 5}, {"server", 6}, {"replication", 6},
};

/// Interface headers exempt from the back-edge rule: sim/policy.h is the
/// scheduling-policy interface (SchedulingPolicy, ScheduleOutcome,
/// AuditControls). It only includes downward (charging/, net/) — which the
/// layering rules themselves verify — and exists precisely so that the
/// policies in src/core can implement it without src/core depending on
/// the simulator.
const std::set<std::string> kInterfaceHeaders = {"sim/policy.h"};

/// The one file of the deterministic core that may read a clock: the
/// telemetry timer every seconds counter goes through.
const std::string kClockFile = "src/lp/stopwatch.h";

const std::set<std::string> kClockIdents = {
    "steady_clock", "system_clock", "high_resolution_clock", "gettimeofday",
    "clock_gettime", "timespec_get"};

const std::set<std::string> kRandomEngines = {
    "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
    "default_random_engine", "ranlux24", "ranlux48", "knuth_b"};

const std::set<std::string> kUnorderedContainers = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

const std::set<std::string> kRuleFamilies = {
    "postcard-determinism", "postcard-layering", "postcard-wire",
    "postcard-lock"};

std::string dir_of(const std::string& vpath) {
  if (vpath.rfind("src/", 0) != 0) return "";
  const std::size_t slash = vpath.find('/', 4);
  if (slash == std::string::npos) return "";
  return vpath.substr(4, slash - 4);
}

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokKind::kIdent && t.text == text;
}
bool is_punct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

/// Index just past a balanced `<...>` starting at `i` (toks[i] == "<").
/// `>>` closes two levels. Returns `i` unchanged if toks[i] is not "<".
std::size_t skip_angles(const Toks& t, std::size_t i) {
  if (i >= t.size() || !is_punct(t[i], "<")) return i;
  int depth = 0;
  while (i < t.size()) {
    if (is_punct(t[i], "<")) depth += 1;
    else if (is_punct(t[i], ">")) depth -= 1;
    else if (is_punct(t[i], ">>")) depth -= 2;
    else if (is_punct(t[i], ";")) return i;  // malformed; bail
    ++i;
    if (depth <= 0) return i;
  }
  return i;
}

/// Index just past a balanced `(...)` starting at `i` (toks[i] == "(").
std::size_t skip_parens(const Toks& t, std::size_t i) {
  if (i >= t.size() || !is_punct(t[i], "(")) return i;
  int depth = 0;
  while (i < t.size()) {
    if (is_punct(t[i], "(")) depth += 1;
    else if (is_punct(t[i], ")")) depth -= 1;
    ++i;
    if (depth <= 0) return i;
  }
  return i;
}

/// Index just past a balanced `{...}` starting at `i` (toks[i] == "{").
std::size_t skip_braces(const Toks& t, std::size_t i) {
  if (i >= t.size() || !is_punct(t[i], "{")) return i;
  int depth = 0;
  while (i < t.size()) {
    if (is_punct(t[i], "{")) depth += 1;
    else if (is_punct(t[i], "}")) depth -= 1;
    ++i;
    if (depth <= 0) return i;
  }
  return i;
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t");
  std::size_t e = s.find_last_not_of(" \t");
  if (b == std::string::npos) return "";
  return s.substr(b, e - b + 1);
}

// ---------------------------------------------------------------------------
// Suppressions.

struct Suppression {
  int line = 0;  // line the suppression applies to
  std::string tag;
};

/// Parses NOLINT / NOLINTNEXTLINE comments. Valid postcard suppressions go
/// to `out`; malformed ones become diagnostics (never suppressible).
void collect_suppressions(const std::string& file,
                          const std::vector<Comment>& comments,
                          std::vector<Suppression>* out,
                          std::vector<Diagnostic>* diags) {
  const std::vector<std::string> known = Linter::rule_ids();
  for (const Comment& c : comments) {
    for (const char* marker : {"NOLINTNEXTLINE(", "NOLINT("}) {
      const std::size_t at = c.text.find(marker);
      if (at == std::string::npos) continue;
      const bool next_line = std::string(marker).rfind("NOLINTNEXT", 0) == 0;
      const std::size_t open = at + std::string(marker).size();
      const std::size_t close = c.text.find(')', open);
      if (close == std::string::npos) break;
      const std::string body = c.text.substr(open, close - open);
      if (body.rfind("postcard-", 0) != 0) break;  // clang-tidy's domain
      const std::size_t colon = body.find(':');
      const std::string tag = trim(colon == std::string::npos
                                       ? body
                                       : body.substr(0, colon));
      const std::string reason =
          colon == std::string::npos ? "" : trim(body.substr(colon + 1));
      if (reason.empty()) {
        diags->push_back({file, c.line, "postcard-nolint-missing-reason",
                          "NOLINT(" + tag +
                              ") has no ': <reason>' — every postcard "
                              "suppression must say why it is safe"});
        break;
      }
      const bool family = kRuleFamilies.count(tag) > 0;
      const bool exact =
          std::find(known.begin(), known.end(), tag) != known.end();
      if (!family && !exact) {
        diags->push_back({file, c.line, "postcard-nolint-unknown-rule",
                          "NOLINT names unknown rule '" + tag +
                              "' (see postcard_lint --list-rules)"});
        break;
      }
      out->push_back({next_line ? c.line + 1 : c.line, tag});
      break;  // one suppression per comment
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism rules.

void check_clocks(const std::string& file, const Toks& t,
                  std::vector<Diagnostic>* diags) {
  for (const Token& tok : t) {
    if (tok.kind == TokKind::kIdent && kClockIdents.count(tok.text) > 0) {
      diags->push_back(
          {file, tok.line, "postcard-determinism-clock",
           "wall-clock read '" + tok.text +
               "' in the deterministic core; bound work with a pivot "
               "count (lp::SolveBudget) and time telemetry with "
               "lp::Stopwatch (" +
               kClockFile + ")"});
    }
  }
}

void check_rand(const std::string& file, const Toks& t,
                std::vector<Diagnostic>* diags) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    const Token& tok = t[i];
    if (tok.kind != TokKind::kIdent) continue;
    const bool member_access =
        i > 0 && (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->"));
    if ((tok.text == "rand" || tok.text == "srand") && !member_access &&
        i + 1 < t.size() && is_punct(t[i + 1], "(")) {
      diags->push_back({file, tok.line, "postcard-determinism-rand",
                        "'" + tok.text +
                            "()' draws from hidden global state; use a "
                            "seeded std::mt19937_64"});
      continue;
    }
    if (tok.text == "random_device" && !member_access) {
      diags->push_back({file, tok.line, "postcard-determinism-rand",
                        "std::random_device is nondeterministic by design; "
                        "seed engines from workload/config seeds"});
      continue;
    }
    if (tok.text == "random_shuffle" && !member_access) {
      diags->push_back({file, tok.line, "postcard-determinism-rand",
                        "random_shuffle uses an unspecified source; use "
                        "std::shuffle with a seeded engine"});
      continue;
    }
    if (kRandomEngines.count(tok.text) > 0 && !member_access) {
      // `mt19937_64 rng(seed)` is fine; `mt19937_64 rng;` seeds from the
      // default constant but reads as "I didn't think about the seed".
      if (i + 2 < t.size() && t[i + 1].kind == TokKind::kIdent &&
          is_punct(t[i + 2], ";")) {
        diags->push_back({file, tok.line, "postcard-determinism-rand",
                          "default-constructed random engine '" +
                              t[i + 1].text +
                              "'; pass an explicit workload-derived seed"});
      }
    }
  }
}

/// Names declared with an unordered container type in this file.
std::set<std::string> unordered_decls(const Toks& t) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent ||
        kUnorderedContainers.count(t[i].text) == 0) {
      continue;
    }
    std::size_t j = i + 1;
    if (j < t.size() && is_punct(t[j], "<")) j = skip_angles(t, j);
    while (j < t.size() &&
           (is_punct(t[j], "&") || is_punct(t[j], "*") ||
            is_ident(t[j], "const"))) {
      ++j;
    }
    if (j < t.size() && t[j].kind == TokKind::kIdent) {
      // `unordered_map<...> foo(` is a function returning the container,
      // not a variable; skip those.
      if (j + 1 < t.size() && is_punct(t[j + 1], "(")) continue;
      names.insert(t[j].text);
    }
  }
  return names;
}

void check_unordered_iter(const std::string& file, const Toks& t,
                          const std::set<std::string>& visible,
                          std::vector<Diagnostic>* diags) {
  auto flag = [&](int line, const std::string& what) {
    diags->push_back(
        {file, line, "postcard-determinism-unordered-iter",
         "iteration over unordered container " + what +
             " — hash order must never reach committed state, column/arc "
             "ordering, or serialized bytes; use std::map / a sorted "
             "vector, or justify with NOLINT(postcard-determinism: ...)"});
  };
  for (std::size_t i = 0; i < t.size(); ++i) {
    // Range-for whose sequence mentions an unordered-declared name.
    if (is_ident(t[i], "for") && i + 1 < t.size() && is_punct(t[i + 1], "(")) {
      const std::size_t end = skip_parens(t, i + 1);
      // Find the range-for ':' at paren depth 1.
      int depth = 0;
      std::size_t colon = 0;
      for (std::size_t j = i + 1; j < end; ++j) {
        if (is_punct(t[j], "(")) depth += 1;
        else if (is_punct(t[j], ")")) depth -= 1;
        else if (is_punct(t[j], ";")) { colon = 0; break; }  // classic for
        else if (is_punct(t[j], ":") && depth == 1) { colon = j; break; }
      }
      if (colon != 0) {
        for (std::size_t j = colon + 1; j < end; ++j) {
          if (t[j].kind == TokKind::kIdent &&
              (visible.count(t[j].text) > 0 ||
               kUnorderedContainers.count(t[j].text) > 0)) {
            flag(t[i].line, "'" + t[j].text + "'");
            break;
          }
        }
      }
      continue;
    }
    // name.begin() / name.cbegin() on an unordered-declared name.
    if (t[i].kind == TokKind::kIdent && visible.count(t[i].text) > 0 &&
        i + 3 < t.size() &&
        (is_punct(t[i + 1], ".") || is_punct(t[i + 1], "->")) &&
        (is_ident(t[i + 2], "begin") || is_ident(t[i + 2], "cbegin")) &&
        is_punct(t[i + 3], "(")) {
      flag(t[i].line, "'" + t[i].text + "' via begin()");
    }
  }
}

void check_pointer_order(const std::string& file, const Toks& t,
                         std::vector<Diagnostic>* diags) {
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (is_ident(t[i], "reinterpret_cast") && is_punct(t[i + 1], "<")) {
      const std::size_t end = skip_angles(t, i + 1);
      for (std::size_t j = i + 2; j < end; ++j) {
        if (is_ident(t[j], "uintptr_t") || is_ident(t[j], "intptr_t")) {
          diags->push_back(
              {file, t[i].line, "postcard-determinism-pointer-order",
               "pointer value converted to an integer; addresses vary "
               "run to run and must never order or key committed state"});
          break;
        }
      }
      continue;
    }
    if ((is_ident(t[i], "hash") || is_ident(t[i], "less")) &&
        is_punct(t[i + 1], "<") && i >= 2 && is_punct(t[i - 1], "::") &&
        is_ident(t[i - 2], "std")) {
      const std::size_t end = skip_angles(t, i + 1);
      for (std::size_t j = i + 2; j + 1 < end; ++j) {
        if (is_punct(t[j], "*") &&
            (is_punct(t[j + 1], ">") || is_punct(t[j + 1], ">>") ||
             is_punct(t[j + 1], ","))) {
          diags->push_back(
              {file, t[i].line, "postcard-determinism-pointer-order",
               "std::" + t[i].text +
                   " over a pointer type hashes/orders by address — "
                   "nondeterministic across runs"});
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Wire rules.

void check_wire_require_done(const std::string& file, const Toks& t,
                             std::vector<Diagnostic>* diags) {
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!is_ident(t[i], "ByteReader")) continue;
    // A declaration `ByteReader name(...)` or `ByteReader name{...}`;
    // `ByteReader&` parameters are decode helpers whose caller owns the
    // require_done obligation, and `ByteReader(` is the class's own ctor.
    if (t[i + 1].kind != TokKind::kIdent) continue;
    if (!is_punct(t[i + 2], "(") && !is_punct(t[i + 2], "{")) continue;
    const std::string name = t[i + 1].text;
    // Scan to the end of the enclosing scope for `name.require_done()`.
    // The check is bound to THIS reader's name on purpose: a different
    // reader's require_done() in the same function must not satisfy it.
    int depth = 0;
    bool found = false;
    for (std::size_t j = i + 2; j + 2 < t.size(); ++j) {
      if (is_punct(t[j], "{")) depth += 1;
      else if (is_punct(t[j], "}")) {
        depth -= 1;
        if (depth < 0) break;  // declaration scope closed
      } else if (t[j].kind == TokKind::kIdent && t[j].text == name &&
                 is_punct(t[j + 1], ".") &&
                 is_ident(t[j + 2], "require_done")) {
        found = true;
        break;
      }
    }
    if (!found) {
      diags->push_back(
          {file, t[i].line, "postcard-wire-require-done",
           "ByteReader '" + name +
               "' never reaches require_done() in this scope — trailing "
               "bytes after a payload are a protocol violation and must "
               "be rejected"});
    }
  }
}

void check_wire_unchecked_count(const std::string& file, const Toks& t,
                                std::vector<Diagnostic>* diags) {
  const std::set<std::string> raw_reads = {"u16", "u32", "u64"};
  // Linear taint scan: names assigned from a raw fixed-width read are
  // tainted counts until reassigned from length() or anything else.
  std::set<std::string> tainted;
  auto rhs_kind = [&](std::size_t from) {
    // Examines tokens until ';': 1 = raw read, 2 = length(), 0 = other.
    for (std::size_t j = from; j < t.size() && !is_punct(t[j], ";"); ++j) {
      if ((is_punct(t[j], ".") || is_punct(t[j], "->")) && j + 2 < t.size() &&
          t[j + 1].kind == TokKind::kIdent && is_punct(t[j + 2], "(")) {
        if (raw_reads.count(t[j + 1].text) > 0) return 1;
        if (t[j + 1].text == "length") return 2;
      }
    }
    return 0;
  };
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind == TokKind::kIdent && is_punct(t[i + 1], "=")) {
      if (rhs_kind(i + 2) == 1) tainted.insert(t[i].text);
      else tainted.erase(t[i].text);
    }
    // .reserve( / .resize( with a tainted or raw-read argument.
    if ((is_punct(t[i], ".") || is_punct(t[i], "->")) && i + 2 < t.size() &&
        (is_ident(t[i + 1], "reserve") || is_ident(t[i + 1], "resize")) &&
        is_punct(t[i + 2], "(")) {
      const std::size_t end = skip_parens(t, i + 2);
      for (std::size_t j = i + 3; j < end; ++j) {
        const bool raw_call =
            (is_punct(t[j], ".") || is_punct(t[j], "->")) &&
            j + 2 < end && t[j + 1].kind == TokKind::kIdent &&
            raw_reads.count(t[j + 1].text) > 0 && is_punct(t[j + 2], "(");
        const bool tainted_name =
            t[j].kind == TokKind::kIdent && tainted.count(t[j].text) > 0;
        if (raw_call || tainted_name) {
          diags->push_back(
              {file, t[i + 1].line, "postcard-wire-unchecked-count",
               t[i + 1].text +
                   "() sized by a raw wire integer; counts must flow "
                   "through ByteReader::length(min_element_bytes) so a "
                   "lying frame cannot trigger a huge allocation"});
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Lock rule.

struct ClassInfo {
  std::string name;
  std::string file;  // display path of the defining file
  bool has_mutex = false;
  std::set<std::string> unguarded;  // mutable fields without GUARDED_BY
  std::set<std::string> guarded;
};

const std::set<std::string> kLockExemptTypes = {
    "Mutex",  "MutexLock", "atomic",   "thread", "jthread",
    "CondVar", "condition_variable",   "once_flag", "future", "promise"};

/// Collects field information for classes/structs that own a base::Mutex.
/// Inline method bodies are returned for the write scan.
struct MethodBody {
  const ClassInfo* cls = nullptr;
  std::size_t begin = 0;  // token index of '{'
  std::size_t end = 0;    // one past matching '}'
};

void collect_classes(const std::string& file, const Toks& t,
                     std::map<std::string, ClassInfo>* classes,
                     std::vector<std::pair<std::string, std::pair<std::size_t,
                                                                  std::size_t>>>*
                         inline_bodies) {
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (!(is_ident(t[i], "class") || is_ident(t[i], "struct"))) continue;
    if (t[i + 1].kind != TokKind::kIdent) continue;
    const std::string name = t[i + 1].text;
    // Find the body '{' before any ';' (skip base clause tokens).
    std::size_t j = i + 2;
    while (j < t.size() && !is_punct(t[j], "{") && !is_punct(t[j], ";")) ++j;
    if (j >= t.size() || is_punct(t[j], ";")) continue;  // forward decl
    const std::size_t body_end = skip_braces(t, j);

    ClassInfo info;
    info.name = name;
    info.file = file;
    std::vector<std::pair<std::size_t, std::size_t>> bodies;

    // Walk statements at body depth 1.
    std::size_t k = j + 1;
    while (k + 1 < body_end) {
      const std::size_t stmt_begin = k;
      bool is_function = false;
      std::size_t brace_at = 0;
      int angle = 0;
      std::size_t guard_at = 0;  // GUARDED_BY position, if any
      // Scan one statement.
      while (k < body_end - 1) {
        const Token& tok = t[k];
        if (is_punct(tok, "<") && k > stmt_begin &&
            t[k - 1].kind == TokKind::kIdent) {
          angle += 1;
        } else if (angle > 0 && is_punct(tok, ">")) {
          angle -= 1;
        } else if (angle > 0 && is_punct(tok, ">>")) {
          angle -= 2;
          if (angle < 0) angle = 0;
        } else if (is_ident(tok, "GUARDED_BY") ||
                   is_ident(tok, "PT_GUARDED_BY")) {
          guard_at = k;
          k = skip_parens(t, k + 1);
          continue;
        } else if (angle == 0 && is_punct(tok, "(") && guard_at == 0) {
          // Top-level parens before '=' mean a function (or ctor).
          bool saw_eq = false;
          for (std::size_t b = stmt_begin; b < k; ++b) {
            if (is_punct(t[b], "=")) { saw_eq = true; break; }
          }
          if (!saw_eq) is_function = true;
          k = skip_parens(t, k);
          continue;
        } else if (is_punct(tok, "{")) {
          brace_at = k;
          const std::size_t after = skip_braces(t, k);
          k = after;
          if (is_function) {
            bodies.push_back({brace_at, after});
            // A method body ends its statement without ';'.
            break;
          }
          continue;
        } else if (is_punct(tok, ";")) {
          k += 1;
          break;
        }
        k += 1;
      }
      const std::size_t stmt_end = k;
      if (is_function) continue;
      // Field statement: find the declarator name.
      std::string field;
      bool exempt = false;
      for (std::size_t b = stmt_begin; b < stmt_end; ++b) {
        if (t[b].kind == TokKind::kIdent) {
          if (kLockExemptTypes.count(t[b].text) > 0 ||
              t[b].text == "static" || t[b].text == "constexpr" ||
              t[b].text == "const" || t[b].text == "using" ||
              t[b].text == "typedef" || t[b].text == "friend" ||
              t[b].text == "enum") {
            exempt = true;
          }
          if (t[b].text == "Mutex") info.has_mutex = true;
          const bool at_decl_end =
              b + 1 < stmt_end &&
              (is_punct(t[b + 1], ";") || is_punct(t[b + 1], "=") ||
               is_punct(t[b + 1], "{") || is_punct(t[b + 1], "[") ||
               is_ident(t[b + 1], "GUARDED_BY") ||
               is_ident(t[b + 1], "PT_GUARDED_BY"));
          if (at_decl_end && field.empty() &&
              t[b].text.size() > 1 && t[b].text.back() == '_') {
            field = t[b].text;
          }
        } else if (is_punct(t[b], "&")) {
          exempt = true;  // reference members cannot be reseated
        }
      }
      if (field.empty() || exempt) continue;
      if (guard_at != 0) info.guarded.insert(field);
      else info.unguarded.insert(field);
    }

    if (info.has_mutex) {
      (*classes)[name] = info;
      for (const auto& b : bodies) {
        inline_bodies->push_back({name, b});
      }
    }
    // Do not skip the body: nested classes are found by the same loop.
  }
}

/// Scans one method body of `cls` for writes to unguarded fields while a
/// MutexLock (or std lock guard) is held.
void scan_body_for_unguarded_writes(const std::string& file, const Toks& t,
                                    std::size_t begin, std::size_t end,
                                    const ClassInfo& cls,
                                    std::vector<Diagnostic>* diags) {
  static const std::set<std::string> kLockDecls = {
      "MutexLock", "lock_guard", "unique_lock", "scoped_lock"};
  static const std::set<std::string> kWriteOps = {
      "=", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "<<=", ">>=",
      "++", "--"};
  int depth = 0;
  std::vector<int> lock_depths;  // depth at each active lock's declaration
  for (std::size_t i = begin; i < end; ++i) {
    if (is_punct(t[i], "{")) {
      depth += 1;
    } else if (is_punct(t[i], "}")) {
      depth -= 1;
      while (!lock_depths.empty() && lock_depths.back() > depth) {
        lock_depths.pop_back();
      }
    } else if (t[i].kind == TokKind::kIdent &&
               kLockDecls.count(t[i].text) > 0 && i + 1 < end) {
      // `MutexLock lock(mu_)` or `std::unique_lock<std::mutex> lk(...)`.
      std::size_t j = i + 1;
      if (is_punct(t[j], "<")) j = skip_angles(t, j);
      if (j < end && t[j].kind == TokKind::kIdent) {
        lock_depths.push_back(depth);
      }
    } else if (!lock_depths.empty() && t[i].kind == TokKind::kIdent &&
               cls.unguarded.count(t[i].text) > 0) {
      const bool self_field =
          i == begin || (!is_punct(t[i - 1], ".") && !is_punct(t[i - 1], "->")) ||
          (i >= 2 && is_punct(t[i - 1], "->") && is_ident(t[i - 2], "this"));
      if (!self_field) continue;
      const bool written =
          (i + 1 < end && t[i + 1].kind == TokKind::kPunct &&
           kWriteOps.count(t[i + 1].text) > 0) ||
          (i > begin && t[i - 1].kind == TokKind::kPunct &&
           (t[i - 1].text == "++" || t[i - 1].text == "--"));
      if (written) {
        diags->push_back(
            {file, t[i].line, "postcard-lock-unguarded",
             "field '" + t[i].text + "' of " + cls.name +
                 " is written while a lock is held but carries no "
                 "GUARDED_BY annotation (see "
                 "src/base/thread_annotations.h)"});
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Linter.

void Linter::add_file(const std::string& display_path,
                      const std::string& virtual_path,
                      const std::string& content) {
  File f;
  f.display = display_path;
  f.vpath = virtual_path;
  f.dir = dir_of(virtual_path);
  f.lx = lex(content);
  files_.push_back(std::move(f));
}

std::vector<std::string> Linter::rule_ids() {
  return {
      "postcard-determinism-clock",
      "postcard-determinism-rand",
      "postcard-determinism-unordered-iter",
      "postcard-determinism-pointer-order",
      "postcard-layering-back-edge",
      "postcard-layering-cycle",
      "postcard-wire-require-done",
      "postcard-wire-unchecked-count",
      "postcard-lock-unguarded",
      "postcard-nolint-missing-reason",
      "postcard-nolint-unknown-rule",
  };
}

bool Linter::tag_covers(const std::string& tag, const std::string& rule) {
  if (tag == rule) return true;
  return rule.size() > tag.size() && rule.rfind(tag + "-", 0) == 0;
}

LintResult Linter::run() const {
  std::vector<Diagnostic> raw;      // suppressible findings
  std::vector<Diagnostic> always;   // NOLINT-discipline findings

  // --- Cross-file state.
  std::map<std::string, std::size_t> by_vpath;
  for (std::size_t i = 0; i < files_.size(); ++i) {
    by_vpath[files_[i].vpath] = i;
  }
  // Include graph over registered files (project includes resolve against
  // src/ the way the build's -Isrc does).
  std::vector<std::vector<std::size_t>> adj(files_.size());
  for (std::size_t i = 0; i < files_.size(); ++i) {
    for (const Include& inc : files_[i].lx.includes) {
      if (inc.angled) continue;
      const auto it = by_vpath.find("src/" + inc.path);
      if (it != by_vpath.end()) adj[i].push_back(it->second);
    }
  }
  // Per-file unordered-container declarations, then the transitive closure
  // over includes (a member declared in a header is iterated in the .cc).
  std::vector<std::set<std::string>> own(files_.size());
  for (std::size_t i = 0; i < files_.size(); ++i) {
    own[i] = unordered_decls(files_[i].lx.tokens);
  }
  auto visible_for = [&](std::size_t i) {
    std::set<std::string> vis = own[i];
    std::vector<std::size_t> stack = {i};
    std::set<std::size_t> seen = {i};
    while (!stack.empty()) {
      const std::size_t f = stack.back();
      stack.pop_back();
      for (std::size_t nb : adj[f]) {
        if (seen.insert(nb).second) {
          vis.insert(own[nb].begin(), own[nb].end());
          stack.push_back(nb);
        }
      }
    }
    return vis;
  };

  // Lock rule: classes are collected globally (headers define them, .cc
  // files hold the method bodies).
  std::map<std::string, ClassInfo> classes;
  std::vector<std::pair<std::size_t,
                        std::vector<std::pair<std::string,
                                              std::pair<std::size_t,
                                                        std::size_t>>>>>
      inline_bodies_per_file;
  for (std::size_t i = 0; i < files_.size(); ++i) {
    if (files_[i].dir.empty()) continue;
    std::vector<std::pair<std::string, std::pair<std::size_t, std::size_t>>>
        bodies;
    collect_classes(files_[i].display, files_[i].lx.tokens, &classes,
                    &bodies);
    inline_bodies_per_file.push_back({i, std::move(bodies)});
  }

  // --- Per-file rules.
  for (std::size_t i = 0; i < files_.size(); ++i) {
    const File& f = files_[i];
    const Toks& t = f.lx.tokens;
    if (kDeterminismDirs.count(f.dir) > 0) {
      if (f.vpath != kClockFile) check_clocks(f.display, t, &raw);
      check_rand(f.display, t, &raw);
      check_unordered_iter(f.display, t, visible_for(i), &raw);
      check_pointer_order(f.display, t, &raw);
    }
    if (kWireDirs.count(f.dir) > 0) {
      check_wire_require_done(f.display, t, &raw);
      check_wire_unchecked_count(f.display, t, &raw);
    }
    // Layering back-edges.
    const auto rank_it = kLayerRank.find(f.dir);
    if (rank_it != kLayerRank.end()) {
      for (const Include& inc : f.lx.includes) {
        if (inc.angled) continue;
        if (kInterfaceHeaders.count(inc.path) > 0) continue;
        const std::size_t slash = inc.path.find('/');
        if (slash == std::string::npos) continue;
        const auto target = kLayerRank.find(inc.path.substr(0, slash));
        if (target == kLayerRank.end()) continue;
        if (target->second > rank_it->second) {
          raw.push_back(
              {f.display, inc.line, "postcard-layering-back-edge",
               "src/" + f.dir + " (layer " +
                   std::to_string(rank_it->second) + ") must not include '" +
                   inc.path + "' (layer " + std::to_string(target->second) +
                   "); the layer order is base < linalg < lp < "
                   "core/charging/net < sim/flow/audit < runtime < "
                   "server/replication"});
        }
      }
    }
  }

  // --- Include cycles (iterative three-color DFS over project includes).
  {
    std::vector<int> color(files_.size(), 0);  // 0 white, 1 gray, 2 black
    std::vector<std::size_t> parent(files_.size(), SIZE_MAX);
    for (std::size_t root = 0; root < files_.size(); ++root) {
      if (color[root] != 0) continue;
      std::vector<std::pair<std::size_t, std::size_t>> stack;  // node, edge
      stack.push_back({root, 0});
      color[root] = 1;
      while (!stack.empty()) {
        auto& [node, edge] = stack.back();
        if (edge < adj[node].size()) {
          const std::size_t next = adj[node][edge];
          edge += 1;
          if (color[next] == 0) {
            color[next] = 1;
            parent[next] = node;
            stack.push_back({next, 0});
          } else if (color[next] == 1) {
            // Found a cycle: walk parents back to `next`.
            std::string members = files_[next].vpath;
            for (std::size_t w = node; w != next && w != SIZE_MAX;
                 w = parent[w]) {
              members += " -> " + files_[w].vpath;
            }
            raw.push_back({files_[node].display, 1, "postcard-layering-cycle",
                           "include cycle between first-party files: " +
                               members});
          }
        } else {
          color[node] = 2;
          stack.pop_back();
        }
      }
    }
  }

  // --- Lock rule bodies: inline methods, then out-of-line definitions.
  for (const auto& [fi, bodies] : inline_bodies_per_file) {
    for (const auto& [cls_name, range] : bodies) {
      const auto it = classes.find(cls_name);
      if (it == classes.end()) continue;
      scan_body_for_unguarded_writes(files_[fi].display,
                                     files_[fi].lx.tokens, range.first,
                                     range.second, it->second, &raw);
    }
  }
  for (std::size_t i = 0; i < files_.size(); ++i) {
    const Toks& t = files_[i].lx.tokens;
    for (std::size_t j = 0; j + 3 < t.size(); ++j) {
      if (t[j].kind != TokKind::kIdent || !is_punct(t[j + 1], "::")) continue;
      const auto it = classes.find(t[j].text);
      if (it == classes.end()) continue;
      if (t[j + 2].kind != TokKind::kIdent) continue;
      std::size_t k = j + 3;
      if (!is_punct(t[k], "(")) continue;  // member fn definitions only
      k = skip_parens(t, k);
      // Skip const/noexcept/annotations/ctor-initializers up to '{' or ';'.
      int guard = 0;
      while (k < t.size() && !is_punct(t[k], "{") && !is_punct(t[k], ";") &&
             guard < 256) {
        if (is_punct(t[k], "(")) k = skip_parens(t, k);
        else ++k;
        ++guard;
      }
      if (k >= t.size() || !is_punct(t[k], "{")) continue;
      const std::size_t end = skip_braces(t, k);
      scan_body_for_unguarded_writes(files_[i].display, t, k, end,
                                     it->second, &raw);
      j = end - 1;
    }
  }

  // --- Suppressions.
  LintResult result;
  result.files = static_cast<int>(files_.size());
  std::map<std::string, std::vector<Suppression>> supp;
  for (const File& f : files_) {
    collect_suppressions(f.display, f.lx.comments, &supp[f.display], &always);
  }
  for (const Diagnostic& d : raw) {
    bool suppressed = false;
    const auto it = supp.find(d.file);
    if (it != supp.end()) {
      for (const Suppression& s : it->second) {
        if (s.line == d.line && tag_covers(s.tag, d.rule)) {
          suppressed = true;
          break;
        }
      }
    }
    if (suppressed) result.suppressed += 1;
    else result.findings.push_back(d);
  }
  for (const Diagnostic& d : always) result.findings.push_back(d);
  std::sort(result.findings.begin(), result.findings.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return result;
}

std::optional<std::string> fixture_virtual_path(const std::string& content) {
  const std::string marker = "// postcard-lint-fixture:";
  if (content.rfind(marker, 0) != 0) return std::nullopt;
  const std::size_t eol = content.find('\n');
  const std::string line =
      content.substr(marker.size(),
                     (eol == std::string::npos ? content.size() : eol) -
                         marker.size());
  const std::string path = trim(line);
  if (path.empty()) return std::nullopt;
  return path;
}

}  // namespace postcard::lint
