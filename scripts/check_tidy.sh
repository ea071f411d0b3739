#!/usr/bin/env bash
# Static-analysis gate: clang thread-safety analysis + clang-tidy.
#
# 1. Configures and builds the `tidy` preset (clang++ with
#    -Wthread-safety -Werror=thread-safety), so any lock-discipline
#    regression against the GUARDED_BY/REQUIRES/EXCLUDES annotations in
#    src/base, src/runtime and src/server fails the build.
# 2. Runs clang-tidy (checks in .clang-tidy, warnings-as-errors) over every
#    first-party translation unit using the preset's compile database.
#
# Both steps need clang. On a box without it (the default container ships
# GCC only) the gate SKIPS LOUDLY and exits 0 — the annotations still
# compile away to nothing under GCC, and TSAN covers the lock contracts at
# runtime. CI images with clang run the full gate.
#
# JOBS controls build parallelism (default: all cores).
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"

# File-list completeness: every first-level src/ subdirectory must
# contribute at least one .cc to the tidy file list below, so a new
# library added after this script was written cannot silently escape the
# gate. This runs BEFORE the clang detection — a GCC-only box still fails
# loudly on an uncovered subsystem.
#
# Header-only exemptions, each decided and explained:
#   base  the lock wrappers (mutex.h) and the thread-safety annotation
#         macros (thread_annotations.h) — an INTERFACE library with nothing
#         to compile; every TU that includes them is in the file list, so
#         clang-tidy and the analysis still see all of their code.
header_only=" base "
mapfile -t tidy_sources < <(git ls-files 'src/**/*.cc')
for subdir in src/*/; do
  name="${subdir#src/}"
  name="${name%/}"
  case "${header_only}" in
    *" ${name} "*) continue ;;
  esac
  case " ${tidy_sources[*]} " in
    *" src/${name}/"*) ;;
    *)
      echo "===================================================================" >&2
      echo "TIDY GATE FAILED: src/${name}/ contributes no .cc to the tidy" >&2
      echo "file list (git ls-files 'src/**/*.cc'). Either the new library" >&2
      echo "is header-only (add a .cc or an explicit exemption here) or its" >&2
      echo "files were never committed — both must be decided, not ignored." >&2
      echo "===================================================================" >&2
      exit 1
      ;;
  esac
done

if ! command -v clang++ >/dev/null 2>&1; then
  echo "==================================================================="
  echo "TIDY GATE SKIPPED: clang++ not found on PATH."
  echo "The thread-safety analysis and clang-tidy need clang; this tree was"
  echo "checked with GCC warnings only. Install clang/clang-tidy and re-run"
  echo "  scripts/check_tidy.sh"
  echo "to enforce the annotations in src/base/thread_annotations.h."
  echo "==================================================================="
  exit 0
fi

echo "== thread-safety analysis (clang -Wthread-safety -Werror) =="
cmake --preset tidy
cmake --build build-tidy -j "${JOBS}"

if ! command -v clang-tidy >/dev/null 2>&1; then
  echo "==================================================================="
  echo "CLANG-TIDY SKIPPED: clang-tidy not found on PATH (thread-safety"
  echo "analysis above DID run). Install clang-tidy for the full gate."
  echo "==================================================================="
  exit 0
fi

echo "== clang-tidy (checks from .clang-tidy, warnings as errors) =="
mapfile -t sources < <(git ls-files 'src/**/*.cc' 'tests/**/*.cc' \
  'bench/**/*.cc' 'examples/**/*.cpp')
clang-tidy -p build-tidy --quiet "${sources[@]}"
echo "tidy gate passed: ${#sources[@]} translation units clean"
