#!/usr/bin/env python3
"""Bench post-processing, two modes.

Text mode (default):
    summarize_benches.py [bench_output.txt]
condenses google-benchmark console output into the EXPERIMENTS.md summary
table rows, exactly as before.

Trajectory mode:
    summarize_benches.py --check-trajectory PREV_DIR NEW_DIR
loads every BENCH_<name>.json pair (the bench binaries write them, see
bench/bench_json.h) and compares metric by metric against per-kind
thresholds. Any breach prints a loud REGRESSION line and the script exits
nonzero — run_all.sh stashes the previous repo-root BENCH_*.json under
build/bench_prev/ and runs this gate after the bench sweep. Metrics only
present on one side are reported informationally, never fatally, so adding
or retiring a metric does not wedge the gate.

    summarize_benches.py --self-test
runs the built-in threshold tests (registered as a ctest entry, label
`tools`).

Thresholds by metric-name suffix/kind:
  * latency (ends in _ms or _seconds): fail if new > 1.5x old AND the
    absolute growth exceeds a noise floor (2 ms / 0.002 s) — single-core CI
    timing jitter on sub-millisecond readings must not fail the build.
  * throughput (ends in _per_sec): the mirror image — fail if new < old /
    1.5; growth is always fine.
  * warm_accept_rate (suffix match, so hotpath_warm_accept_rate gates too):
    fail if it drops by more than 0.15 absolute.
  * cost (contains cost_mean / cost_per_interval / cost_delta): fail if
    new > 1.10x old + 1e-9 (deterministic solves; any real growth is a
    behavior change).
  * counts (degraded_slots / audit_violations / protocol_errors /
    rejected_files; rejected_share as a rate): fail if new > old + 1
    (rates: + 0.02).
  * everything else: informational only.
"""
import json
import os
import re
import shutil
import sys
import tempfile


# --------------------------------------------------------------------------
# Text mode (legacy): bench_output.txt -> summary rows.
def summarize_text(path):
    rows = []
    for line in open(path):
        # BM_-prefixed rows are the paper-figure benches; the bare-named rows
        # (RuntimeReplay/..., AuditedReplay/audit:1, ...) are the runtime and
        # audit benches — accept either as long as it is a timing row.
        m = re.match(r"(BM_\S+)\s", line) or (
            re.search(r"\d\s+ns\s", line) and re.match(r"([A-Za-z]\w*\S*)\s", line)
        )
        if not m:
            continue
        name = m.group(1)
        counters = dict(re.findall(r"(\w+)=([\d.]+[kmun]?)", line))

        def num(key):
            v = counters.get(key)
            if v is None:
                return None
            scale = 1.0
            if v[-1] in "kmun":
                scale = {"k": 1e3, "m": 1e-3, "u": 1e-6, "n": 1e-9}[v[-1]]
                v = v[:-1]
            return float(v) * scale

        cost = num("cost_mean") or num("cost_per_interval")
        ci = num("cost_ci95")
        rej = num("rejected_share")
        cells = [name]
        if cost is not None:
            cells.append(f"cost {cost:.0f}" + (f" ± {ci:.0f}" if ci is not None else ""))
        if rej is not None:
            cells.append(f"rej {100*rej:.1f}%")
        for extra in ("delivered_gb", "objective", "percentile", "budget",
                      "cost_delta", "degraded_slots", "rung_truncated",
                      "rung_greedy", "carryover",
                      "audit_checks", "audit_violations", "audit_ms",
                      "audit_share_pct", "audit_us_per_slot",
                      "rtt_mean_ms", "rtt_p99_ms", "slot_mean_ms",
                      "slot_p99_ms", "snapshot_mean_ms"):
            v = num(extra)
            if v is not None:
                cells.append(f"{extra}={v:.1f}")
        rows.append("  ".join(cells))
    return "\n".join(rows)


# --------------------------------------------------------------------------
# Trajectory mode: BENCH_*.json old-vs-new with loud thresholds.

LATENCY_RATIO = 1.5
LATENCY_FLOOR_MS = 2.0       # absolute growth below this is jitter, not real
WARM_RATE_DROP = 0.15
COST_RATIO = 1.10
COUNT_SLACK = 1
RATE_SLACK = 0.02

COST_KEYS = ("cost_mean", "cost_per_interval", "cost_delta")
COUNT_KEYS = ("degraded_slots", "audit_violations", "protocol_errors",
              "rejected_files")
RATE_KEYS = ("rejected_share",)


def check_metric(key, old, new):
    """Returns None if OK, else a human-readable reason string."""
    if key.endswith("_ms") or key.endswith("_seconds"):
        floor = LATENCY_FLOOR_MS if key.endswith("_ms") else LATENCY_FLOOR_MS / 1e3
        if new > old * LATENCY_RATIO and new - old > floor:
            return f"latency {old:.3f} -> {new:.3f} (> {LATENCY_RATIO}x)"
        return None
    if key.endswith("_per_sec"):
        # Throughput is latency upside down: shrinking by more than the
        # latency ratio is the same class of regression as latency growing
        # by it. Growth never fails.
        if new * LATENCY_RATIO < old:
            return f"throughput {old:.6g} -> {new:.6g} (< 1/{LATENCY_RATIO}x)"
        return None
    if key.endswith("warm_accept_rate"):
        if new < old - WARM_RATE_DROP:
            return f"warm-accept rate {old:.3f} -> {new:.3f} (dropped > {WARM_RATE_DROP})"
        return None
    if any(k in key for k in COST_KEYS):
        if new > old * COST_RATIO + 1e-9:
            return f"cost {old:.6g} -> {new:.6g} (> {COST_RATIO}x)"
        return None
    if any(k in key for k in COUNT_KEYS):
        if new > old + COUNT_SLACK:
            return f"count {old:.0f} -> {new:.0f} (> +{COUNT_SLACK})"
        return None
    if any(k in key for k in RATE_KEYS):
        if new > old + RATE_SLACK:
            return f"rate {old:.4f} -> {new:.4f} (> +{RATE_SLACK})"
        return None
    return None  # informational metric: never fatal


def load_bench_jsons(directory):
    """{bench_name: {metric: value}} for every BENCH_*.json in directory."""
    out = {}
    if not os.path.isdir(directory):
        return out
    for entry in sorted(os.listdir(directory)):
        m = re.fullmatch(r"BENCH_(.+)\.json", entry)
        if not m:
            continue
        try:
            with open(os.path.join(directory, entry)) as f:
                doc = json.load(f)
            metrics = doc.get("metrics", {})
            out[m.group(1)] = {k: float(v) for k, v in metrics.items()}
        except (OSError, ValueError) as exc:
            print(f"TRAJECTORY_WARNING unreadable {entry}: {exc}")
    return out


def record_baseline(prev_dir, new_dir):
    """Copies every BENCH_*.json from new_dir into prev_dir (creating it);
    returns the recorded file names."""
    os.makedirs(prev_dir, exist_ok=True)
    recorded = []
    for entry in sorted(os.listdir(new_dir)):
        if re.fullmatch(r"BENCH_(.+)\.json", entry):
            shutil.copyfile(os.path.join(new_dir, entry),
                            os.path.join(prev_dir, entry))
            recorded.append(entry)
    return recorded


def check_trajectory(prev_dir, new_dir):
    prev = load_bench_jsons(prev_dir)
    new = load_bench_jsons(new_dir)
    if not prev:
        # First run in this workspace: there is nothing to compare against.
        # Record the fresh results AS the baseline (so the very next run is
        # gated) instead of silently passing with no baseline in place.
        if not new:
            print(f"TRAJECTORY_SKIPPED no BENCH_*.json in {prev_dir} or "
                  f"{new_dir} — nothing to record or compare")
            return 0
        recorded = record_baseline(prev_dir, new_dir)
        print(f"TRAJECTORY_BASELINE no baseline in {prev_dir}; recorded "
              f"{len(recorded)} BENCH_*.json file(s) from {new_dir} as the "
              "baseline (nothing compared, gate passes)")
        return 0
    if not new:
        print(f"REGRESSION no new BENCH_*.json in {new_dir} — benches stopped "
              "emitting JSON")
        return 1
    regressions = 0
    compared = 0
    for bench, old_metrics in sorted(prev.items()):
        if bench not in new:
            print(f"REGRESSION bench '{bench}' vanished: BENCH_{bench}.json "
                  f"was in {prev_dir} but not in {new_dir}")
            regressions += 1
            continue
        new_metrics = new[bench]
        for key, old_value in sorted(old_metrics.items()):
            if key not in new_metrics:
                print(f"TRAJECTORY_INFO {bench}.{key} no longer emitted")
                continue
            compared += 1
            reason = check_metric(key, old_value, new_metrics[key])
            if reason is not None:
                print(f"REGRESSION {bench}.{key}: {reason}")
                regressions += 1
        for key in sorted(set(new_metrics) - set(old_metrics)):
            print(f"TRAJECTORY_INFO new metric {bench}.{key} = "
                  f"{new_metrics[key]:.6g}")
    for bench in sorted(set(new) - set(prev)):
        print(f"TRAJECTORY_INFO new bench '{bench}' "
              f"({len(new[bench])} metrics) enters the baseline")
    if regressions:
        print(f"TRAJECTORY_FAILED {regressions} regression(s) across "
              f"{compared} compared metric(s)")
        return 1
    print(f"TRAJECTORY_OK {compared} metric(s) within thresholds")
    return 0


# --------------------------------------------------------------------------
def self_test():
    cases = [
        # (key, old, new, expect_regression)
        ("submit_rtt_mean_ms", 10.0, 20.0, True),       # 2x and > +2ms
        ("submit_rtt_mean_ms", 0.1, 0.3, False),        # 3x but under floor
        ("submit_rtt_mean_ms", 10.0, 14.0, False),      # +4ms but < 1.5x
        ("mean_seconds", 0.010, 0.020, True),
        ("warm_accept_rate", 0.9, 0.8, False),
        ("warm_accept_rate", 0.9, 0.5, True),
        ("Fig4_c100_T3_Postcard_cost_mean", 100.0, 105.0, False),
        ("Fig4_c100_T3_Postcard_cost_mean", 100.0, 120.0, True),
        ("budget50_cost_delta", 5.0, 5.0, False),
        ("budget50_cost_delta", 5.0, 6.0, True),
        ("budget50_degraded_slots", 3.0, 4.0, False),
        ("budget50_degraded_slots", 3.0, 5.0, True),
        ("audit_violations", 0.0, 2.0, True),
        ("Fig4_c100_T3_Postcard_rejected_share", 0.10, 0.11, False),
        ("Fig4_c100_T3_Postcard_rejected_share", 0.10, 0.20, True),
        ("cold_starts", 4.0, 400.0, False),             # informational only
        # bench_scale emits per-config slot latencies and ladder counts; the
        # existing suffix/kind rules must gate them without special-casing.
        ("scale_fat10_a1000_slot_p99_ms", 80.0, 300.0, True),
        ("scale_fat10_a1000_slot_p50_ms", 0.5, 1.2, False),  # under floor
        ("scale_fat10_a1000_degraded_slots", 2.0, 3.0, False),
        ("scale_fat10_a1000_degraded_slots", 2.0, 9.0, True),
        ("scale_complete20_a50_first_degraded_slot", 3.0, 1.0, False),  # info
        # bench_solver_hotpath: latency splits, a throughput rate, and the
        # deterministic DCRoute rejection count.
        ("hotpath_opt_mean_slot_solve_ms", 1.0, 1.4, False),   # under floor
        ("hotpath_opt_master_seconds", 0.010, 0.030, True),
        ("hotpath_columns_per_sec", 1000.0, 500.0, True),      # halved
        ("hotpath_columns_per_sec", 1000.0, 800.0, False),     # within ratio
        ("hotpath_columns_per_sec", 1000.0, 2000.0, False),    # growth is fine
        ("hotpath_warm_accept_rate", 0.9, 0.5, True),          # suffix match
        ("hotpath_warm_accept_rate", 0.9, 0.8, False),
        ("hotpath_dcroute_rejected_files", 3.0, 4.0, False),
        ("hotpath_dcroute_rejected_files", 3.0, 10.0, True),
        ("hotpath_cg_resumed_share", 0.9, 0.1, False),         # informational
        # A per-round cost of ~0.1 ms: no latency suffix, so informational
        # (under the 2 ms floor it could never gate anyway).
        ("hotpath_master_ms_per_solve", 0.1, 0.3, False),
    ]
    failures = 0
    for key, old, new, expect in cases:
        got = check_metric(key, old, new) is not None
        if got != expect:
            print(f"SELF_TEST_FAILED {key} old={old} new={new} "
                  f"expected regression={expect} got={got}")
            failures += 1

    # First-run trajectory behavior: an empty baseline directory records the
    # new results and passes; the recorded baseline then gates the next run.
    with tempfile.TemporaryDirectory() as tmp:
        prev_dir = os.path.join(tmp, "prev")
        new_dir = os.path.join(tmp, "new")
        os.makedirs(new_dir)
        with open(os.path.join(new_dir, "BENCH_scale.json"), "w") as f:
            json.dump({"metrics": {"scale_fat10_a1000_slot_p99_ms": 12.0}}, f)
        if check_trajectory(prev_dir, new_dir) != 0:
            print("SELF_TEST_FAILED first run without a baseline must pass")
            failures += 1
        if not os.path.isfile(os.path.join(prev_dir, "BENCH_scale.json")):
            print("SELF_TEST_FAILED first run must record the baseline")
            failures += 1
        if check_trajectory(prev_dir, new_dir) != 0:
            print("SELF_TEST_FAILED identical re-run against the recorded "
                  "baseline must pass")
            failures += 1
        with open(os.path.join(new_dir, "BENCH_scale.json"), "w") as f:
            json.dump({"metrics": {"scale_fat10_a1000_slot_p99_ms": 500.0}}, f)
        if check_trajectory(prev_dir, new_dir) == 0:
            print("SELF_TEST_FAILED regression vs the recorded baseline "
                  "must fail the gate")
            failures += 1

    if failures:
        return 1
    print(f"SELF_TEST_OK {len(cases)} threshold cases + baseline recording")
    return 0


def main(argv):
    if len(argv) >= 2 and argv[1] == "--self-test":
        return self_test()
    if len(argv) >= 2 and argv[1] == "--check-trajectory":
        if len(argv) != 4:
            print("usage: summarize_benches.py --check-trajectory PREV_DIR NEW_DIR")
            return 2
        return check_trajectory(argv[2], argv[3])
    path = argv[1] if len(argv) > 1 else "bench_output.txt"
    print(summarize_text(path))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
