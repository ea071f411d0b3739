#!/usr/bin/env python3
"""Controller benchmark: builds ctlbench from source, runs one workload.

Usage, from the repository root:

    python3 ctlbench/run.py --workload paper|scale|service --seed N \
        --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR/ctlbench (default .bench_build/ctlbench).
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Any failed output check, here or in the
binary, exits non-zero. Besides the binary's own checks, this script keeps
every untraced run's deterministic outcome (cost_per_interval,
delivered_share) keyed by binary, workload and seed, and fails a run whose
outcome differs from an earlier run of the same key.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DETERMINISTIC = ("cost_per_interval", "delivered_share")


def log(msg):
    print(f"ctlbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "ctlbench")


def build(out):
    """Configures once, then builds (a no-op when up to date)."""
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True, timeout=300)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=850)
    return os.path.join(out, "ctlbench")


def digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def check_repeatable(out, binary, args, result):
    """Same binary, workload and seed must decide the same outcome."""
    path = os.path.join(out, "outcomes.json")
    seen = {}
    if os.path.exists(path):
        with open(path) as f:
            seen = json.load(f)
    key = f"{digest(binary)}:{args.workload}:{args.seed}"
    now = {k: result["metrics"][k]["value"] for k in DETERMINISTIC}
    if key in seen and seen[key] != now:
        log(f"CHECK FAILED: {args.workload} seed {args.seed} decided "
            f"{now}, an earlier run decided {seen[key]}")
        return False
    seen[key] = now
    with open(path + ".tmp", "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper", "scale", "service"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 1

    cmd = [binary, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        trace_out = os.path.join(traces, f"{args.workload}.jsonl")
        cmd += ["--trace-out", trace_out]
    inputs_dir = os.path.join(out, f"inputs-{os.getpid()}")
    try:
        if args.workload == "service":
            # The snapshots and the in-process references come from their
            # own process, before any clock starts.
            os.makedirs(inputs_dir, exist_ok=True)
            subprocess.run([binary, "inputs", "--seed", str(args.seed),
                            "--inputs", inputs_dir], check=True, timeout=60)
            cmd += ["--inputs", inputs_dir]
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=170)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"run failed: {e}")
        return 1
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)

    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        log(f"ctlbench exited {run.returncode} without a result")
        return 1
    result = json.loads(lines[-1])
    if not args.trace and not check_repeatable(out, binary, args, result):
        result["correct"] = False
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] and run.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
