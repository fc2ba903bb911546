#!/usr/bin/env python3
"""Builds and runs the libvdm benchmark of record (see BENCHMARK.json).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later calls only
rebuild what changed. The benchmark binary's standard output is passed
through; its last line is the JSON result. Exits non-zero when the build
fails, a run times out, an output check fails, or the result does not carry
exactly the metrics BENCHMARK.json lists.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(
            ["cmake", "--build", build_dir, "--target", "vdm_perfbench", "-j", jobs],
            stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "vdm_perfbench")


def expected_metrics(trace):
    """Metric names the result must carry, from BENCHMARK.json."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="toy-size workloads, traced == untraced bit for bit")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required unless --smoke")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    cmd = [binary]
    if args.smoke:
        cmd.append("--smoke")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            spans_dir = os.path.join(build_dir, "spans")
            os.makedirs(spans_dir, exist_ok=True)
            cmd += ["--spans",
                    os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.csv")]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            log(f"run exceeded {RUN_TIMEOUT_S} s")
            return 1
    lines = out.rstrip("\n").split("\n")
    if args.smoke:
        print(out, end="")
        return proc.returncode

    # Everything but the result goes to stderr, so the result is the last
    # (and only) line of standard output.
    sys.stderr.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
        names = set(result["metrics"])
    except (ValueError, KeyError, TypeError):
        log("the benchmark printed no result line")
        return 1
    want = expected_metrics(args.trace)
    if names != want:
        log(f"metrics differ from BENCHMARK.json: missing {sorted(want - names)}, "
            f"extra {sorted(names - want)}")
        return 1
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
