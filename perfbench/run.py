#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload lookup|kv|churn --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The first call configures and
builds perfbench/ (a standalone CMake project over ../src) in Release mode
under $CARGO_TARGET_DIR (default .bench_build); later calls rebuild only
what changed. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; its metric names are checked
against BENCHMARK.json. The full output document, with its provenance
block, is written to <build dir>/results/.

--selftest builds the benchmark's own GoogleTest suite in a separate build
directory and runs it with ctest.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
WORKLOADS = ("lookup", "kv", "churn")
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def run_timeout(seconds, trace):
    """Wall-time limit of one perfbench process. An untraced run spends
    about --seconds in its timed region and up to as much again in set-up
    and the untimed oracle replay; a traced run repeats the workload traced
    and adds the probes. The limit doubles that, for a slowed host."""
    work = seconds * (5 if trace else 2)
    return 2 * (30 + work)


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_root():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def run_logged(cmd, log):
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, cwd=ROOT, stdout=out,
                              stderr=subprocess.STDOUT).returncode


def build(build_dir, extra_args, targets):
    """Configure (once) and build; exits non-zero with the log tail on
    failure."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"] + extra_args)
    steps.append(["cmake", "--build", str(build_dir), "-j", BUILD_JOBS,
                  "--target"] + targets)
    for cmd in steps:
        if run_logged(cmd, log) != 0:
            tail = log.read_text(errors="replace").splitlines()[-30:]
            print("\n".join(tail), file=sys.stderr)
            # A failed configure leaves a cache that would skip it next time.
            (build_dir / "CMakeCache.txt").unlink(missing_ok=True)
            fail("build failed (log: %s)" % log, 3)


def git_state():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)", "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown", "unknown"
    return sha.stdout.strip(), "yes" if status.stdout.strip() else "no"


def check_result(line, trace):
    """Problems with the result line, judged against BENCHMARK.json."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return ["last line is not JSON"]
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return ["result keys are not correct/attempted/failed/metrics"]
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return []
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    problems = []
    names = {m["name"] for m in wanted}
    if set(got) != names:
        problems.append("metrics differ from BENCHMARK.json: missing %s, "
                        "extra %s" % (sorted(names - set(got)),
                                      sorted(set(got) - names)))
    for m in wanted:
        entry = got.get(m["name"])
        if entry is not None and entry.get("unit") != m["unit"]:
            problems.append("%s: unit %r, BENCHMARK.json says %r"
                            % (m["name"], entry.get("unit"), m["unit"]))
    return problems


def selftest():
    build_dir = build_root() / "perfbench-tests"
    build(build_dir, ["-DPERFBENCH_TESTS=ON"], ["perfbench_tests"])
    return subprocess.run(["ctest", "--test-dir", str(build_dir),
                           "--output-on-failure", "-j", BUILD_JOBS]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in [1, 600]")

    build_dir = build_root() / "perfbench"
    build(build_dir, [], ["perfbench"])

    results = build_dir / "results"
    results.mkdir(exist_ok=True)
    document = results / ("%s-seed%d-s%d-trace%d.json" % (
        args.workload, args.seed, args.seconds, args.trace))
    sha, dirty = git_state()
    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--git-sha", sha, "--git-dirty", dirty,
           "--document", str(document)]
    start = time.monotonic()
    timeout = run_timeout(args.seconds, args.trace == 1)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % timeout, 4)
    lines = proc.stdout.rstrip("\n").splitlines()
    print("\n".join(lines[:-1]))
    print("run wall time: %.3f s; document: %s"
          % (time.monotonic() - start, document))
    if proc.returncode != 0:
        if lines:
            print(lines[-1])
        fail("perfbench exited with status %d" % proc.returncode,
             proc.returncode)
    problems = check_result(lines[-1] if lines else "", args.trace == 1)
    if problems:
        fail("; ".join(problems), 5)
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
