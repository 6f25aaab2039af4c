#!/usr/bin/env python3
"""Builds and runs the layered end-to-end benchmark (see README.md).

    python3 lzbench/run.py --workload fig9|higher_order|compile \
        --seed N --seconds S --trace 0|1
    python3 lzbench/run.py --self-check

Run from the root of a source checkout. The first call configures and
builds the compiler library and the benchmark runner in Release under
$CARGO_TARGET_DIR (default .bench_build); later calls only re-check the
build. The runner's last stdout line is the result as one JSON object.

--self-check runs every workload to its end at the programs' test sizes,
untraced and traced, twice each. It fails unless every run is correct
with no failed operation and prints exactly the metrics BENCHMARK.json
names, and all counts repeat exactly between the two runs. Then it checks
every reference against the oracle at the size the benchmark runs it.
(Each run also checks the references against the oracle at test sizes,
the counts across its rounds, and that traced rounds retire the same VM
instructions and emit the same bytecode as untraced ones.)
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig9", "higher_order", "compile")


def log(msg):
    print("lzbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "lzbench")


def build():
    """Configures (once) and builds the runner; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not any(os.path.exists(os.path.join(out, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", out, "--target", "lzbench_runner",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "lzbench_runner")


def source_id():
    """The git commit when there is one, and always a digest of src/."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "git=%s src-sha256=%s" % (sha or "none", digest.hexdigest()[:16])


def run_runner(runner, args, capture):
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-id", source_id()]
    if getattr(args, "tiny", False):
        cmd.append("--tiny")
    if not capture:
        return subprocess.run(cmd).returncode, None
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def _raise_stack_limit():
    # The oracle is a recursive tree-walking interpreter: at benchmark sizes
    # it needs more than the usual 8 MB stack.
    _, hard = resource.getrlimit(resource.RLIMIT_STACK)
    resource.setrlimit(resource.RLIMIT_STACK, (hard, hard))


def self_check(runner):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    all_ok = True
    for workload in WORKLOADS:
        problems = []
        for trace in (0, 1):
            counts = []
            for _ in range(2):
                args = argparse.Namespace(workload=workload, seed=7, seconds=0,
                                          trace=trace, tiny=True)
                code, out = run_runner(runner, args, capture=True)
                lines = (out or "").strip().splitlines()
                if code or not lines:
                    problems.append("trace=%d: exit code %d" % (trace, code))
                    continue
                res = json.loads(lines[-1])
                if not res["correct"] or res["failed"]:
                    problems.append("trace=%d: correct=%s, %d failed" % (
                        trace, res["correct"], res["failed"]))
                if set(res["metrics"]) != expected[trace]:
                    problems.append("trace=%d: metrics differ from "
                                    "BENCHMARK.json" % trace)
                counts.append({k: v["value"] for k, v in res["metrics"].items()
                               if v["unit"] == "count"})
            if len(counts) == 2 and counts[0] != counts[1]:
                problems.append("trace=%d: counts differ between two runs"
                                % trace)
        for p in problems:
            log("self-check %s: %s" % (workload, p))
        print("self-check %s: %s" % (workload, "FAILED" if problems else "ok"),
              flush=True)
        all_ok = all_ok and not problems
    # The references at the sizes fig9 and higher_order run them (about a
    # minute: the oracle's qsort alone takes most of it).
    refs = subprocess.run([runner, "--check-references"],
                          preexec_fn=_raise_stack_limit)
    print("self-check references at benchmark sizes: %s" % (
        "ok" if refs.returncode == 0 else "FAILED"), flush=True)
    return all_ok and refs.returncode == 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args()
    if not args.self_check and not args.workload:
        p.error("--workload is required")

    runner = build()
    if runner is None:
        return 1
    if args.self_check:
        return 0 if self_check(runner) else 1
    code, _ = run_runner(runner, args, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
