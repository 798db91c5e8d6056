#!/usr/bin/env python3
"""The repository benchmark: build perfbench from source, run one
workload, and print its metrics as the last line of stdout.

    python3 perfbench/run.py --workload sweep-wide --seed 1 \
        --seconds 35 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1
runs the workload twice with the same seed, untraced and then traced,
and prints the per-layer metrics: the traced run's layer figures and
span self times, plus overhead.<metric> = traced - untraced for every
end-to-end metric.  Build output and notes go to stderr or to "# "
lines; the spans of a traced run are kept under <build>/spans/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Per-invocation wall limit; the first build is allowed on top of it.
RUN_LIMIT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    # CARGO_TARGET_DIR, when set, names the build directory a harness
    # cleans between runs; this CMake build honours it too.
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build(out_dir):
    """Configure (once) and build perfbench; the binary's path."""
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out_dir, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", out_dir, "-j", jobs, "--target", "perfbench"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out_dir, "perfbench")


def source_digest():
    """sha256 over src/ (a checkout may carry no git metadata)."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return res.stdout.strip() if res.returncode == 0 else "none"


def run_binary(binary, args, trace, work, deadline):
    """Run one workload; (result dict, other stdout lines)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--work-dir", work,
           "--references", os.path.join(HERE, "references.txt")]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %.0f s" % (args.workload, timeout))
    lines = res.stdout.splitlines()
    if res.returncode != 0 or not lines:
        fail("perfbench exited with %d" % res.returncode)
    return json.loads(lines[-1]), lines[:-1]


def traced_end_to_end(lines):
    for line in lines:
        if line.startswith("traced_end_to_end "):
            return json.loads(line[len("traced_end_to_end "):])
    fail("traced run printed no end-to-end figures")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload %r" % args.workload)

    start = time.monotonic()
    out_dir = build_dir()
    binary = build(out_dir)
    deadline = time.monotonic() + RUN_LIMIT_S - min(
        10.0, time.monotonic() - start)
    work = os.path.join(out_dir, "work", "%s-%d" % (args.workload,
                                                    os.getpid()))
    os.makedirs(work)
    try:
        result, lines = run_binary(binary, args, 0, work, deadline)
        if args.trace:
            untraced, untraced_lines = result, lines
            result, lines = run_binary(binary, args, 1, work, deadline)
            traced = traced_end_to_end(lines)
            lines = untraced_lines + lines
            for name, m in untraced["metrics"].items():
                result["metrics"]["overhead." + name] = {
                    "value": traced[name] - m["value"], "unit": m["unit"]}
            result["correct"] = result["correct"] and untraced["correct"]
            result["attempted"] += untraced["attempted"]
            result["failed"] += untraced["failed"]
            spans = os.path.join(out_dir, "spans")
            os.makedirs(spans, exist_ok=True)
            shutil.move(os.path.join(work, args.workload + ".spans.json"),
                        os.path.join(spans, "%s-seed%d.json" %
                                     (args.workload, args.seed)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    key = "per_layer" if args.trace else "end_to_end"
    want = [m["name"] for m in bench[key]]
    if sorted(want) != sorted(result["metrics"]):
        fail("printed metrics differ from BENCHMARK.json %s" % key)
    result["metrics"] = {name: result["metrics"][name] for name in want}
    for line in lines:
        print(line)
    print("# host git_sha=%s src_sha256=%s" % (git_sha(), source_digest()))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
