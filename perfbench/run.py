#!/usr/bin/env python3
"""Builds and runs the Semandaq end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload detect_serve --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds `semandaq_perfbench` (Release) into
`.bench_build` (or $CARGO_TARGET_DIR); later calls only re-check the build.
Build output goes to stderr, so the last stdout line of a run is its JSON
result. Inputs, snapshots and WALs live in a per-run
directory under `.bench_work/` that is removed afterwards.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["detect_serve", "batch_quality", "ingest"]
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the benchmark; returns (binary, build type)."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("not inside a Semandaq checkout: %s has no CMakeLists.txt and "
             "src/" % ROOT)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "semandaq_perfbench", "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))
    build_type = "unknown"
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip() or "unknown"
    return os.path.join(build_dir, "semandaq_perfbench"), build_type


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_one(binary, stamp, workload, seed, seconds, trace, extra=(),
            capture=False):
    """Runs one workload in a fresh work directory; returns (rc, stdout)."""
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=work_root)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work, "--build-type", stamp[0], "--git-sha", stamp[1]]
    cmd += list(extra)
    try:
        r = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                           stdout=subprocess.PIPE if capture else None)
        return r.returncode, r.stdout or ""
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("perfbench: %s timed out after %ds" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 3, ""
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass


def last_json(stdout):
    lines = [l for l in stdout.strip().splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def selftest(binary, stamp):
    """Smoke: every workload and the traced run end to end at tiny sizes.
    Negative: a corrupted reference must fail its checks, count them as
    failed and exit nonzero."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want_e2e = {m["name"] for m in spec["end_to_end"]}
    want_layer = {m["name"] for m in spec["per_layer"]}
    problems = []

    def check(label, rc, out, want_rc_zero, want_names):
        res = last_json(out)
        if res is None:
            problems.append(label + ": no result line")
            return
        names = set(res["metrics"])
        ok = ((rc == 0) == want_rc_zero and
              res["correct"] == want_rc_zero and res["attempted"] >= 1 and
              names == want_names)
        # A corrupted reference must trip the checks it feeds and count them.
        ok = ok and (res["failed"] == 0) == want_rc_zero
        print("selftest %-40s %s (rc=%d attempted=%d failed=%d)" %
              (label, "ok" if ok else "FAILED", rc, res["attempted"],
               res["failed"]))
        if not ok:
            problems.append(label)

    for w in WORKLOADS:
        rc, out = run_one(binary, stamp, w, 7, 1, False, ["--tiny"], True)
        check("smoke " + w, rc, out, True, want_e2e)
    rc, out = run_one(binary, stamp, "detect_serve", 7, 1, True, ["--tiny"],
                      True)
    check("smoke trace", rc, out, True, want_layer)
    for w in WORKLOADS:
        rc, out = run_one(binary, stamp, w, 7, 1, False,
                          ["--tiny", "--corrupt-reference"], True)
        check("negative " + w, rc, out, False, want_e2e)
    if problems:
        print("selftest FAILED: " + ", ".join(problems))
        return 1
    print("selftest passed")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not args.selftest and args.workload is None:
        p.error("--workload or --selftest is required")

    binary, build_type = build()
    stamp = (build_type, git_sha())
    if args.selftest:
        return selftest(binary, stamp)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    worst = 0
    for w in workloads:
        rc, _ = run_one(binary, stamp, w, args.seed, args.seconds,
                        args.trace == 1)
        worst = worst or rc
    return worst


if __name__ == "__main__":
    sys.exit(main())
