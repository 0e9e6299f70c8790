#!/usr/bin/env python3
"""Build and run the perfbench benchmark (see perfbench/BENCHMARK.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite-e2e --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

The first run configures and builds the program under test (the
repository's src/ and tools/repro_serviced.cpp) and the benchmark into
.bench_build/perfbench; later runs only check that the build is up to
date. The last line of standard output is the result object of the
workload run; its metric names and units are checked against
BENCHMARK.json before it is printed.
"""

import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["suite-e2e", "suite-parallel-match", "service-warm-edit",
             "service-concurrent-churn"]
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure and build once; serialized across concurrent runs."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=sys.stderr, check=True)
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                       stdout=sys.stderr, check=True)


def cpu_max():
    """The cgroup CPU quota (v2 cpu.max, else v1 quota/period)."""
    try:
        with open("/sys/fs/cgroup/cpu.max") as f:
            return f.read().strip()
    except OSError:
        pass
    try:
        with open("/sys/fs/cgroup/cpu/cpu.cfs_quota_us") as f:
            quota = f.read().strip()
        with open("/sys/fs/cgroup/cpu/cpu.cfs_period_us") as f:
            period = f.read().strip()
        return "max " + period if quota == "-1" else quota + " " + period
    except OSError:
        return "unknown"


def source_identity():
    """The commit when the checkout is a git work tree, else a digest
    of the sources under test."""
    if os.path.isdir(".git"):
        res = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if res.returncode == 0:
            return res.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload, seed, seconds, trace, inject=False):
    """Run one workload; returns (exit code, stdout lines)."""
    workdir = os.path.join(BUILD_DIR, "run")
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload=" + workload, "--seed=" + str(seed),
           "--seconds=" + str(seconds), "--trace=" + str(trace),
           "--daemon=" + os.path.join(BUILD_DIR, "repro_serviced"),
           "--workdir=" + workdir, "--cpu-max=" + cpu_max(),
           "--commit=" + source_identity()]
    if inject:
        cmd.append("--inject-defect")
    # Its own process group, so a daemon left behind by a crashed run
    # is stopped with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        out = ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return proc.returncode, out.splitlines()


def check_result(line, trace):
    """The result object, or None when it breaks the output contract."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return None
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != expected_metrics(trace):
        log("metrics differ from BENCHMARK.json")
        return None
    return result


def self_test():
    """Negative self-test: every workload's oracle must reject its
    seeded defect (a dropped store in a rewritten module, a corrupted
    golden MATCH line, a permuted parallel report)."""
    ok = True
    for workload in WORKLOADS:
        code, lines = run_workload(workload, 1, 2, 0, inject=True)
        result = check_result(lines[-1], 0) if lines else None
        rejected = (code == 0 and result is not None
                    and result["failed"] > 0 and not result["correct"])
        log("self-test %s: %s (%s)" % (
            workload, "rejected" if rejected else "NOT REJECTED",
            "failed=%d of %d" % (result["failed"], result["attempted"])
            if result else "no result"))
        ok = ok and rejected
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    if not os.path.isfile(os.path.join("src", "driver", "driver.h")):
        log("no sources under test here; run from the root of a checkout")
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 2

    if args.self_test:
        return 0 if self_test() else 1

    code, lines = run_workload(args.workload, args.seed, args.seconds,
                               args.trace)
    for line in lines[:-1]:
        print(line)
    result = check_result(lines[-1], args.trace) if lines else None
    if code != 0 or result is None:
        log("run failed (exit code %d)" % code)
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
