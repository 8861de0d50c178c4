#!/usr/bin/env python3
"""End-to-end benchmark of the FEVES real-mode encoder.

Run from the repository root:

    python3 perfbench/run.py --workload hd_fsbm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Builds the library and the benchmark program (Release) into
.bench_build/perfbench on first use, then runs one workload. The last line
of stdout is the result JSON; build output goes to stderr. --trace 1 also
writes the run's spans as Chrome trace JSON to .bench_build/traces/.

While the workload runs, one lowest-priority (SCHED_IDLE) spinner process
per CPU keeps every core from going idle. On a virtual machine an idle vCPU
is descheduled by the hypervisor and pays a host-load-dependent wake-up
delay; workloads that spawn and join many short lane threads per frame
(cif_wide) then varied by 30-40% between runs, against 3-12% with the
spinners.
A SCHED_IDLE task yields the CPU to any other runnable thread at once, and
its CPU time is not the benchmark process's, so cpu_ms_per_frame still
counts only the encoder. Results are therefore taken with every CPU kept
busy: the wake-up cost of idle CPUs is not measured, and a program change
that only removes such wake-ups (lane workers that stay awake instead of
being spawned or woken per frame) shows less here than on an idle machine.
Where the host gives the CPUs SMT siblings, the spinners also take core
resources from the encoder's threads. The environment stamp records the
number of CPUs kept busy and the threads per core the OS reports.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds incrementally (a no-op when current)."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


SPINNER = """
import os, sys
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
parent = int(sys.argv[1])
while os.getppid() == parent:
    for _ in range(200000):
        pass
"""


def start_spinners(count):
    spinners = []
    for _ in range(count):
        spinners.append(subprocess.Popen(
            [sys.executable, "-c", SPINNER, str(os.getpid())]))
    return spinners


def stop_spinners(spinners):
    for p in spinners:
        p.kill()
    for p in spinners:
        p.wait()


def source_id():
    """git describe when the tree is a git checkout, plus a digest of the
    library sources, so results name the code they measured either way."""
    desc = ""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            desc = subprocess.run(
                ["git", "-C", ROOT, "describe", "--always", "--dirty"],
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    ident = "src-sha256:" + digest.hexdigest()[:12]
    if desc:
        ident = "git:" + desc + " " + ident
    return "".join(c for c in ident if c.isalnum() or c in " :-_.+")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    build()
    if args.self_test:
        return subprocess.call([os.path.join(BUILD, "feves_perf_selftest")])
    return run_workload(args)


def run_workload(args):
    busy_cpus = os.cpu_count() or 1
    cmd = [os.path.join(BUILD, "feves_perf"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--source-id", source_id(),
           "--busy-cpus", str(busy_cpus)]
    if args.trace == "1":
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    spinners = start_spinners(busy_cpus)
    try:
        proc = subprocess.Popen(cmd)
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
                  file=sys.stderr)
            return 1
    finally:
        stop_spinners(spinners)


if __name__ == "__main__":
    sys.exit(main())
