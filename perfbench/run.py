#!/usr/bin/env python3
"""Build and run the session benchmark for one workload.

    python3 perfbench/run.py --workload hotpath-sessions --seed 1 --seconds 30 --trace 0

Builds vyrd_check and perfbench/vbench.exe with dune, runs vbench in a
private directory under perfbench/_run/, makes sure every daemon it started
has exited, and prints the result object as the last line of stdout.  The
readable report (host fingerprint, quartiles, sample counts) comes first and
is also kept in perfbench/out/, next to the spans of traced runs.

Exit status: 0 with a result; 2 when the tree holds no VYRD sources to
build; 1 on a failed build, a vbench crash or timeout, or a daemon left
running.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
VBENCH_TIMEOUT_S = 160  # a run must end within 180 s once built
BUILD_TIMEOUT_S = 850
WORKLOADS = ["hotpath-sessions", "large-state-view", "full-analyze"]


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "perfbench/vbench.exe", "bin/vyrd_check.exe"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return proc.returncode == 0


def alive(pid):
    """True while the process exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


def kill_leftovers(run_dir):
    """SIGKILL every daemon of the run still alive; return their pids."""
    try:
        with open(os.path.join(run_dir, "pids")) as f:
            pids = [int(line) for line in f if line.strip()]
    except OSError:
        return []
    left = [pid for pid in pids if alive(pid)]
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.monotonic() + 10
    while any(alive(pid) for pid in left) and time.monotonic() < deadline:
        time.sleep(0.05)
    return left


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not all(os.path.exists(os.path.join(ROOT, p))
               for p in ("dune-project", "lib", "bin/vyrd_check.ml")):
        log(f"no VYRD sources under {ROOT}; nothing to benchmark")
        return 2
    if not build():
        log("build failed")
        return 1

    run_dir = os.path.join("perfbench", "_run", str(os.getpid()))
    out_dir = os.path.join("perfbench", "out")
    os.chdir(ROOT)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_file = os.path.join(run_dir, "result.json")
    cmd = [
        "_build/default/perfbench/vbench.exe",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--vyrd-check", "_build/default/bin/vyrd_check.exe",
        "--dir", run_dir,
        "--out", result_file,
        "--spans", os.path.join(out_dir, stem + ".spans.jsonl"),
    ]

    def on_term(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(VBENCH_TIMEOUT_S, child.kill)
    timer.start()
    rc = None
    try:
        with open(os.path.join(out_dir, stem + ".txt"), "w") as report:
            for line in child.stdout:
                sys.stdout.write(line)
                report.write(line)
        rc = child.wait()
    finally:
        timer.cancel()
        if child.poll() is None:
            child.kill()
            child.wait()
        leftovers = kill_leftovers(run_dir)
        result = None
        if os.path.exists(result_file):
            with open(result_file) as f:
                result = f.read().strip()
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.stdout.flush()
    if leftovers:
        log(f"daemons still running after the run (killed): {leftovers}")
        return 1
    if rc != 0 or result is None:
        log(f"vbench failed (exit status {rc}; killed after {VBENCH_TIMEOUT_S} s?)"
            if rc == -signal.SIGKILL else f"vbench failed (exit status {rc})")
        return 1
    parsed = json.loads(result)
    assert set(parsed) == {"correct", "attempted", "failed", "metrics"}, parsed
    print(json.dumps(parsed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
