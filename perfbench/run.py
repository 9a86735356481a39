#!/usr/bin/env python3
"""Kronos benchmark: one command per run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the load generator and the
server with dune, reads the workload's fixed offered rate and p99 latency
limit from BENCHMARK.json (the "ops/s" and "p99 limit ... ms" figures in
its "why"), runs the load generator and passes its result line through:
the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The human-readable report goes
to standard error and to .perfbench-work/report-W-N-T.txt.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-work")
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170


def workload_params(name):
    """Fixed rate (ops/s) and p99 limit (ms) stated in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        if w["name"] == name:
            rate = re.search(r"(\d+) ops/s", w["why"])
            limit = re.search(r"p99 limit (\d+) ms", w["why"])
            if not rate or not limit:
                sys.exit(f"BENCHMARK.json: no rate or limit in the why of {name}")
            return int(rate.group(1)), int(limit.group(1))
    sys.exit(f"unknown workload {name}")


def source_id():
    """The commit, or a hash of the sources when this is not a git tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha1()
    for top in ("lib", "bin", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune")):
                    with open(os.path.join(d, f), "rb") as fh:
                        h.update(fh.read())
    return "tree-" + h.hexdigest()[:12]


def run(cmd, timeout, **kw):
    """Run in a new process group; on timeout kill the whole group and wait."""
    p = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kw)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        sys.exit(f"perfbench: {cmd[0]} timed out after {timeout} s")
    return p.returncode, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    rate, limit = workload_params(a.workload)

    # the shared dune cache lives outside the checkout: keep it out
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run(["dune", "build", "--root", ROOT, "./perfbench/loadgen.exe",
                   "./perfbench/kserver.exe"], BUILD_TIMEOUT,
                  stdout=sys.stderr, env=env)
    if code != 0:
        sys.exit(f"perfbench: build failed ({code})")

    exe = os.path.join(ROOT, "_build", "default", "perfbench")
    os.makedirs(WORK, exist_ok=True)
    code, out = run([os.path.join(exe, "loadgen.exe"),
                     "--workload", a.workload, "--seed", str(a.seed),
                     "--seconds", str(a.seconds), "--trace", str(a.trace),
                     "--rate", str(rate), "--limit-ms", str(limit),
                     "--server", os.path.join(exe, "kserver.exe"),
                     "--work", WORK, "--commit", source_id()],
                    RUN_TIMEOUT, stdout=subprocess.PIPE, text=True)
    # the servers' data directories are not kept between runs
    for entry in os.listdir(WORK):
        path = os.path.join(WORK, entry)
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
    if code != 0:
        sys.exit(f"perfbench: load generator failed ({code})")
    lines = out.strip().splitlines()
    if not lines:
        sys.exit("perfbench: no result")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
