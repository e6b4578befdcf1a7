#!/usr/bin/env python3
"""Benchmark of the richardson package: one workload per invocation.

    python3 perfbench/run.py --workload cli-lat6 --seed 1 --seconds 55 --trace 0

Run from the root of a checkout.  Each workload runs in a fresh worker
process (perfbench/worker.py) that has run nothing else.  Set-up time is
measured in that worker and in SETUP_PROBES extra workers that only set up;
``setup_s`` is their median.

With ``--trace 0`` the last line of output holds the end-to-end metrics
(wall_s, setup_s, peak_rss_mb); with ``--trace 1`` the per-layer metrics
of perfbench/README.md.  Every job's output is checked against
perfbench/reference.json; ``correct`` is false, and the exit code 1, when
any job failed its check.  Exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "worker.py"
SETUP_PROBES = 6
# the whole invocation must end within 180 s
DEADLINE_S = 170.0
# one BLAS thread, so that results do not depend on the machine's core
# count; the CLI's own scan pool is left at its default
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


def start_worker(args, extra, timeout):
    """Run one worker to completion and return its JSON result."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--launched", repr(time.monotonic())]
    proc = subprocess.run(cmd + extra, cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout, env=WORKER_ENV)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "richardson" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    began = time.monotonic()
    try:
        setups = [start_worker(args, ["--setup-only"], 60)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        left = DEADLINE_S - (time.monotonic() - began)
        res = start_worker(args, ["--seconds", str(args.seconds),
                                  "--trace", str(args.trace)], left)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    setups.append(res["setup_s"])

    for problem in res["problems"]:
        print("FAILED:", problem, file=sys.stderr)
    untraced = res["walls"]["untraced"]
    end_to_end = {"wall_s": statistics.median(untraced),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": res["peak_rss_mb"]}
    info = res["info"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {len(untraced)} untraced, {len(res['walls']['traced'])} "
          f"traced  jobs {res['attempted']}  failed {res['failed']}")
    print(f"backend {info['backend']}  blas_threads {info['blas_threads']}  "
          f"cli_threads {info['cli_threads']}")
    print(f"wall_s       {end_to_end['wall_s']:.4f} s  (median of "
          f"{len(untraced)} passes: "
          + " ".join(f"{w:.2f}" for w in untraced) + ")")
    jobs = res["jobs"]
    print("per job      " + ", ".join(
        f"{name} {statistics.median(p[name] for p in jobs):.2f}"
        for name in jobs[0]) + " s  (medians)")
    print(f"setup_s      {end_to_end['setup_s']:.4f} s  (median of "
          f"{len(setups)} set-ups)")
    print(f"peak_rss_mb  {end_to_end['peak_rss_mb']:.1f} MB")
    print(f"fail_frac    {res['failed'] / res['attempted']:.4f} ratio")

    # names and units come from BENCHMARK.json, which lists what is reported
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values = dict(res["layers"],
                      fail_frac=res["failed"] / res["attempted"])
        chosen = spec["per_layer"]
    else:
        values, chosen = end_to_end, spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in chosen}
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    correct = not res["problems"]
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
