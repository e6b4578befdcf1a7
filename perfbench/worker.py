"""One benchmark workload in a fresh process; run.py starts it.

Imports the package from the checkout's ``src/``, sets the workload up,
then runs timed passes while they fit into ``--seconds`` (at least one).
Every pass gets a fresh directory under ``.bench_work/`` and starts with
the package's memo caches cleared, since a CLI user pays them on every
command.  With ``--trace 1`` untraced and traced passes alternate: the
untraced ones give ``trace.overhead_frac``, the traced ones the per-layer
metrics, whose counts must repeat exactly from one traced pass to the next.

Prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def import_package():
    """The package under ``ROOT/src``, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import richardson
    from richardson import cli, continuation, model, solver  # noqa: F401
    if Path(richardson.__file__).resolve().parent != src / "richardson":
        sys.exit(f"richardson imported from {richardson.__file__}, "
                 f"not from {src}")
    return richardson


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None if it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                return int(getattr(handle, sym)())
    return None


def run_pass(workload, rs, tracer):
    """One timed pass: (wall_s, cpu_s, outcomes, reasons, warning texts)."""
    work = Path(tempfile.mkdtemp(prefix="pass-", dir=ROOT / ".bench_work"))
    try:
        rs.solver._single_level_roots.cache_clear()
        gc.collect()
        with warnings.catch_warnings(record=True) as caught:
            # count every warning; the test suite hides TruncatedScanWarning
            warnings.simplefilter("always")
            with tracer if tracer is not None else contextlib.nullcontext():
                cpu0, t0 = time.process_time(), time.perf_counter()
                outcomes = workload.run_pass(work)
                wall = time.perf_counter() - t0
                cpu = time.process_time() - cpu0
        reasons = workload.check(work, outcomes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    seen = [f"{w.category.__name__}: {w.message}" for w in caught]
    return wall, cpu, outcomes, reasons, seen


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launched", type=float, required=True,
                    help="time.monotonic() of the launcher at process start")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    rs = import_package()
    sys.path.insert(0, str(ROOT / "perfbench"))
    import tracing
    import workloads
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    # a traced run also traces set-up, where the model layer does its work
    setup_tracer = tracing.Tracer()
    with setup_tracer if args.trace else contextlib.nullcontext():
        workload = workloads.WORKLOADS[args.workload](rs, reference,
                                                      args.seed)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    setup_s = time.monotonic() - args.launched
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    walls = {"untraced": [], "traced": []}
    jobs = []
    cpus = []
    attempted = failed = 0
    problems = []
    counts = None
    layer_times = []
    start = time.perf_counter()
    kinds = ["untraced", "traced"] if args.trace else ["untraced"]
    n = 0
    while True:
        kind = kinds[n % len(kinds)]
        # start a pass only if it should end within the run; passes of each
        # kind take about as long as the previous ones of that kind
        if n >= len(kinds) and time.perf_counter() - start \
                + statistics.median(walls[kind]) > args.seconds:
            break
        n += 1
        tracer = tracing.Tracer() if kind == "traced" else None
        wall, cpu, outcomes, reasons, seen = run_pass(workload, rs, tracer)
        walls[kind].append(wall)
        attempted += len(outcomes)
        bad = [r for r in reasons if r is not None]
        failed += len(bad)
        problems.extend(bad)
        if tracer is None:
            cpus.append(cpu)
            jobs.append({oc.name: oc.seconds for oc in outcomes})
            continue
        pass_counts, times = tracing.layer_metrics(tracer.spans, seen)
        if counts is None:
            counts = pass_counts
        elif pass_counts != counts:
            diff = sorted(k for k in counts if counts[k] != pass_counts[k])
            problems.append(f"traced counts differ between passes: {diff}")
        layer_times.append(times)

    result = {
        "setup_s": setup_s,
        "walls": walls,
        "jobs": jobs,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "info": {"blas_threads": blas_threads(),
                 "cli_threads": rs.cli.max_threads(),
                 "backend": rs.backend_name()},
    }
    if args.trace:
        layer = dict(counts)
        for key in layer_times[0]:
            layer[key] = statistics.median(t[key] for t in layer_times)
        _, setup_times = tracing.layer_metrics(setup_tracer.spans, [])
        layer["model.self_s"] += setup_times["model.self_s"]
        layer["process.cpu_s"] = statistics.median(cpus)
        layer["trace.overhead_frac"] = (statistics.median(walls["traced"])
                                        / statistics.median(walls["untraced"])
                                        - 1.0)
        result["layers"] = layer
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
