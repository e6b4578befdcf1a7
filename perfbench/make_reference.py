#!/usr/bin/env python3
"""Write the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py --out perfbench/reference.json

Runs one pass of cli-lat6 and of verify-oracle (seed 1) and records the
29 critical records, the two sweep endpoints with their crossings, and the
exit codes and sample counts of `verify`.  The committed file was made at
the seed commit; regenerate it only when a change is meant to alter these
answers, and say so.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import worker      # noqa: E402
import workloads   # noqa: E402


def full_precision(crossings, records):
    """Map the CLI's 6-digit crossing g_c to the matching record's g_c."""
    out = []
    for j, g in crossings:
        match = [r["g_c"] for r in records
                 if r["level_index"] == j and workloads.close(r["g_c"], g, 1e-5)]
        if len(match) != 1:
            raise SystemExit(f"no unique record for crossing j={j} g_c={g}")
        out.append([j, match[0]])
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    rs = worker.import_package()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="ref-", dir=ROOT / ".bench_work"))
    try:
        cli_wl = workloads.CliLat6(rs, None, 1)
        seen = cli_wl.observe(work, cli_wl.run_pass(work))
        ver_wl = workloads.VerifyOracle(rs, None, 1)
        ver_seen = ver_wl.observe(work, ver_wl.run_pass(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    records = seen["records"]
    sweeps = {}
    for name, s in seen["sweeps"].items():
        if s["status"] != "completed":
            raise SystemExit(f"{name} did not complete")
        sweeps[name] = {"target": s["target"], "energy": s["energy"],
                        "crossings": full_precision(s["crossings"], records),
                        "spower_files": s["spower_files"]}
    reference = {
        "cli-lat6": {"records": records, "sweeps": sweeps},
        "verify-oracle": [{"rc": v["rc"], "samples": v["samples"]}
                          for v in ver_seen],
    }
    Path(args.out).write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {args.out}: {len(records)} records, sweeps "
          + ", ".join(f"{k} E={v['energy']} with {len(v['crossings'])} "
                      f"crossings" for k, v in sweeps.items())
          + f", verify {[v['rc'] for v in ver_seen]}")


if __name__ == "__main__":
    main()
