"""Print every metric of every workload by name and unit, and keep them.

Usage, from the root of a checkout::

    python3 bench/report.py [--seed 1] [--seconds 60] [--label latest]

Runs each workload untraced (end-to-end metrics) and then traced (per-layer
metrics), one run at a time, exactly as ``bench/run.py`` does, and writes
every record with its environment to ``bench/results/BENCH_<label>.json``
(or to ``--out``). Exits 1 if any output failed its check.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--label", default="latest")
    ap.add_argument("--out", type=Path, default=None)
    opts = ap.parse_args()
    if not run.sources_present():
        return 2
    records = []
    for workload in run.WORKLOADS:
        for trace in (False, True):
            record = run.run_workload(workload, opts.seed, opts.seconds, trace)
            run.print_record(record)
            records.append(record)
    out = opts.out or run.RESULTS / f"BENCH_{opts.label}.json"
    out.write_text(json.dumps({
        "label": opts.label,
        "env": run.environment(opts.seed, tiny=False),
        "seconds": opts.seconds,
        "records": records,
    }, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0 if all(r["failed"] == 0 for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
