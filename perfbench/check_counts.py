"""Check that the exact per-layer counts repeat for one seed.

Runs each workload's traced benchmark twice with the same seed and compares
the counts of EXACT_COUNTS; any difference is nondeterminism in the
program (or the benchmark) and makes the command exit 1.

Usage, from the repository root:

    python3 perfbench/check_counts.py --seed 1
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Seconds per traced run: enough for one traced pass; the counts do not
#: depend on the run length.
RUN_SECONDS = 2

#: Per-layer counts that must repeat exactly for one hash seed.
EXACT_COUNTS = (
    "search.leaves",
    "props.holds_at.calls",
    "props.bulk.tables",
    "search.compile.instances",
    "claims.tables_examined",
    "corpus.checks",
)


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: benchmark failed (exit {proc.returncode})\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: metrics[k]["value"] for k in EXACT_COUNTS}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    drift = False
    for workload in (w["name"] for w in spec["workloads"]):
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        differ = {k: (first[k], second[k]) for k in EXACT_COUNTS if first[k] != second[k]}
        drift |= bool(differ)
        status = f"NONDETERMINISM {differ}" if differ else "repeat exactly"
        print(f"{workload} seed {args.seed}: {first} {status}", flush=True)
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
