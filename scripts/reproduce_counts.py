#!/usr/bin/env python3
"""Reproduce the published small-size census results.

Runs, in order:
  * the 2 RM algebras at size 2,
  * the 81 RM algebras at size 3 with the full 13-way proper breakdown,
  * the size-4 non-existence results (no proper pre-BZ / pre-BCC /
    pre-BBBCC among the 262,144 RM tables),
  * with --full, the 60 proper pimpl-pre-BBBCC algebras at size 5.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from implalg.cli import _worker_count
from implalg.core import PropertyId as P
from implalg.search import BaseConstraint, census

EXPECTED_SIZE3 = {
    "RM": 4, "pre-BBBZ": 2, "pre-BCI": 2, "BCI": 3, "aRM": 8, "*aRM": 8,
    "oRM": 24, "aRM**": 4, "*aRM**": 17, "pimpl-pre-BCK": 1, "*aRML": 3, "BCK": 2,
}


def _d_splits_size3():
    from implalg.core import PropertyId as Pid
    from implalg.classes import REGISTRY
    from implalg.props import eval_all
    from implalg.search import enumerate_tables

    splits = {}

    def tally(t):
        sig = eval_all(t)
        for cid in EXPECTED_SIZE3:
            if REGISTRY.is_proper(sig, cid):
                w, wo = splits.get(cid, (0, 0))
                splits[cid] = (w + 1, wo) if sig.has(Pid.D) else (w, wo + 1)

    enumerate_tables(3, BaseConstraint.RM, visitor=tally)
    return splits


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="include the size-5 run")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker count (default: ALG_JOBS, else the CPU count)")
    args = parser.parse_args()
    try:
        args.jobs = _worker_count(args.jobs)
    except ValueError as e:
        parser.error(str(e))
    failures = 0

    r2 = census(2, BaseConstraint.RM)
    print(f"size 2, RM base: {r2.total} tables ({r2.classified} classified) "
          f"(BCI={r2.per_class['BCI']}, BCK={r2.per_class['BCK']}, Hilbert={r2.per_class['Hilbert']})")
    failures += r2.total != 2

    r3 = census(3, BaseConstraint.RM)
    print(f"size 3, RM base: {r3.total} tables ({r3.classified} classified) in {r3.elapsed:.2f}s")
    d_splits = _d_splits_size3()
    for cid, want in EXPECTED_SIZE3.items():
        got = r3.per_proper[cid]
        tag = "ok" if got == want else f"MISMATCH (expected {want})"
        w, wo = d_splits.get(cid, (0, 0))
        print(f"  proper {cid:<14} {got:>3}  ({w} with D, {wo} without)  {tag}")
        failures += got != want
    print(f"  Hilbert           3  "
          f"{'ok' if r3.per_class['Hilbert'] == 3 else 'MISMATCH'}")

    r4 = census(4, BaseConstraint.RM, jobs=args.jobs)
    print(f"size 4, RM base: {r4.total} tables ({r4.classified} classified) in {r4.elapsed:.1f}s")
    for cid, want in [("pre-BZ", 0), ("pre-BCC", 0), ("pre-BBBCC", 0)]:
        got = r4.per_proper[cid]
        print(f"  proper {cid:<12} {got}  {'ok' if got == want else 'MISMATCH'}")
        failures += got != want
    print(f"  proper pre-BBBZ    {r4.per_proper['pre-BBBZ']}  (expected: many)")

    if args.full:
        r5 = census(5, BaseConstraint.RML, filter={P.B, P.BB, P.Pimpl}, jobs=args.jobs)
        got = r5.per_proper["pimpl-pre-BBBCC"]
        print(f"size 5, RML base, filter B+BB+pimpl: {r5.total} tables "
              f"({r5.classified} classified) in {r5.elapsed:.1f}s")
        print(f"  proper pimpl-pre-BBBCC {got}  {'ok' if got == 60 else 'MISMATCH (expected 60)'}")
        failures += got != 60

    print("result:", "all counts reproduced" if failures == 0 else f"{failures} mismatches")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
