#!/usr/bin/env python3
"""Dump the pinned outputs of implalg as one deterministic JSON document.

Two checkouts whose dumps are byte-identical agree on every count, witness,
least counterexample and tables-examined figure below, so a change that must
keep its outputs is checked with one diff:

    python3 scripts/dump_outputs.py > new.json
    python3 <other checkout>/scripts/dump_outputs.py > old.json
    diff old.json new.json

It covers:
  * ``census(n, base)`` for n <= 3 and every base: per_class, per_proper,
    total and classified;
  * ``census(4, RM)`` with 1 and 7 shards;
  * the three pruned size-5 results of the benchmark;
  * every ``verify_all`` outcome: status, size, table, conclusion, witness
    and tables examined per size;
  * ``find_minimal_model(c, 4)``, plain and proper, for every class.

Timings are left out.  Runs single-process, in about ten seconds on a 2-CPU
host.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from implalg.claims import verify_all
from implalg.classes import REGISTRY, UnknownClass
from implalg.core import PropertyId as P
from implalg.search import (
    BaseConstraint,
    UnsupportedFilter,
    census,
    enumerate_tables,
    find_minimal_model,
)


def _census(report) -> dict:
    return {
        "total": report.total,
        "classified": report.classified,
        "per_class": report.per_class,
        "per_proper": report.per_proper,
    }


def _cells(table):
    return None if table is None else [list(row) for row in table.cells]


def _minimal(class_id: str, proper: bool):
    try:
        return _cells(find_minimal_model(class_id, 4, proper=proper))
    except (UnknownClass, UnsupportedFilter) as e:  # a refused request is an output too
        return {"error": type(e).__name__, "message": str(e)}


def dump() -> dict:
    out: dict = {"census": {}}
    for n in (1, 2, 3):
        for base in BaseConstraint:
            out["census"][f"{n}/{base.value}"] = _census(census(n, base))
    for shards in (1, 7):
        out["census"][f"4/RM/shards={shards}"] = _census(census(4, BaseConstraint.RM, shards=shards))
    rml = BaseConstraint.RML
    out["pruned_n5"] = {
        "census(5, RML, {B, BB, Pimpl})": _census(census(5, rml, (P.B, P.BB, P.Pimpl))),
        "census(5, RML, {B})": _census(census(5, rml, (P.B,))),
        "enumerate_tables(5, RML, {Ex})": enumerate_tables(5, rml, (P.Ex,)),
    }
    outcomes = []
    for o in verify_all().outcomes:
        outcomes.append({
            "claim": o.claim_id,
            "status": o.status,
            "max_size": o.max_size,
            "size": o.size,
            "table": _cells(o.table),
            "conclusion": None if o.conclusion is None else o.conclusion.value,
            "witness": None if o.witness is None else list(o.witness),
            "tables_examined": {str(n): k for n, k in sorted(o.tables_examined.items())},
        })
    out["verify_all"] = outcomes
    out["find_minimal_model"] = {
        d.id: {"plain": _minimal(d.id, False), "proper": _minimal(d.id, True)}
        for d in REGISTRY.defs
    }
    return out


if __name__ == "__main__":
    json.dump(dump(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
