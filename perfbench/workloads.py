"""The four benchmark workloads over implalg's public API.

Each workload has three steps:

* ``prepare(seed)`` builds the inputs and the expected results, untimed;
* ``run(ctx, mark)`` is one timed pass. It calls ``mark()`` between its
  parts, where the harness times the host-speed reference (hostspeed.py),
  and returns the number of results the pass produced, the latency of each
  operation in ms, and the raw outputs;
* ``check(ctx, outputs)`` compares the outputs with pinned or oracle results,
  untimed, and returns ``(attempted, failures)``: the operations checked and
  one message per operation whose result is wrong or missing.

Calls go through module attributes (``search.census``), never through names
imported into this file, so the tracer's run-time wrappers see them.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from implalg import claims, classes, core, corpus, io, props, search

import oracle  # tests/oracle.py, the independent reference evaluator

P = core.PropertyId
BC = search.BaseConstraint
PINNED = json.loads((Path(__file__).parent / "pinned.json").read_text())
_perf = time.perf_counter


def _census_failures(label: str, report, pinned: dict) -> list[str]:
    """One message if the census report differs from the pinned one, else none."""
    got = {"total": report.total, "per_class": report.per_class, "per_proper": report.per_proper}
    wrong = [key for key in pinned if got[key] != pinned[key]]
    return [f"{label}: {', '.join(wrong)} differ from the pinned values"] if wrong else []


# ---------------------------------------------------------------------------
# census-rm4
# ---------------------------------------------------------------------------


def census_rm4_run(ctx, mark):
    t0 = _perf()
    report = search.census(4, BC.RM, jobs=1)
    ms = (_perf() - t0) * 1e3
    return report.total, [ms], [report]


def census_rm4_check(ctx, outputs):
    fails = []
    for report in outputs:
        fails += _census_failures("census(4, RM)", report, PINNED["census-rm4"])
    return len(outputs), fails


# ---------------------------------------------------------------------------
# pruned-n5
# ---------------------------------------------------------------------------

_PRUNED_CALLS = (
    ("census_filtered(5, RML, {B, BB, Pimpl})",
     lambda: search.census_filtered(5, BC.RML, {P.B, P.BB, P.Pimpl}, jobs=1)),
    ("census_filtered(5, RML, {B})", lambda: search.census_filtered(5, BC.RML, {P.B}, jobs=1)),
    ("enumerate_tables(5, RML, {Ex})", lambda: search.enumerate_tables(5, BC.RML, {P.Ex})),
)


def pruned_n5_run(ctx, mark):
    results, op_ms, outputs = 0, [], []
    for k, (_label, call) in enumerate(_PRUNED_CALLS):
        if k:
            mark()
        t0 = _perf()
        out = call()
        op_ms.append((_perf() - t0) * 1e3)
        results += out if isinstance(out, int) else out.total
        outputs.append(out)
    return results, op_ms, outputs


def pruned_n5_check(ctx, outputs):
    fails = ["pruned-n5: result missing"] * (len(_PRUNED_CALLS) - len(outputs))
    for (label, _call), out, want in zip(_PRUNED_CALLS, outputs, PINNED["pruned-n5"]):
        if isinstance(want, int):
            if out != want:
                fails.append(f"{label}: {out} tables, pinned {want}")
        else:
            fails += _census_failures(label, out, want)
    return len(_PRUNED_CALLS), fails


# ---------------------------------------------------------------------------
# proofs
# ---------------------------------------------------------------------------

FRONTIER_CLASS = "pi-*RML**"
#: verify_all runs over the registry in this many consecutive parts, so that
#: the host-speed reference is timed about every second.
PROOF_PARTS = 16


def proofs_run(ctx, mark):
    todo = claims.CLAIMS
    report = claims.ClaimsReport()
    for k in range(PROOF_PARTS):
        part = todo[k * len(todo) // PROOF_PARTS:(k + 1) * len(todo) // PROOF_PARTS]
        report.outcomes += claims.verify_all(claims=part, jobs=1).outcomes
        mark()
    witness = search.find_minimal_model(FRONTIER_CLASS, 6, proper=True)
    op_ms = [o.elapsed * 1e3 for o in report.outcomes]
    return len(report.outcomes), op_ms, [(report, witness)]


def _oracle_holds(table, prop) -> bool:
    return oracle.oracle_witness(table, prop.value) is None


def proofs_check(ctx, outputs):
    pinned = PINNED["proofs"]
    attempted, fails = 0, []
    for report, witness in outputs:
        attempted += pinned["outcomes"] + 1
        missing = pinned["outcomes"] - len(report.outcomes)
        fails += ["verify_all: outcome missing"] * max(0, missing)
        failed = {o.claim_id for o in report.failures}
        for o in report.outcomes:
            claim = claims._resolve(o.claim_id)
            if o.claim_id in failed:
                fails.append(f"verify_all: {o.claim_id} failed ({o.status} at n={o.size})")
            elif claim.status is core.ClaimStatus.NON_IMPLICATION and (
                o.size is None or o.size > claim.paper_size
            ):
                fails.append(f"{o.claim_id}: counterexample size {o.size} above {claim.paper_size}")
        if witness is None or witness.cells != tuple(map(tuple, pinned["frontier_cells"])):
            fails.append("find_minimal_model: size-6 witness differs from the pinned table")
            continue
        cdef = classes.REGISTRY.get(FRONTIER_CLASS)
        if not (classes.REGISTRY.check_proper(witness, FRONTIER_CLASS)[0]
                and all(_oracle_holds(witness, p) for p in cdef.required)
                and not any(_oracle_holds(witness, p) for p in cdef.proper_forbidden)):
            fails.append("find_minimal_model: witness is not a proper pi-*RML** algebra")
    return attempted, fails


# ---------------------------------------------------------------------------
# check-tables
# ---------------------------------------------------------------------------

CHECK_TABLES = 1000
VERDICT_PROPS = core.CORE_PROPS + tuple(sorted(core.BOUNDED_PROPS, key=lambda p: p.value))


def _chain_hilbert(n, x, y):
    return n - 1 if x <= y else y


def _chain_lukasiewicz(n, x, y):
    return min(n - 1, n - 1 - x + y)


def _random_poset_hilbert(rng, n):
    """x -> y = 1 if x <= y else y, on a random poset with top n-1."""
    below = [{i} for i in range(n)]
    for j in range(n - 1):
        for i in range(j):
            if rng.random() < 0.35:
                below[j] |= below[i]
    below[n - 1] = set(range(n))
    return [[n - 1 if x in below[y] else y for y in range(n)] for x in range(n)]


def _family_cells(rng, family: str, n: int) -> list[list[int]]:
    one = n - 1
    if family == "hilbert-chain":
        return [[_chain_hilbert(n, x, y) for y in range(n)] for x in range(n)]
    if family == "lukasiewicz-chain":
        return [[_chain_lukasiewicz(n, x, y) for y in range(n)] for x in range(n)]
    if family == "hilbert-poset":
        return _random_poset_hilbert(rng, n)
    cells = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
    if family in ("random-rm", "random-bounded"):
        for i in range(n):
            cells[i][i] = one
            cells[one][i] = i
    if family == "random-bounded":
        # element 0 is a zero and (L) holds, so DN and G1..G8 apply
        for i in range(n):
            cells[i][one] = one
        cells[0] = [one] * n
    return cells


FAMILIES = ("random-any", "random-rm", "random-bounded", "hilbert-chain",
            "lukasiewicz-chain", "hilbert-poset")


def generate_tables(seed: int, count: int) -> list[list[list[int]]]:
    """``count`` tables of sizes 3..6 from seeded families, each relabeled by
    a random permutation of the non-1 elements; half get 1-2 cells changed,
    so that strong axioms fail at witnesses away from the first assignment."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(3, 6)
        cells = _family_cells(rng, rng.choice(FAMILIES), n)
        perm = list(range(n - 1))
        rng.shuffle(perm)
        perm.append(n - 1)
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        cells = [[perm[cells[inv[a]][inv[b]]] for b in range(n)] for a in range(n)]
        for _ in range(rng.choice((0, 0, 1, 2))):
            cells[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        out.append(cells)
    return out


def _as_text(cells) -> str:
    names = core.default_names(len(cells))
    lines = ["elements: " + " ".join(names)]
    lines += [" ".join(names[v] for v in row) for row in cells]
    return "\n".join(lines) + "\n"


@dataclass
class TableExpectation:
    cells: tuple
    zero: object  # (zero, bounded) or None
    witnesses: dict  # property -> oracle witness, or "n/a" when not applicable
    classes: set


def _expect(cells) -> TableExpectation:
    table = core.Table.make(cells)
    zb = oracle.oracle_zero(table)
    bounded = bool(zb and zb[1])
    wit = {}
    for p in VERDICT_PROPS:
        if p in core.BOUNDED_PROPS:
            wit[p] = oracle.oracle_witness(table, p.value, zb[0]) if bounded else "n/a"
        else:
            wit[p] = oracle.oracle_witness(table, p.value)
    member = {d.id for d in classes.REGISTRY.defs if all(wit[p] is None for p in d.required)}
    return TableExpectation(table.cells, zb, wit, member)


def check_tables_prepare(seed: int):
    cells = generate_tables(seed, CHECK_TABLES)
    return {"texts": [_as_text(c) for c in cells], "expected": [_expect(c) for c in cells]}


def check_tables_run(ctx, mark):
    op_ms, rows = [], []
    for text in ctx["texts"]:
        t0 = _perf()
        table = io.parse_table(text)
        sig = props.eval_all(table)
        member = classes.REGISTRY.classify(sig)
        verdicts = [
            props.eval_bounded_property(table, p) if p in core.BOUNDED_PROPS
            else props.eval_property(table, p)
            for p in VERDICT_PROPS
        ]
        op_ms.append((_perf() - t0) * 1e3)
        rows.append((table, sig, member, verdicts))
    entries = corpus.load_corpus()
    regression = corpus.run_regression(entries)
    return len(rows) + len(entries), op_ms, [(rows, regression)]


def _table_failures(k: int, row, want: TableExpectation) -> list[str]:
    table, sig, member, verdicts = row
    where = f"table {k}"
    if table.cells != want.cells:
        return [f"{where}: parsed cells differ from the input"]
    fails = []
    bounded = bool(want.zero and want.zero[1])
    if sig.bounded != bounded or sig.zero != (want.zero[0] if want.zero else None):
        fails.append(f"{where}: zero/boundedness differs from the oracle")
    for p in VERDICT_PROPS:
        if p in core.BOUNDED_PROPS and not bounded:
            continue
        if sig.has(p) != (want.witnesses[p] is None):
            fails.append(f"{where}: signature bit {p} differs from the oracle")
    for p, res in zip(VERDICT_PROPS, verdicts):
        w = want.witnesses[p]
        got = "n/a" if not res.applicable else (None if res.satisfied else res.witness)
        if got != w:
            fails.append(f"{where}: {p} verdict {got} differs from the oracle's {w}")
    if member != want.classes:
        fails.append(f"{where}: classification differs from the oracle")
    return fails


def check_tables_check(ctx, outputs):
    pinned = PINNED["check-tables"]
    attempted, fails = 0, []
    for rows, regression in outputs:
        attempted += len(ctx["expected"]) + 1
        fails += ["check-tables: result missing"] * (len(ctx["expected"]) - len(rows))
        for k, (row, want) in enumerate(zip(rows, ctx["expected"])):
            wrong = _table_failures(k, row, want)
            if wrong:
                fails.append("; ".join(wrong))
        if (regression.checks != pinned["corpus_checks"]
                or regression.discrepancies != pinned["corpus_discrepancies"]
                or regression.implementation_failures):
            fails.append("run_regression: report differs from the documented one")
    return attempted, fails


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    op: str  # what one latency sample of ``run`` times
    run: Callable
    check: Callable
    prepare: Callable = lambda seed: None


#: Each workload's reason for being in the benchmark is its "why" in BENCHMARK.json.
WORKLOADS = {
    "census-rm4": Workload("call", census_rm4_run, census_rm4_check),
    "pruned-n5": Workload("call", pruned_n5_run, pruned_n5_check),
    "proofs": Workload("claim", proofs_run, proofs_check),
    "check-tables": Workload("table", check_tables_run, check_tables_check, check_tables_prepare),
}
