"""The transcribed example tables with their claimed classifications.

Each entry stores a table exactly as printed in the source material together
with the classification, proper status, and per-property verdicts (with
violation witnesses where stated) claimed for it.  The regression runner
recomputes everything from scratch; disagreements between recomputation and
the transcription are reported as PAPER-DISCREPANCY findings, never patched.

A stated witness is accepted if it violates the property under the standard
(x, y, z) variable order or under the formula's textual variable order (the
source is ambiguous for a few conditional-property witnesses); the report
records which reading matched.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional

from .classes import REGISTRY
from .core import PropertyId, Table
from .io import parse_table
from .props import FORMULAS, eval_all, eval_bounded_property, eval_property, find_zero

__all__ = ["CorpusEntry", "WitnessMismatch", "load_corpus", "run_regression", "RegressionReport"]


class WitnessMismatch(ValueError):
    pass


@dataclass(frozen=True)
class CorpusEntry:
    id: str
    table: Table
    expected_class: str
    expected_proper: bool
    #: prop -> (claimed satisfied, stated witness as element indices or None)
    expected_flags: dict[PropertyId, tuple[bool, Optional[tuple[int, ...]]]]
    notes: str = ""


def _witness_violates(table: Table, prop: PropertyId, witness: tuple[int, ...]) -> Optional[str]:
    """Reading under which the stated witness violates, or None."""
    formula = FORMULAS[prop]
    if len(witness) != formula.arity:
        return None
    zero = None
    if formula.uses_zero:
        zb = find_zero(table)
        if zb is None or not zb[1]:
            return None
        zero = zb[0]
    if not formula.holds_at(table, witness, zero):
        return "xyz"
    torder = formula.variables
    if len(torder) == formula.arity and torder != tuple(range(formula.arity)):
        assignment = [0] * formula.arity
        for k, var in enumerate(torder):
            assignment[var] = witness[k]
        if not formula.holds_at(table, assignment, zero):
            return "textual"
    return None


def load_corpus() -> list[CorpusEntry]:
    """Parse every manifest entry; raises on malformed data or witnesses that
    fail to violate under either reading."""
    pkg = resources.files("implalg") / "corpus_data"
    manifest = json.loads((pkg / "manifest.json").read_text())
    entries: list[CorpusEntry] = []
    seen_cells: dict[tuple, str] = {}
    for rec in manifest["entries"]:
        table = parse_table((pkg / rec["file"]).read_text())
        if rec["expected_class"] not in REGISTRY:
            raise WitnessMismatch(f'{rec["id"]}: unknown class {rec["expected_class"]}')
        name_index = {s: i for i, s in enumerate(table.names)}
        flags: dict[PropertyId, tuple[bool, Optional[tuple[int, ...]]]] = {}
        for tok in rec["sat"]:
            flags[PropertyId.parse(tok)] = (True, None)
        for tok, wit in rec["unsat"].items():
            prop = PropertyId.parse(tok)
            indices = None
            if wit is not None:
                indices = tuple(name_index[s] for s in wit.split())
                if _witness_violates(table, prop, indices) is None:
                    raise WitnessMismatch(
                        f'{rec["id"]}: stated witness {wit} does not violate {prop}'
                    )
            flags[prop] = (False, indices)
        if table.cells in seen_cells:
            import warnings

            warnings.warn(f'{rec["id"]} duplicates table of {seen_cells[table.cells]}')
        else:
            seen_cells[table.cells] = rec["id"]
        entries.append(
            CorpusEntry(rec["id"], table, rec["expected_class"], rec["expected_proper"], flags, rec["notes"])
        )
    return entries


@dataclass
class RegressionReport:
    checks: int = 0
    discrepancies: list[str] = field(default_factory=list)
    implementation_failures: list[str] = field(default_factory=list)
    witness_readings: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.discrepancies and not self.implementation_failures

    def format_text(self) -> str:
        lines = [f"corpus regression: {self.checks} checks"]
        for d in self.discrepancies:
            lines.append(f"PAPER-DISCREPANCY: {d}")
        for f_ in self.implementation_failures:
            lines.append(f"FAILURE: {f_}")
        textual = {k: v for k, v in self.witness_readings.items() if v == "textual"}
        if textual:
            lines.append(f"witnesses matched under textual variable order: {sorted(textual)}")
        lines.append("result: " + ("all good" if self.ok else "findings above"))
        return "\n".join(lines)

    def to_record(self) -> dict:
        return {
            "checks": self.checks,
            "discrepancies": list(self.discrepancies),
            "implementation_failures": list(self.implementation_failures),
            "witness_readings": dict(self.witness_readings),
            "ok": self.ok,
        }


def run_regression(entries: Optional[list[CorpusEntry]] = None) -> RegressionReport:
    """Recompute class, proper status, and every claimed flag for the corpus."""
    report = RegressionReport()
    if entries is None:
        try:
            entries = load_corpus()
        except Exception as e:  # load problems are implementation failures
            report.implementation_failures.append(str(e))
            return report
    for entry in entries:
        sig = eval_all(entry.table)
        report.checks += 1
        if not REGISTRY.is_member(sig, entry.expected_class):
            report.discrepancies.append(
                f"{entry.id}: not a member of claimed class {entry.expected_class}"
            )
        cdef = REGISTRY.get(entry.expected_class)
        if cdef.proper_forbidden is not None:
            report.checks += 1
            recomputed = REGISTRY.is_proper(sig, entry.expected_class)
            if recomputed != entry.expected_proper:
                report.discrepancies.append(
                    f"{entry.id}: proper {entry.expected_class} recomputes to {recomputed},"
                    f" claimed {entry.expected_proper}"
                )
        elif entry.expected_proper:
            report.implementation_failures.append(
                f"{entry.id}: claimed proper but {entry.expected_class} has no proper definition"
            )
        for prop, (claimed_sat, witness) in sorted(
            entry.expected_flags.items(), key=lambda kv: kv[0].value
        ):
            report.checks += 1
            if prop.bounded_only:
                res = eval_bounded_property(entry.table, prop)
                if not res.applicable:
                    report.discrepancies.append(
                        f"{entry.id}: {prop} claimed on a non-bounded table"
                    )
                    continue
            else:
                res = eval_property(entry.table, prop)
            if res.satisfied != claimed_sat:
                report.discrepancies.append(
                    f"{entry.id}: {prop} recomputes to"
                    f" {'satisfied' if res.satisfied else f'violated at {res.witness}'},"
                    f" claimed {'satisfied' if claimed_sat else 'violated'}"
                )
                continue
            if witness is not None:
                reading = _witness_violates(entry.table, prop, witness)
                if reading is None:
                    report.discrepancies.append(
                        f"{entry.id}: stated {prop} witness {witness} does not violate"
                    )
                else:
                    report.witness_readings[f"{entry.id}:{prop}"] = reading
    return report
