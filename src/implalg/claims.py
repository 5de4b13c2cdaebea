"""Machine-checking of implication lemmas and independence remarks.

Every claim is verified by exhaustive small-model search: a theorem claim is
Verified when no table up to the size budget satisfies its hypotheses while
violating a conclusion; a non-implication claim must instead produce such a
counterexample at or below the size where the source exhibits one.

The search passes the non-bounded hypotheses to ``search._search_batched``,
which derives their space as for every search: the cells of (Re), (M) and
(L) pinned, the other hypotheses pruned.  It decides its leaves in buffered
batches: boundedness, bounded-only hypotheses and conclusions through the
props batch masks, proper membership through signature bits.  Each outcome
records how many tables it examined per size.

A Verified verdict here is finite evidence, not proof: the search is
exhaustive only up to the stated size.  Claims are identified by semantic
content (stable string ids), not by the source's item numbers, whose internal
cross-references drift.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .classes import REGISTRY
from .core import BOUNDED_PROPS, Claim, ClaimStatus, PropertyId, Table
from .props import FORMULAS, _first_witness, _holds, _violation_mask, find_zero_bulk
from .search import MAX_SIZE, SizeTooLarge, _check_jobs, _proper_mask, _search_batched

__all__ = [
    "CLAIMS",
    "claim_by_id",
    "verify_claim",
    "refute",
    "verify_all",
    "default_max_size",
    "VerifyOutcome",
    "ClaimsReport",
]

P = PropertyId


def _ps(*tags: str) -> frozenset[PropertyId]:
    return frozenset(PropertyId.parse(t) for t in tags)


def _pt(*tags: str) -> tuple[PropertyId, ...]:
    return tuple(PropertyId.parse(t) for t in tags)


def _implies(cid, hyps, concls, citation=""):
    return Claim(cid, _ps(*hyps.split()), _pt(*concls.split()), "implies", citation=citation)


def _equiv(cid, hyps, a, b, citation=""):
    return Claim(cid, _ps(*hyps.split()), _pt(a, b), "equiv", citation=citation)


def _bounded(cid, hyps, concl, citation=""):
    return Claim(
        cid, _ps(*hyps.split()), _pt(concl), "implies", bounded_only=True, citation=citation
    )


def _nonimpl(cid, hyps, concl, paper_size, citation=""):
    return Claim(
        cid,
        _ps(*hyps.split()),
        _pt(concl),
        "implies",
        status=ClaimStatus.NON_IMPLICATION,
        paper_size=paper_size,
        citation=citation,
    )


def _ident(cid, sub_class, extra, super_class):
    """Class identity "sub + extra = super" as two membership implications."""
    sub_req = REGISTRY.get(sub_class).required | _ps(*extra.split())
    sup_req = REGISTRY.get(super_class).required
    fwd = Claim(
        cid + ".fwd",
        frozenset(sub_req),
        tuple(sorted(sup_req - sub_req, key=lambda p: p.value)) or (P.Re,),
        "implies",
        citation=f"{sub_class} + {extra} = {super_class}",
    )
    bwd = Claim(
        cid + ".bwd",
        frozenset(sup_req),
        tuple(sorted(sub_req - sup_req, key=lambda p: p.value)) or (P.Re,),
        "implies",
        citation=f"{sub_class} + {extra} = {super_class}",
    )
    return [fwd, bwd]


def _proper_empty(cid, class_id, prop, citation=""):
    return Claim(
        cid,
        REGISTRY.get(class_id).required | {PropertyId.parse(prop)},
        _pt(prop),
        "proper_empty",
        proper_class=class_id,
        citation=citation,
    )


def _build_claims() -> tuple[Claim, ...]:
    claims: list[Claim] = [
        # the numbered connection list
        _implies("p2.1-0", "Re", "S", "(Re) implies (S)"),
        _implies("p2.1-00", "M", "N", "(M) implies (N)"),
        _implies("p2.1-1", "L An", "N", "(L) + (An) imply (N)"),
        _implies("p2.1-2", "K An", "N", "(K) + (An) imply (N)"),
        _implies("p2.1-3", "C An", "Ex", "(C) + (An) imply (Ex)"),
        _implies("p2.1-3p", "Ex Re", "C", "(Ex) + (Re) imply (C)"),
        _implies("p2.1-4", "Re Ex", "D", "(Re) + (Ex) imply (D)"),
        _implies("p2.1-5", "Re Ex An", "M", "(Re) + (Ex) + (An) imply (M)"),
        _implies("p2.1-5p", "Re Ex An", "N", "(Re) + (Ex) + (An) imply (N)"),
        _implies("p2.1-6", "Re K", "L", "(Re) + (K) imply (L)"),
        _implies("p2.1-7", "N K", "L", "(N) + (K) imply (L)"),
        _implies("p2.1-7p", "M K", "L", "(M) + (K) imply (L)"),
        _implies("p2.1-8", "Re L Ex", "K", "(Re) + (L) + (Ex) imply (K)"),
        _implies("p2.1-9", "M L B", "K", "(M) + (L) + (B) imply (K)"),
        _implies("p2.1-9p", "M L StarStar", "K", "(M) + (L) + (**) imply (K)"),
        _equiv("p2.1-10", "Ex", "B", "BB", "(Ex) implies (B) iff (BB)"),
        _implies("p2.1-10p", "Ex B", "BB", "(Ex) + (B) imply (BB)"),
        _implies("p2.1-10pp", "Ex BB", "B", "(Ex) + (BB) imply (B)"),
        _implies("p2.1-11", "Re Ex Star", "BB", "(Re) + (Ex) + (*) imply (BB)"),
        _implies("p2.1-12", "N B", "Star", "(N) + (B) imply (*)"),
        _implies("p2.1-12p", "M B", "Star", "(M) + (B) imply (*)"),
        _implies("p2.1-13", "N Star", "Tr", "(N) + (*) imply (Tr)"),
        _implies("p2.1-13p", "M Star", "Tr", "(M) + (*) imply (Tr)"),
        _implies("p2.1-14", "N B", "Tr", "(N) + (B) imply (Tr)"),
        _implies("p2.1-14p", "M B", "Tr", "(M) + (B) imply (Tr)"),
        _implies("p2.1-15", "N BB", "StarStar", "(N) + (BB) imply (**)"),
        _implies("p2.1-15p", "M BB", "StarStar", "(M) + (BB) imply (**)"),
        _implies("p2.1-16", "N StarStar", "Tr", "(N) + (**) imply (Tr)"),
        _implies("p2.1-16p", "M StarStar", "Tr", "(M) + (**) imply (Tr)"),
        _implies("p2.1-17", "N BB", "Tr", "(N) + (BB) imply (Tr)"),
        _implies("p2.1-17p", "M BB", "Tr", "(M) + (BB) imply (Tr)"),
        _implies("p2.1-18", "M BB", "Re", "(M) + (BB) imply (Re)"),
        _implies("p2.1-18p", "M BB", "D", "(M) + (BB) imply (D)"),
        _implies("p2.1-19", "M B", "Re", "(M) + (B) imply (Re)"),
        _implies("p2.1-20", "BB D N", "C", "(BB) + (D) + (N) imply (C)"),
        _implies("p2.1-20p", "M BB", "C", "(M) + (BB) imply (C)"),
        _implies("p2.1-21", "BB D N An", "Ex", "(BB) + (D) + (N) + (An) imply (Ex)"),
        _implies("p2.1-21p", "BB D L An", "Ex", "(BB) + (D) + (L) + (An) imply (Ex)"),
        _implies("p2.1-21pp", "M BB An", "Ex", "(M) + (BB) + (An) imply (Ex)"),
        _implies("p2.1-22", "B C K An", "Re", "(B) + (C) + (K) + (An) imply (Re)"),
        _implies("p2.1-23", "BB D Re An", "N", "(BB) + (D) + (Re) + (An) imply (N)"),
        _implies("p2.1-24", "Re Ex Tr", "StarStar", "(Re) + (Ex) + (Tr) imply (**)"),
        # the four standing theorems
        _equiv("th1.B-BB", "Re M Ex", "B", "BB", "under (Re),(M),(Ex): (B) iff (BB)"),
        _equiv("th1.BB-Star", "Re M Ex", "BB", "Star", "under (Re),(M),(Ex): (BB) iff (*)"),
        _equiv("th2", "Re M Ex", "StarStar", "Tr", "under (Re),(M),(Ex): (**) iff (Tr)"),
        _equiv("th3", "Re M B An", "Ex", "BB", "under (Re),(M),(B),(An): (Ex) iff (BB)"),
        _implies("th4.i", "M BB", "B", "(M) + (BB) imply (B)"),
        _implies("th4.ii", "M B", "StarStar", "(M) + (B) imply (**)"),
        # classical facts about BCI / BCH algebras
        _implies("bci-props", "BB M An", "B Ex Star StarStar U", "BCI algebras verify (Ex),(U),(B),(*),(**)"),
        _implies("bch-props", "Re Ex An", "D M N", "BCH algebras verify (D),(M),(N)"),
        # the logic-style equivalent definitions
        _implies("def-bci-logic.fwd", "B C Re An", "BB M", "BCI iff (B),(C),(Re),(An)"),
        _implies("def-bci-logic.bwd", "BB M An", "B C Re", "BCI iff (B),(C),(Re),(An)"),
        _implies("def-bck-logic.fwd", "B C K An", "BB M L", "BCK iff (B),(C),(K),(An)"),
        _implies("def-bck-logic.bwd", "BB M L An", "B C K", "BCK iff (B),(C),(K),(An)"),
        # the equivalent first definitions of BCI / BCK
        _implies("def-bci-a.fwd", "BB D Re N An", "M", "BCI via (BB),(D),(Re),(N),(An)"),
        _implies("def-bci-a.bwd", "BB M An", "D Re N", "BCI via (BB),(D),(Re),(N),(An)"),
        _implies("def-bci-b.fwd", "BB D Re An", "M N", "BCI via (BB),(D),(Re),(An)"),
        _implies("def-bck-a.fwd", "BB D Re L An", "M", "BCK via (BB),(D),(Re),(L),(An)"),
        _implies("def-bck-a.bwd", "BB M L An", "D Re", "BCK via (BB),(D),(Re),(L),(An)"),
        # Hilbert-direction propositions
        _implies("prop-pi.i", "Re Pimpl", "L", "(Re) + (pimpl) imply (L)"),
        _implies("prop-pi.ii", "Re Pi", "L", "(Re) + (pi) imply (L)"),
        _implies("prop-pi.iii", "Re M Pimpl", "Pi", "(Re) + (M) + (pimpl) imply (pi)"),
        _implies("pi-chain.a", "Re L Ex StarStar", "P2", "(Re)+(L)+(Ex)+(**) imply (p-2)"),
        _implies("pi-chain.b", "Ex B Star Pi", "P1", "(Ex)+(B)+(*)+(pi) imply (p-1)"),
        _implies("pi-chain.c", "P1 P2 An", "Pimpl", "(p-1)+(p-2)+(An) imply (pimpl)"),
        _implies("pi-chain.d", "Re Ex B StarStar Star L An Pi", "Pimpl", "all together imply (pimpl)"),
        _implies("pkt", "Pimpl K", "B", "(pimpl) + (K) imply (B)"),
        _implies("p2-in-BEss", "Re M L Ex StarStar", "P2", "BE** algebras verify (p-2)"),
        _implies("p2-in-preBCK", "Re M L Ex Star", "P2", "pre-BCK algebras verify (p-2)"),
        _implies("p1-in-pi-preBCK", "Re M L Ex Star Pi", "P1", "in pre-BCK, (pi) implies (p-1)"),
        _implies("pimpl-in-pi-BCK", "BB M L An Pi", "Pimpl", "in BCK, (pi) implies (pimpl)"),
        # negation laws on bounded tables
        _bounded("g1", "Ex", "G1", "(Ex) implies (G1)"),
        _bounded("g2", "Ex DN", "G2", "(Ex) + (DN) imply (G2)"),
        _bounded("g3", "Ex DN", "G3", "(Ex) + (DN) imply (G3)"),
        _bounded("g4", "D", "G4", "(D) implies (G4)"),
        _bounded("g5", "BB", "G5", "(BB) implies (G5)"),
        _bounded("g6", "StarStar", "G6", "(**) implies (G6)"),
        _bounded("g7", "StarStar DN", "G7", "(**) + (DN) imply (G7)"),
        _bounded("g8", "U", "G8", "(U) implies (G8)"),
        # independence remarks: the entailment must FAIL, with a small witness
        _nonimpl("ni-star-not-starstar", "Re M Star", "StarStar", 3, "(*) does not imply (**)"),
        _nonimpl("ni-starstar-not-star", "Re M StarStar", "Star", 3, "(**) does not imply (*)"),
        _nonimpl("ni-tr-not-bb", "Re M L Ex An StarStar", "BB", 4, "(Tr) does not imply (BB)"),
        _nonimpl("ni-pi-not-pimpl", "Re M L Ex An Pi", "Pimpl", 4, "(pi) does not imply (pimpl)"),
        _nonimpl("ni-b-not-bb", "Re M B", "BB", 5, "(B) does not imply (BB)"),
        _nonimpl("ni-starstar-not-b", "Re M StarStar", "B", 4, "(**) does not imply (B)"),
    ]
    # class identities "X + (P) = Y"
    for sub, extra, sup in [
        ("BCI", "L", "BCK"),
        ("BCC", "Ex", "BCK"),
        ("BZ", "Ex", "BCI"),
        ("BZ", "L", "BCC"),
        ("BE", "Star", "pre-BCK"),
        ("pre-BCK", "An", "BCK"),
        ("pre-BZ", "An", "BZ"),
        ("pre-BCI", "An", "BCI"),
        ("RME", "An", "BCH"),
        ("aRM", "B", "BZ"),
        ("aRM", "Ex", "BCH"),
        ("BCH", "B", "BCI"),
        ("BCH", "BB", "BCI"),
        ("pre-BBBZ", "An", "BCI"),
        ("pre-BBBCC", "An", "BCK"),
        ("pre-BBBZ", "L", "pre-BBBCC"),
        ("tRM", "Star", "*RM"),
        ("*RM", "B", "pre-BZ"),
        ("RM**", "B", "pre-BZ"),
        ("*RM**", "B", "pre-BZ"),
        ("oRM", "Star", "*aRM"),
        ("*aRM", "B", "BZ"),
        ("aRM**", "B", "BZ"),
        ("*aRM**", "B", "BZ"),
        ("tRML", "Star", "*RML"),
        ("*RML", "B", "pre-BCC"),
        ("RML**", "B", "pre-BCC"),
        ("*RML**", "B", "pre-BCC"),
        ("oRML", "Star", "*aRML"),
        ("*aRML", "B", "BCC"),
        ("aRML**", "B", "BCC"),
        ("*aRML**", "B", "BCC"),
        ("RME**", "B", "pre-BCI"),
        ("BCH**", "B", "BCI"),
        ("BE**", "B", "pre-BCK"),
        ("aBE**", "B", "BCK"),
    ]:
        key = sub.replace("*", "s").replace("-", "")
        sup_key = sup.replace("*", "s").replace("-", "")
        claims.extend(_ident(f"ident-{key}-{extra}-{sup_key}", sub, extra, sup))
    # (pimpl) cannot hold in these proper classes
    for cls in ["BE", "aBE", "BE**", "aBE**", "RML**", "*RML**", "aRML**", "*aRML**"]:
        key = cls.replace("*", "s")
        claims.append(
            _proper_empty(f"pimpl-impossible-{key}", cls, "Pimpl", f"no proper {cls} verifies (pimpl)")
        )
    return tuple(claims)


CLAIMS: tuple[Claim, ...] = _build_claims()
_BY_ID = {c.id: c for c in CLAIMS}
assert len(_BY_ID) == len(CLAIMS), "duplicate claim ids"


def claim_by_id(cid: str) -> Claim:
    try:
        return _BY_ID[cid]
    except KeyError:
        raise KeyError(f"unknown claim id {cid!r}") from None


def _resolve(outcome_id: str) -> Claim:
    """Outcome ids may carry a .fwd/.bwd direction suffix."""
    if outcome_id in _BY_ID:
        return _BY_ID[outcome_id]
    base, _, suffix = outcome_id.rpartition(".")
    if suffix in ("fwd", "bwd") and base in _BY_ID:
        return _BY_ID[base]
    raise KeyError(f"unknown claim id {outcome_id!r}")


@dataclass
class VerifyOutcome:
    claim_id: str
    status: str  # "verified" | "counterexample" | "not-found"
    max_size: int
    size: Optional[int] = None
    table: Optional[Table] = None
    conclusion: Optional[PropertyId] = None
    witness: Optional[tuple[int, ...]] = None
    elapsed: float = 0.0
    #: Tables examined at each size, summed over the searched directions.
    tables_examined: dict[int, int] = field(default_factory=dict)

    @property
    def passed_as_theorem(self) -> bool:
        return self.status == "verified"

    @property
    def passed_as_non_implication(self) -> bool:
        return self.status == "counterexample"


def _search_counterexample(claim: Claim, hyps, conclusions, n: int):
    """Least table of size n satisfying hyps and violating some conclusion,
    as ``(table, conclusion, witness)`` or None, and the tables examined."""
    core_hyps = frozenset(h for h in hyps if h not in BOUNDED_PROPS)
    bounded_hyps = [FORMULAS[h] for h in hyps if h in BOUNDED_PROPS]
    needs_bounded = claim.bounded_only or bool(bounded_hyps) or any(
        c in BOUNDED_PROPS for c in conclusions
    )
    cdef = REGISTRY.get(claim.proper_class) if claim.kind == "proper_empty" else None
    hit: list = []

    def consume(T) -> bool:
        zero = None
        if needs_bounded:
            zero, keep = find_zero_bulk(T)
            for formula in bounded_hyps:
                keep &= _holds(formula, T, zero)
            T, zero = T[keep], zero[keep]
            if not len(T):
                return True
        if cdef is not None:
            # the search already enforces the hypotheses
            rows = np.flatnonzero(_proper_mask(T, cdef, core_hyps))
            if rows.size:
                hit.append((T[rows[0]], conclusions[0], ()))
            return not rows.size
        best = None  # (row, conclusion, violation mask of that row)
        for concl in conclusions:
            viol = _violation_mask(FORMULAS[concl], T, zero).reshape(len(T), -1)
            rows = np.flatnonzero(viol.any(axis=1))
            if rows.size and (best is None or rows[0] < best[0]):
                best = (rows[0], concl, viol[rows[0]])
        if best is None:
            return True
        row, concl, viol_row = best
        hit.append((T[row], concl, _first_witness(viol_row, FORMULAS[concl].arity, n)))
        return False

    examined = _search_batched(n, core_hyps, consume)
    if not hit:
        return None, examined
    cells, concl, witness = hit[0]
    return (Table.make(cells.tolist()), concl, witness), examined


#: Hypotheses that prune hard enough to afford size-4 verification when (M)
#: pins the 1-row: unconditional equations that mention most cells.
_STRONG_EQUATIONAL = frozenset({P.B, P.BB, P.Pimpl})


def default_max_size(claim: Claim) -> int:
    if claim.status is ClaimStatus.NON_IMPLICATION:
        return claim.paper_size or 3
    if claim.kind == "proper_empty":
        return 4
    if claim.bounded_only:
        return 3
    if {P.Re, P.M} <= claim.hypotheses:
        return 4
    if P.M in claim.hypotheses and claim.hypotheses & _STRONG_EQUATIONAL:
        return 4
    return 3


def _check_budget(claim: Claim, max_size: int) -> None:
    if max_size < 1:
        raise SizeTooLarge("claim budget must be >= 1")
    if claim.status is ClaimStatus.NON_IMPLICATION:
        if max_size > MAX_SIZE:
            raise SizeTooLarge(f"claim budget {max_size} above hard cap {MAX_SIZE}")
        return
    if max_size > 4:
        raise SizeTooLarge("theorem claims are verified up to size 4 at most")
    if max_size == 4 and claim.kind != "proper_empty" and P.M not in claim.hypotheses:
        raise SizeTooLarge(
            "size-4 claim verification needs (M) among the hypotheses "
            "(fixed cells shrink the space); use max_size <= 3"
        )


def _directions(claim: Claim, direction: Optional[str]):
    if claim.kind == "equiv":
        a, b = claim.conclusions
        if direction in (None, "fwd"):
            yield ("fwd", claim.hypotheses | {a}, (b,))
        if direction in (None, "bwd"):
            yield ("bwd", claim.hypotheses | {b}, (a,))
    else:
        yield ("", claim.hypotheses, claim.conclusions)


def verify_claim(
    claim: Claim, max_size: Optional[int] = None, direction: Optional[str] = None
) -> VerifyOutcome:
    """Search for a counterexample; Verified when none exists up to budget.

    Equivalence claims check both directions unless ``direction`` picks one;
    the outcome id carries the direction suffix in that case.
    """
    if isinstance(claim, str):
        claim = claim_by_id(claim)
    if max_size is None:
        max_size = default_max_size(claim)
    _check_budget(claim, max_size)
    oid = claim.id if direction is None else f"{claim.id}.{direction}"
    examined: dict[int, int] = {}
    t0 = time.perf_counter()
    for n in range(1, max_size + 1):
        for _tag, hyps, concls in _directions(claim, direction):
            found, count = _search_counterexample(claim, hyps, concls, n)
            examined[n] = examined.get(n, 0) + count
            if found is not None:
                table, concl, witness = found
                return VerifyOutcome(
                    oid,
                    "counterexample",
                    max_size,
                    size=n,
                    table=table,
                    conclusion=concl,
                    witness=witness,
                    elapsed=time.perf_counter() - t0,
                    tables_examined=examined,
                )
    return VerifyOutcome(
        oid, "verified", max_size, elapsed=time.perf_counter() - t0, tables_examined=examined
    )


def refute(claim: Claim, max_size: Optional[int] = None) -> VerifyOutcome:
    """Find the least counterexample to a non-implication claim."""
    if isinstance(claim, str):
        claim = claim_by_id(claim)
    if max_size is None:
        max_size = default_max_size(claim)
    outcome = verify_claim(claim, max_size)
    if outcome.status == "verified":
        return VerifyOutcome(
            claim.id,
            "not-found",
            max_size,
            elapsed=outcome.elapsed,
            tables_examined=outcome.tables_examined,
        )
    return outcome


@dataclass
class ClaimsReport:
    outcomes: list[VerifyOutcome] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def failures(self) -> list[VerifyOutcome]:
        bad = []
        for o in self.outcomes:
            claim = _resolve(o.claim_id)
            if claim.status is ClaimStatus.THEOREM and not o.passed_as_theorem:
                bad.append(o)
            if claim.status is ClaimStatus.NON_IMPLICATION and not o.passed_as_non_implication:
                bad.append(o)
        return bad

    @property
    def ok(self) -> bool:
        return not self.failures

    def format_text(self) -> str:
        lines = []
        width = max(len(o.claim_id) for o in self.outcomes) if self.outcomes else 10
        for o in self.outcomes:
            claim = _resolve(o.claim_id)
            if claim.status is ClaimStatus.THEOREM:
                verdict = "Verified" if o.passed_as_theorem else f"FAILED ({o.status} at n={o.size})"
            else:
                verdict = (
                    f"counterexample at n={o.size}"
                    if o.passed_as_non_implication
                    else "FAILED (no counterexample found)"
                )
            lines.append(f"{o.claim_id.ljust(width)}  n<={o.max_size}  {verdict}")
        lines.append(
            f"{len(self.outcomes)} claims, {len(self.failures)} failures, {self.elapsed:.1f}s"
        )
        return "\n".join(lines)

    def to_record(self) -> dict:
        return {
            "claims": [
                {
                    "id": o.claim_id,
                    "status": o.status,
                    "max_size": o.max_size,
                    "size": o.size,
                    "witness": list(o.witness) if o.witness is not None else None,
                    "tables_examined": {str(n): k for n, k in o.tables_examined.items()},
                    "elapsed_s": round(o.elapsed, 4),
                }
                for o in self.outcomes
            ],
            "failures": [o.claim_id for o in self.failures],
            "ok": self.ok,
            "elapsed_s": round(self.elapsed, 3),
        }


def verify_all(
    budgets: Optional[dict[str, int]] = None,
    claims: Optional[Iterable[Claim]] = None,
    jobs: int = 1,
) -> ClaimsReport:
    """Run every claim at its budget; failures are report entries, not raises.

    Equivalence claims appear twice in the report, once per direction.  A
    budget that ``verify_claim`` would refuse raises SizeTooLarge before any
    claim runs or any worker starts.
    """
    _check_jobs(jobs)
    budgets = budgets or {}
    todo = list(claims) if claims is not None else list(CLAIMS)
    args = []
    for c in todo:
        budget = budgets.get(c.id)
        if budget is not None:
            _check_budget(c, budget)
        if c.kind == "equiv":
            args.append((c.id, budget, "fwd"))
            args.append((c.id, budget, "bwd"))
        else:
            args.append((c.id, budget, None))
    t0 = time.perf_counter()
    report = ClaimsReport()
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            report.outcomes = list(pool.map(_verify_worker, args))
    else:
        report.outcomes = [_verify_worker(a) for a in args]
    report.elapsed = time.perf_counter() - t0
    return report


def _verify_worker(arg) -> VerifyOutcome:
    cid, budget, direction = arg
    outcome = verify_claim(claim_by_id(cid), budget, direction)
    outcome.table = None  # keep results picklable and small
    return outcome
