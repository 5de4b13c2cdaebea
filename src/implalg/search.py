"""Exhaustive enumeration of Cayley tables with fail-fast pruning.

Every search runs over the tables of one size that satisfy a set of
properties.  ``_space`` splits that set in two: (Re), (M) and (L) are each
a pattern of pinned cells, and the rest is the residual that the DFS prunes
with.  A ``BaseConstraint`` is a name for one of the paper's base sets, so
``census(n, ANY, filter={Re, M})`` and ``census(n, RM)`` search one space.

The enumerator assigns free cells row-major, depth-first, values in ascending
order, so single-worker visitation is globally lexicographic.  Residual
properties are compiled into per-assignment *instances*; an instance is
re-evaluated exactly when the cell it is blocked on gets assigned (a pending
list per search depth, with trail-based undo), so a partial table is abandoned
as soon as any fully-assigned instance is violated.

Leaf checks are batched: ``_search_batched`` collects the DFS leaves into
buffers of LEAF_BUFFER tables and hands each buffer, in visitation order, to
a consumer that decides all of its tables at once with the numpy masks of the
props module.  Censuses with a residual, ``find_minimal_model`` and the claims
search all go through it, so the first hit in buffer order is the
lexicographically least table.

A census without a residual needs no search: all tables of a lexicographic
index range are materialised as one numpy batch and classified via signature
bit masks.  Both paths agree; the test suite checks pruned against naive
enumeration and sharded against single-shard censuses.
"""

from __future__ import annotations

import enum
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .core import BOUNDED_PROPS, PropertyId, Table, default_names, signature_bit
from .classes import REGISTRY, ClassRegistry
from .props import FORMULAS, needed_props, signature_bits_bulk

__all__ = [
    "SizeTooLarge",
    "UnsupportedFilter",
    "CallbackAbort",
    "BaseConstraint",
    "WorkUnit",
    "CensusReport",
    "enumerate_tables",
    "census",
    "census_filtered",
    "partition_work",
    "find_minimal_model",
]

MAX_SIZE = 6


class SizeTooLarge(ValueError):
    pass


class UnsupportedFilter(ValueError):
    """A bounded-only property (DN, G1..G8) was asked for as a search filter."""


class CallbackAbort(Exception):
    """Raised by a visitor to stop enumeration; partial count is returned."""


class BaseConstraint(enum.Enum):
    """The paper's bases as property sets: ANY is none, RM is (Re) and (M),
    RML adds (L).  Their cells are pinned like those of any property set."""

    ANY = "ANY"
    RM = "RM"
    RML = "RML"

    @property
    def props(self) -> frozenset[PropertyId]:
        if self is BaseConstraint.ANY:
            return frozenset()
        rm = frozenset({PropertyId.Re, PropertyId.M})
        return rm | {PropertyId.L} if self is BaseConstraint.RML else rm

    def fixed_cells(self, n: int) -> dict[int, int]:
        return _space(n, self.props)[0]

    def free_cells(self, n: int) -> list[int]:
        fixed = self.fixed_cells(n)
        return [c for c in range(n * n) if c not in fixed]

    @classmethod
    def parse(cls, token: str) -> "BaseConstraint":
        try:
            return cls(token.upper())
        except ValueError:
            raise KeyError(f"unknown base constraint: {token!r}") from None


def _space(n: int, props: Iterable[PropertyId]) -> tuple[dict[int, int], tuple[PropertyId, ...]]:
    """The search space of the size-n tables satisfying ``props``, as the
    cells pinned by the (Re), (M) and (L) among them and the residual
    properties, in their given order, which the DFS prunes with."""
    one = n - 1
    fixed: dict[int, int] = {}
    residual = []
    for p in props:
        if p is PropertyId.Re:
            fixed.update({i * n + i: one for i in range(n)})  # x -> x = 1
        elif p is PropertyId.M:
            fixed.update({one * n + i: i for i in range(n)})  # 1 -> y = y
        elif p is PropertyId.L:
            fixed.update({i * n + one: one for i in range(n)})  # x -> 1 = 1
        else:
            residual.append(p)
    return fixed, tuple(residual)


def _check_filter(props) -> None:
    bad = sorted(p.value for p in props if p in BOUNDED_PROPS)
    if bad:
        raise UnsupportedFilter(
            f"bounded-only properties cannot be search filters: {', '.join(bad)}"
        )


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ValueError("jobs must be >= 1")


def _check_size(n: int, filter_props) -> None:
    if not 1 <= n <= MAX_SIZE:
        raise SizeTooLarge(f"size {n} outside supported range 1..{MAX_SIZE}")
    if n == MAX_SIZE:
        f = frozenset(filter_props or ())
        strong = (
            PropertyId.B in f
            or {PropertyId.Star, PropertyId.StarStar} <= f
            or PropertyId.Pimpl in f
        )
        if not strong:
            raise SizeTooLarge(
                "size-6 enumeration needs a filter containing B, Pimpl, or "
                "both Star and StarStar; the unfiltered space is ~3.7e15 tables"
            )


# ---------------------------------------------------------------------------
# Instance compilation.
#
# A compiled instance is a closure over the flat cell list that returns
#   -1  violated,
#   -2  satisfied (possibly vacuously) for the rest of this subtree,
#   c>=0 undecidable until flat cell c is assigned.
# Terms are constant-folded against the concrete variable assignment, so a
# fully constant instance disappears at compile time.
# ---------------------------------------------------------------------------


def _compile_term(term, assignment, n: int):
    """Return either an int (constant value) or a closure cells -> value,
    where a negative closure result -(c+1) means blocked on cell c."""
    kind = term[0]
    if kind == "var":
        return assignment[term[1]]
    if kind == "one":
        return n - 1
    if kind == "zero":
        raise ValueError("bounded-only properties cannot be used as search filters")
    a = _compile_term(term[1], assignment, n)
    b = _compile_term(term[2], assignment, n)
    if isinstance(a, int) and isinstance(b, int):
        flat = a * n + b

        def f_const(cells, flat=flat):
            v = cells[flat]
            return v if v >= 0 else -flat - 1

        return f_const
    fa = a if callable(a) else None
    fb = b if callable(b) else None

    def f(cells, fa=fa, fb=fb, a=a, b=b, n=n):
        va = fa(cells) if fa is not None else a
        if va < 0:
            return va
        vb = fb(cells) if fb is not None else b
        if vb < 0:
            return vb
        flat = va * n + vb
        v = cells[flat]
        return v if v >= 0 else -flat - 1

    return f


def _compile_pair(pair, assignment, n):
    """Compile a term equality into ("const", bool) or ("fn", closure).

    The closure returns -1 when the equality holds, -2 when it fails, and
    the flat cell index (>= 0) it is blocked on otherwise.
    """
    ta, tb = pair
    ca = _compile_term(ta, assignment, n)
    cb = _compile_term(tb, assignment, n)
    if isinstance(ca, int) and isinstance(cb, int):
        return ("const", ca == cb)

    def g(cells, ca=ca, cb=cb, call_a=callable(ca), call_b=callable(cb)):
        va = ca(cells) if call_a else ca
        if va < 0:
            return -va - 1
        vb = cb(cells) if call_b else cb
        if vb < 0:
            return -vb - 1
        return -1 if va == vb else -2

    return ("fn", g)


def compile_instances(props: Iterable[PropertyId], n: int) -> list:
    """All non-trivial instance closures of the given properties at size n."""
    out = []
    for prop in props:
        formula = FORMULAS[prop]
        if formula.uses_zero or formula.kind == "iff":
            raise UnsupportedFilter(f"{prop} cannot be used as a search filter")
        arity = formula.arity
        assignments = np.indices((n,) * arity).reshape(arity, -1).T
        for row in assignments:
            assignment = tuple(int(v) for v in row)
            inst = _compile_one(formula, assignment, n)
            if inst is not None:
                out.append(inst)
    return out


def _compile_one(formula, assignment, n: int):
    premises = []
    for pair in formula.premises:
        kind, payload = _compile_pair(pair, assignment, n)
        if kind == "const":
            if payload is False:
                return None  # vacuously satisfied forever
            continue  # premise always true, drop
        premises.append(payload)
    ckind, cpayload = _compile_pair(formula.conclusion, assignment, n)
    if ckind == "const":
        if cpayload:
            return None  # conclusion always true
        if not premises:
            raise ValueError(f"{formula.prop} instance {assignment} is unsatisfiable")
        conclusion = None  # conclusion constant-false: violated iff premises hold
    else:
        conclusion = cpayload
        if not premises:
            def inst_eq(cells, c=conclusion):
                r = c(cells)
                if r == -1:
                    return -2  # holds
                if r == -2:
                    return -1  # violated
                return r

            return inst_eq

    def inst_horn(cells, premises=tuple(premises), conclusion=conclusion):
        for p in premises:
            r = p(cells)
            if r == -2:
                return -2  # a premise fails: vacuous
            if r >= 0:
                return r
        if conclusion is None:
            return -1
        r = conclusion(cells)
        if r == -1:
            return -2
        if r == -2:
            return -1
        return r

    return inst_horn


# ---------------------------------------------------------------------------
# Depth-first enumeration with per-cell pending lists.
# ---------------------------------------------------------------------------


def _dfs(
    n: int,
    fixed: dict[int, int],
    filter_props: Sequence[PropertyId],
    leaf_fn,
    prefix: Sequence[int] = (),
) -> int:
    cells = [-1] * (n * n)
    for c, v in fixed.items():
        cells[c] = v
    free = [c for c in range(n * n) if c not in fixed]
    nfree = len(free)
    pos_of = {c: d for d, c in enumerate(free)}
    pend: list[list] = [[] for _ in range(nfree)]

    # Root pass: every instance is either decided now or parked on the first
    # unassigned cell its evaluation needs.
    for inst in compile_instances(filter_props, n):
        r = inst(cells)
        if r == -1:
            return 0
        if r >= 0:
            pend[pos_of[r]].append(inst)

    if len(prefix) > nfree:
        raise ValueError("prefix longer than the number of free cells")

    trail: list[int] = []

    def assign(d: int, v: int) -> bool:
        """Set free cell d to v; False if some instance is now violated."""
        cells[free[d]] = v
        for inst in pend[d]:
            r = inst(cells)
            if r == -1:
                return False
            if r >= 0:
                p = pos_of[r]
                pend[p].append(inst)
                trail.append(p)
        return True

    # Apply the shard prefix through the same machinery.
    for d, v in enumerate(prefix):
        sp = len(trail)
        if not assign(d, v):
            while len(trail) > sp:
                pend[trail.pop()].pop()
            return 0

    count = 0
    start = len(prefix)

    def rec(d: int) -> bool:
        nonlocal count
        if d == nfree:
            count += 1
            return leaf_fn(cells) if leaf_fn is not None else True
        sp = len(trail)
        go_on = True
        for v in range(n):
            if assign(d, v):
                go_on = rec(d + 1)
            while len(trail) > sp:
                pend[trail.pop()].pop()
            if not go_on:
                break
        cells[free[d]] = -1
        return go_on

    try:
        rec(start)
    except CallbackAbort:
        pass
    return count


#: Leaves per buffer handed to a batch consumer.  The kernel's per-table cost
#: is flat from 256 leaves up, while its (B, n, n, n) intermediates grow with
#: the buffer, so a larger buffer only costs memory.
LEAF_BUFFER = 256


def _search_batched(
    n: int,
    fixed: dict[int, int],
    filter_props: Sequence[PropertyId],
    consume: Callable[[np.ndarray], bool],
    prefixes: Sequence[Sequence[int]] = ((),),
) -> int:
    """Run the pruned DFS under each of ``prefixes`` in turn and hand its
    leaves to ``consume`` in visitation order, as (B, n, n) int64 arrays of
    LEAF_BUFFER tables (the last one may be shorter).

    ``consume`` returns False to stop the search.  Returns the number of
    leaves visited, which includes the rest of the buffer that stopped it.
    """
    buf: list[int] = []
    width = LEAF_BUFFER * n * n
    stopped = False

    def flush() -> bool:
        nonlocal stopped
        T = np.array(buf, dtype=np.int64).reshape(-1, n, n)
        buf.clear()
        stopped = consume(T) is False
        return not stopped

    def leaf(cells) -> bool:
        buf.extend(cells)
        return len(buf) < width or flush()

    count = 0
    for prefix in prefixes:
        count += _dfs(n, fixed, filter_props, leaf, prefix)
        if stopped:
            return count
    if buf:
        flush()
    return count


def enumerate_tables(
    size: int,
    base: BaseConstraint = BaseConstraint.ANY,
    filter: Optional[Iterable[PropertyId]] = None,
    visitor: Optional[Callable[[Table], object]] = None,
    prefix: Sequence[int] = (),
    names: Optional[Sequence[str]] = None,
) -> int:
    """Visit every table of ``size`` satisfying ``base`` and ``filter``.

    Visitation is lexicographic over free cells scanned row-major; ``prefix``
    fixes the first free cells of that space.  Returns the number of tables
    visited; a visitor stops early by raising CallbackAbort or returning
    False, in which case the partial count is returned.
    """
    filter_props = tuple(filter) if filter else ()
    _check_filter(filter_props)
    _check_size(size, filter_props)
    fixed, residual = _space(size, (*base.props, *filter_props))
    tnames = tuple(names) if names else default_names(size)

    if visitor is None:
        leaf = None
    else:
        n = size

        def leaf(cells):
            rows = tuple(tuple(cells[x * n : (x + 1) * n]) for x in range(n))
            return visitor(Table(rows, tnames)) is not False

    return _dfs(size, fixed, residual, leaf, prefix)


@dataclass(frozen=True)
class WorkUnit:
    """A disjoint share of the space of ``size`` tables satisfying ``base``
    and ``filter``: assignments of its first ``len(prefixes[0])`` free cells."""

    size: int
    base: BaseConstraint
    prefixes: tuple[tuple[int, ...], ...]
    filter: tuple[PropertyId, ...] = ()


def partition_work(
    size: int, base: BaseConstraint, shards: int, filter: Iterable[PropertyId] = ()
) -> list[WorkUnit]:
    """Split the space of ``base`` and ``filter`` into ``shards`` disjoint
    covering units.

    Uses the shortest prefix length j with size**j >= shards (at most the
    number of free cells) and deals the size**j lexicographic prefixes out
    contiguously.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    _check_size(size, None if size < MAX_SIZE else [PropertyId.B])
    filter_props = tuple(filter)
    nfree = size * size - len(_space(size, (*base.props, *filter_props))[0])
    j = 0
    while size**j < shards and j < nfree:
        j += 1
    total = size**j
    shards = min(shards, total)
    prefixes = [
        tuple((idx // size ** (j - 1 - k)) % size for k in range(j)) for idx in range(total)
    ]
    units = []
    for w in range(shards):
        lo = w * total // shards
        hi = (w + 1) * total // shards
        units.append(WorkUnit(size, base, tuple(prefixes[lo:hi]), filter_props))
    return units


# ---------------------------------------------------------------------------
# Census: classify everything the enumerator visits.
# ---------------------------------------------------------------------------


@dataclass
class CensusReport:
    size: int
    base: BaseConstraint
    total: int
    per_class: dict[str, int]
    per_proper: dict[str, int]
    elapsed: float = 0.0
    filter: tuple[PropertyId, ...] = ()

    def merged_with(self, other: "CensusReport") -> "CensusReport":
        if (self.size, self.base, self.filter) != (other.size, other.base, other.filter):
            raise ValueError("cannot merge censuses of different spaces")
        per_class = {c: self.per_class[c] + other.per_class[c] for c in self.per_class}
        per_proper = {c: self.per_proper[c] + other.per_proper[c] for c in self.per_proper}
        return CensusReport(
            self.size,
            self.base,
            self.total + other.total,
            per_class,
            per_proper,
            self.elapsed + other.elapsed,
            self.filter,
        )

    def to_record(self) -> dict:
        return {
            "size": self.size,
            "base": self.base.value,
            "filter": [p.value for p in self.filter],
            "total": self.total,
            "per_class": dict(self.per_class),
            "per_proper": dict(self.per_proper),
            "elapsed_s": round(self.elapsed, 3),
        }


def _prop_mask(props: Iterable[PropertyId]) -> np.uint64:
    mask = 0
    for p in props:
        mask |= 1 << signature_bit(p)
    return np.uint64(mask)


def _proper_mask(T: np.ndarray, required, forbidden) -> np.ndarray:
    """Which tables of the (B, n, n) batch satisfy every ``required`` core
    property and none of the ``forbidden`` ones."""
    req, forb = _prop_mask(required), _prop_mask(forbidden)
    bits = signature_bits_bulk(T, needed_props(required, forbidden))
    return ((bits & req) == req) & ((bits & forb) == 0)


class _Tally:
    """Per-class and per-proper member counts over batches of tables."""

    def __init__(self, registry: ClassRegistry = REGISTRY):
        sets = [d.required for d in registry.defs]
        sets += [d.proper_forbidden for d in registry.defs if d.proper_forbidden]
        self.props = needed_props(*sets)
        self.req_masks = {d.id: _prop_mask(d.required) for d in registry.defs}
        self.forb_masks = {
            d.id: _prop_mask(d.proper_forbidden)
            for d in registry.defs
            if d.proper_forbidden is not None
        }
        self.per_class = dict.fromkeys(self.req_masks, 0)
        self.per_proper = dict.fromkeys(self.forb_masks, 0)

    def add(self, T: np.ndarray) -> None:
        bits = signature_bits_bulk(T, self.props)
        for cid, req in self.req_masks.items():
            member = (bits & req) == req
            self.per_class[cid] += int(member.sum())
            forb = self.forb_masks.get(cid)
            if forb is not None:
                self.per_proper[cid] += int((member & ((bits & forb) == 0)).sum())


def _batch_tables(
    n: int, base: BaseConstraint, lo: int, hi: int, filter: Iterable[PropertyId] = ()
) -> np.ndarray:
    """Tables with lexicographic free-cell indices in [lo, hi) of the space
    pinned by ``base`` and ``filter``, as (B, n, n)."""
    fixed, _ = _space(n, (*base.props, *filter))
    free = [c for c in range(n * n) if c not in fixed]
    nfree = len(free)
    idx = np.arange(lo, hi, dtype=np.int64)
    T = np.empty((idx.size, n * n), dtype=np.int64)
    for c, v in fixed.items():
        T[:, c] = v
    for k, c in enumerate(free):
        T[:, c] = (idx // n ** (nfree - 1 - k)) % n
    return T.reshape(idx.size, n, n)


_CHUNK = 1 << 15


def _prefix_index(prefix: Sequence[int], n: int) -> int:
    idx = 0
    for v in prefix:
        idx = idx * n + v
    return idx


def _census_unit(unit: WorkUnit) -> CensusReport:
    """Classify one unit: by pruned search if its space leaves residual
    properties, else by materialising its contiguous index range."""
    n = unit.size
    fixed, residual = _space(n, (*unit.base.props, *unit.filter))
    tally = _Tally()
    t0 = time.perf_counter()
    if residual:
        total = _search_batched(n, fixed, residual, tally.add, unit.prefixes)
    else:
        width = n ** (n * n - len(fixed) - len(unit.prefixes[0]))
        lo = _prefix_index(unit.prefixes[0], n) * width
        hi = (_prefix_index(unit.prefixes[-1], n) + 1) * width
        for start in range(lo, hi, _CHUNK):
            tally.add(_batch_tables(n, unit.base, start, min(start + _CHUNK, hi), unit.filter))
        total = hi - lo
    return CensusReport(
        n, unit.base, total, tally.per_class, tally.per_proper, time.perf_counter() - t0, unit.filter
    )


def census(
    size: int,
    base: BaseConstraint,
    filter: Iterable[PropertyId] = (),
    jobs: int = 1,
    shards: Optional[int] = None,
) -> CensusReport:
    """Classify every table of ``size`` satisfying ``base`` and ``filter``.

    ``shards`` forces a particular work partition (the merge is deterministic
    regardless); ``jobs`` runs shards in parallel processes.
    """
    filter_props = tuple(filter)
    _check_jobs(jobs)
    _check_filter(filter_props)
    _check_size(size, filter_props)
    units = partition_work(size, base, max(1, shards if shards is not None else jobs), filter_props)
    t0 = time.perf_counter()
    if jobs > 1 and len(units) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_census_unit, units))
    else:
        parts = [_census_unit(u) for u in units]
    report = parts[0]
    for p in parts[1:]:
        report = report.merged_with(p)
    report.elapsed = time.perf_counter() - t0
    return report


def census_filtered(
    size: int,
    base: BaseConstraint,
    filter: Iterable[PropertyId],
    jobs: int = 1,
    shards: Optional[int] = None,
) -> CensusReport:
    """``census(size, base, filter, jobs, shards)`` under its former name."""
    return census(size, base, filter, jobs, shards)


# ---------------------------------------------------------------------------
# Minimal-model search.
# ---------------------------------------------------------------------------


def find_minimal_model(
    class_id: str,
    max_size: int,
    proper: bool = False,
    extra: Iterable[PropertyId] = (),
    registry: ClassRegistry = REGISTRY,
) -> Optional[Table]:
    """Smallest (then lexicographically least) table in a class.

    With ``proper`` the class's forbidden properties must all fail; ``extra``
    adds required properties on top of the class definition.
    """
    if not 1 <= max_size <= MAX_SIZE:
        raise SizeTooLarge(f"max_size {max_size} outside supported range 1..{MAX_SIZE}")
    cdef = registry.get(class_id)
    required = cdef.required | frozenset(extra)
    _check_filter(required)
    forbidden = cdef.proper_forbidden if proper else None
    if proper and forbidden is None:
        from .classes import UnknownClass

        raise UnknownClass(f"{class_id} has no proper-variant definition")

    for n in range(1, max_size + 1):
        _check_size(n, required)
        fixed, residual = _space(n, required)
        found: list[np.ndarray] = []

        def consume(T: np.ndarray) -> bool:
            hits = np.flatnonzero(_proper_mask(T, (), forbidden or ()))
            if hits.size:
                found.append(T[hits[0]])
            return not hits.size

        _search_batched(n, fixed, residual, consume)
        if found:
            return Table.make(found[0].tolist())
    return None
