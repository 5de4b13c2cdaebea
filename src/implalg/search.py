"""Exhaustive enumeration of Cayley tables with fail-fast pruning.

The enumerator assigns free cells row-major, depth-first, values in ascending
order, so single-worker visitation is globally lexicographic.  Filter
properties are compiled into per-assignment *instances*; an instance is
re-evaluated exactly when the cell it is blocked on gets assigned (a pending
list per search depth, with trail-based undo), so a partial table is abandoned
as soon as any fully-assigned instance is violated.

Leaf checks are batched: ``_search_batched`` collects the DFS leaves into
buffers of LEAF_BUFFER tables and hands each buffer, in visitation order, to
a consumer that decides all of its tables at once with the numpy masks of the
props module.  Filtered censuses, ``find_minimal_model`` and the claims search
all go through it, so the first hit in buffer order is the lexicographically
least table.

Unfiltered censuses take a separate vectorized path: all candidate tables of a
lexicographic index range are materialized as one numpy batch and classified
via signature bit masks.  Both paths agree; the test suite checks pruned
against naive enumeration and sharded against single-shard censuses.
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
    """Fixed-cell templates: ANY fixes nothing, RM fixes the diagonal and the
    1-row, RML additionally fixes the 1-column."""

    ANY = "ANY"
    RM = "RM"
    RML = "RML"

    def fixed_cells(self, n: int) -> dict[int, int]:
        one = n - 1
        fixed: dict[int, int] = {}
        if self is BaseConstraint.ANY:
            return fixed
        for i in range(n):
            fixed[i * n + i] = one  # x -> x = 1
            fixed[one * n + i] = i  # 1 -> y = y
        if self is BaseConstraint.RML:
            for i in range(n):
                fixed[i * n + one] = one  # x -> 1 = 1
        return fixed

    def free_cells(self, n: int) -> list[int]:
        fixed = self.fixed_cells(n)
        return [c for c in range(n * n) if c not in fixed]

    @classmethod
    def parse(cls, token: str) -> "BaseConstraint":
        try:
            return cls(token.upper())
        except ValueError:
            raise KeyError(f"unknown base constraint: {token!r}") from None


#: Properties whose whole content is a fixed-cell pattern under a base.
_STRUCTURAL = {
    BaseConstraint.ANY: frozenset(),
    BaseConstraint.RM: frozenset({PropertyId.Re, PropertyId.M}),
    BaseConstraint.RML: frozenset({PropertyId.Re, PropertyId.M, PropertyId.L}),
}


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


def _fixed_for(n: int, base: BaseConstraint, filter_props) -> tuple[dict[int, int], list[PropertyId]]:
    fixed = base.fixed_cells(n)
    residual = [p for p in (filter_props or ()) if p not in _STRUCTURAL[base]]
    return fixed, residual


def enumerate_tables(
    size: int,
    base: BaseConstraint = BaseConstraint.ANY,
    filter: Optional[Iterable[PropertyId]] = None,
    visitor: Optional[Callable[[Table], object]] = None,
    prefix: Sequence[int] = (),
    names: Optional[Sequence[str]] = None,
) -> int:
    """Visit every table of ``size`` satisfying ``base`` and ``filter``.

    Visitation is lexicographic over free cells scanned row-major.  Returns
    the number of tables visited; a visitor stops early by raising
    CallbackAbort or returning False, in which case the partial count is
    returned.
    """
    filter_props = tuple(filter) if filter else ()
    _check_filter(filter_props)
    _check_size(size, filter_props)
    fixed, residual = _fixed_for(size, base, filter_props)
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
    """A disjoint share of the search space: assignments of the first
    ``len(prefixes[0])`` free cells."""

    size: int
    base: BaseConstraint
    prefixes: tuple[tuple[int, ...], ...]


def partition_work(size: int, base: BaseConstraint, shards: int) -> list[WorkUnit]:
    """Split the space into ``shards`` disjoint covering units.

    Uses the shortest prefix length j with size**j >= shards and deals the
    size**j lexicographic prefixes out contiguously.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    _check_size(size, None if size < MAX_SIZE else [PropertyId.B])
    nfree = len(base.free_cells(size))
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
        units.append(WorkUnit(size, base, tuple(prefixes[lo:hi])))
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


def _batch_tables(n: int, base: BaseConstraint, lo: int, hi: int) -> np.ndarray:
    """Tables with lexicographic free-cell indices in [lo, hi) as (B, n, n)."""
    free = base.free_cells(n)
    nfree = len(free)
    idx = np.arange(lo, hi, dtype=np.int64)
    T = np.empty((idx.size, n * n), dtype=np.int64)
    for c, v in base.fixed_cells(n).items():
        T[:, c] = v
    for k, c in enumerate(free):
        T[:, c] = (idx // n ** (nfree - 1 - k)) % n
    return T.reshape(idx.size, n, n)


_CHUNK = 1 << 15


def _census_range(n: int, base: BaseConstraint, lo: int, hi: int) -> CensusReport:
    tally = _Tally()
    t0 = time.perf_counter()
    for start in range(lo, hi, _CHUNK):
        tally.add(_batch_tables(n, base, start, min(start + _CHUNK, hi)))
    return CensusReport(
        n, base, hi - lo, tally.per_class, tally.per_proper, time.perf_counter() - t0
    )


def _census_worker(args):
    n, base_value, lo, hi = args
    return _census_range(n, BaseConstraint(base_value), lo, hi)


def census(size: int, base: BaseConstraint, jobs: int = 1, shards: Optional[int] = None) -> CensusReport:
    """Classify every table of the base-constrained space of ``size``.

    ``shards`` forces a particular work partition (the merge is deterministic
    regardless); ``jobs`` runs shards in parallel processes.
    """
    _check_jobs(jobs)
    _check_size(size, None)
    nfree = len(base.free_cells(size))
    total = size**nfree
    if shards is None:
        shards = jobs
    units = partition_work(size, base, max(1, shards))
    # Convert prefix units into contiguous lexicographic index ranges.
    ranges = []
    for u in units:
        if not u.prefixes:
            continue
        j = len(u.prefixes[0])
        width = size ** (nfree - j)
        lo = _prefix_index(u.prefixes[0], size) * width
        hi = (_prefix_index(u.prefixes[-1], size) + 1) * width
        ranges.append((size, base.value, lo, hi))
    if not ranges:
        ranges = [(size, base.value, 0, total)]
    t0 = time.perf_counter()
    if jobs > 1 and len(ranges) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_census_worker, ranges))
    else:
        parts = [_census_worker(r) for r in ranges]
    report = parts[0]
    for p in parts[1:]:
        report = report.merged_with(p)
    report.elapsed = time.perf_counter() - t0
    return report


def _prefix_index(prefix: Sequence[int], n: int) -> int:
    idx = 0
    for v in prefix:
        idx = idx * n + v
    return idx


def _filtered_unit(args) -> CensusReport:
    n, base_value, filter_values, prefixes = args
    base = BaseConstraint(base_value)
    filter_props = tuple(PropertyId(v) for v in filter_values)
    fixed, residual = _fixed_for(n, base, filter_props)
    tally = _Tally()
    t0 = time.perf_counter()
    total = _search_batched(n, fixed, residual, tally.add, prefixes or ((),))
    return CensusReport(
        n, base, total, tally.per_class, tally.per_proper, time.perf_counter() - t0, filter_props
    )


def census_filtered(
    size: int,
    base: BaseConstraint,
    filter: Iterable[PropertyId],
    jobs: int = 1,
    shards: Optional[int] = None,
) -> CensusReport:
    """Census restricted to tables satisfying ``filter`` (pruned search)."""
    filter_props = tuple(filter)
    _check_jobs(jobs)
    _check_filter(filter_props)
    _check_size(size, filter_props)
    units = partition_work(size, base, max(1, shards if shards is not None else jobs))
    args = [
        (size, base.value, tuple(p.value for p in filter_props), u.prefixes) for u in units
    ]
    t0 = time.perf_counter()
    if jobs > 1 and len(args) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_filtered_unit, args))
    else:
        parts = [_filtered_unit(a) for a in args]
    report = parts[0]
    for p in parts[1:]:
        report = report.merged_with(p)
    report.elapsed = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# Minimal-model search.
# ---------------------------------------------------------------------------


def base_for_required(required: frozenset[PropertyId]) -> BaseConstraint:
    if _STRUCTURAL[BaseConstraint.RML] <= required:
        return BaseConstraint.RML
    if _STRUCTURAL[BaseConstraint.RM] <= required:
        return BaseConstraint.RM
    return BaseConstraint.ANY


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

    base = base_for_required(required)
    for n in range(1, max_size + 1):
        _check_size(n, required)
        fixed, residual = _fixed_for(n, base, required)
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
