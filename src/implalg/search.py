"""Exhaustive enumeration of Cayley tables with fail-fast pruning.

Every search runs over the tables of one size that satisfy a set of
properties.  ``_space`` splits that set in two: (Re), (M) and (L) are each
a pattern of pinned cells, and the rest is the residual that the search
prunes with.  A shard prefix pins the first free cells as well.  A
``BaseConstraint`` is a name for one of the paper's base sets, so
``census(n, ANY, filter={Re, M})`` and ``census(n, RM)`` search one space.

The search runs the props module's batch kernel on partial tables.  It fills
the free cells in row-major order over a frontier of partial tables: each
table of the frontier becomes n tables, one per value of the next cell in
ascending order, the kernel drops the dead ones (those whose assigned cells
already violate a residual formula at some assignment), and the search goes
on depth-first over chunks of FRONTIER survivors.  So the tables come out in
lexicographic order, and a partial table is abandoned as soon as its assigned
cells decide a violation.  The search stops early only when its leaf
callback returns False.

Leaf checks are batched: ``_search_batched`` takes a property set, derives
the space of each shard prefix, collects the leaves into buffers of
LEAF_BUFFER tables and hands each buffer, in visitation order, to a consumer
that decides all of its tables at once with the numpy masks of the props
module.  Censuses with a residual, ``find_minimal_model`` and the claims
search all go through it, so the first hit in buffer order is the
lexicographically least table.

A census without a residual needs no search: all tables of a lexicographic
index range are materialised as one numpy batch and classified via signature
bit masks.  Both paths agree; the test suite checks pruned against naive
enumeration and sharded against single-shard censuses.

The materialised census classifies one table per relabeling orbit.  Every
base and every core axiom is built from variables, 1 and the arrow, so each
space is closed under the (n-1)! relabelings that fix 1 and each class is a
union of orbits.  Of each batch only the orbits' lexicographic leaders go to
the kernel, each counted with the weight (n-1)!/|Aut(T)|, the size of its
orbit; the index ranges of the shards cover the space, so each leader is
seen exactly once.  A pruned census classifies every leaf it visits.
"""

from __future__ import annotations

import enum
import itertools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Collection, Iterable, Optional, Sequence

import numpy as np

from .core import BOUNDED_PROPS, ClassDef, PropertyId, Table, default_names, signature_mask
from .classes import REGISTRY, ClassRegistry, UnknownClass
from .props import FORMULAS, _dead_rows, needed_props, relabelings, signature_bits_bulk

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

    def free_cells(self, n: int) -> list[int]:
        fixed, _ = _space(n, self.props)
        return [c for c in range(n * n) if c not in fixed]

    @classmethod
    def parse(cls, token: str) -> "BaseConstraint":
        try:
            return cls(token.upper())
        except ValueError:
            raise KeyError(f"unknown base constraint: {token!r}") from None


def _space(
    n: int, props: Iterable[PropertyId], prefix: Sequence[int] = ()
) -> tuple[dict[int, int], tuple[PropertyId, ...]]:
    """The search space of the size-n tables satisfying ``props``, as the
    cells pinned by the (Re), (M) and (L) among them and the residual
    properties, in their given order, which the search prunes with.

    A shard ``prefix`` pins the first free cells of that space, in row-major
    order, to its values."""
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
    if prefix:
        free = [c for c in range(n * n) if c not in fixed]
        if len(prefix) > len(free):
            raise ValueError("prefix longer than the number of free cells")
        if not all(0 <= v < n for v in prefix):
            raise ValueError(f"prefix values must lie in 0..{n - 1}: {tuple(prefix)}")
        fixed.update(zip(free, prefix))
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


def _check_size(n: int, filter_props=None) -> None:
    """Raise SizeTooLarge unless n is in 1..MAX_SIZE and, with
    ``filter_props``, a size-6 space is pruned by a strong filter."""
    if not 1 <= n <= MAX_SIZE:
        raise SizeTooLarge(f"size {n} outside supported range 1..{MAX_SIZE}")
    if n == MAX_SIZE and filter_props is not None:
        f = frozenset(filter_props)
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


#: The most tables a census classifies without a residual property to prune
#: with: the size-5 RML space.
MAX_UNPRUNED_TABLES = 5**12


def _check_unpruned(n: int, props: Iterable[PropertyId]) -> None:
    """Raise SizeTooLarge when the space of the size-n tables satisfying
    ``props`` has no residual and more than MAX_UNPRUNED_TABLES tables,
    which a census would materialise one by one."""
    fixed, residual = _space(n, props)
    tables = n ** (n * n - len(fixed))
    if not residual and tables > MAX_UNPRUNED_TABLES:
        raise SizeTooLarge(
            f"census of {tables:,} size-{n} tables with no property to prune them; "
            f"at most {MAX_UNPRUNED_TABLES:,} (5^12) are classified unpruned"
        )


# ---------------------------------------------------------------------------
# Frontier search over partial tables.
# ---------------------------------------------------------------------------


def compile_instances(props: Iterable[PropertyId], n: int) -> list:
    """The formulas of ``props`` that a search of the size-n tables prunes
    with, in the given order.  They do not depend on n: the three-valued
    kernel evaluates each one at all assignments at once."""
    props = tuple(props)
    _check_filter(props)
    return [FORMULAS[p] for p in props]


#: Partial tables per recursion step of the frontier search.  Exhaustive
#: searches run as fast with a few thousand, but a search that stops at its
#: first hit would first build the whole wide frontier around it.
FRONTIER = 64


def _dfs(n: int, fixed: dict[int, int], filter_props: Sequence[PropertyId], leaf_fn) -> int:
    """Count the tables that extend ``fixed`` and satisfy ``filter_props``,
    in lexicographic order of the free cells.  ``leaf_fn``, if given, sees
    each one's flat cell list and stops the search by returning False.

    The free cells are filled in row-major order over a frontier of padded
    partial tables (``props._dead_rows``): each table becomes n, one per
    value in ascending order, the dead ones are dropped and the rest are
    searched on in chunks of FRONTIER tables."""
    formulas = tuple(compile_instances(filter_props, n))
    padded = np.arange(n * n) + np.arange(n * n) // n  # cell c's index, padded
    root = np.full((1, (n + 1) ** 2), n, dtype=np.uint8)
    root[0, padded[list(fixed)]] = list(fixed.values())
    slots = [padded[c] for c in range(n * n) if c not in fixed]
    count = 0

    def rec(frontier: np.ndarray, d: int) -> bool:
        nonlocal count
        if d == len(slots):
            if leaf_fn is None:
                count += len(frontier)
                return True
            for cells in frontier[:, padded].tolist():
                count += 1
                if not leaf_fn(cells):
                    return False
            return True
        children = np.repeat(frontier, n, axis=0)
        children[:, slots[d]] = np.tile(np.arange(n), len(frontier))
        children = children[~_dead_rows(formulas, children)]
        return all(
            rec(children[lo : lo + FRONTIER], d + 1) for lo in range(0, len(children), FRONTIER)
        )

    if not _dead_rows(formulas, root)[0]:
        rec(root, 0)
    return count


#: Leaves per buffer handed to a batch consumer.  The kernel's per-table cost
#: is flat from 256 leaves up, while its (B, n, n, n) intermediates grow with
#: the buffer, so a larger buffer only costs memory.
LEAF_BUFFER = 256


def _search_batched(
    n: int,
    props: Collection[PropertyId],
    consume: Callable[[np.ndarray], bool],
    prefixes: Sequence[Sequence[int]] = ((),),
) -> int:
    """Run the frontier search over the size-n tables satisfying ``props``,
    in the space pinned by each of ``prefixes`` in turn, and hand its leaves
    to ``consume`` in lexicographic order, as (B, n, n) int64 arrays of
    LEAF_BUFFER tables (the last one may be shorter).

    ``consume`` returns False to stop the search.  Returns the number of
    leaves visited, which includes the rest of the buffer that stopped it.
    The kernel prunes the search with the residual properties only; the
    consumer decides everything else about each leaf.
    """
    buf: list[list[int]] = []
    stopped = False

    def flush() -> bool:
        nonlocal stopped
        stopped = consume(np.array(buf, dtype=np.int64).reshape(-1, n, n)) is False
        buf.clear()
        return not stopped

    def leaf(cells) -> bool:
        buf.append(cells)
        return len(buf) < LEAF_BUFFER or flush()

    count = 0
    for prefix in prefixes:
        count += _dfs(n, *_space(n, props, prefix), leaf)
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
) -> int:
    """Visit every table of ``size`` satisfying ``base`` and ``filter``.

    Visitation is lexicographic over free cells scanned row-major; ``prefix``
    pins the first free cells of that space.  Returns the number of tables
    visited; a visitor stops early by raising CallbackAbort or returning
    False, in which case the partial count is returned.  With neither a
    visitor nor a residual property to prune with, the count is closed-form.
    """
    filter_props = tuple(filter) if filter else ()
    _check_filter(filter_props)
    _check_size(size, filter_props)
    fixed, residual = _space(size, (*base.props, *filter_props), prefix)
    if visitor is None and not residual:
        return size ** (size * size - len(fixed))

    if visitor is None:
        leaf = None
    else:
        names = default_names(size)

        def leaf(cells):
            rows = tuple(tuple(cells[x * size : (x + 1) * size]) for x in range(size))
            try:
                return visitor(Table(rows, names)) is not False
            except CallbackAbort:
                return False

    return _dfs(size, fixed, residual, leaf)


@dataclass(frozen=True)
class WorkUnit:
    """A disjoint share of the space of ``size`` tables satisfying ``base``
    and ``filter``: the tables whose first ``len(prefixes[0])`` free cells
    hold one of ``prefixes``."""

    size: int
    base: BaseConstraint
    prefixes: tuple[tuple[int, ...], ...]
    filter: tuple[PropertyId, ...] = ()


def partition_work(
    size: int, base: BaseConstraint, shards: int, filter: Iterable[PropertyId] = ()
) -> list[WorkUnit]:
    """Split the space of ``base`` and ``filter`` into ``shards`` disjoint
    covering units.

    One shard takes the whole space, prefix ``()``.  More use the shortest
    prefix length j with size**j >= 16 * shards (at most the number of free
    cells) and deal the size**j lexicographic prefixes out round-robin, so
    that each unit gets some of the low prefixes, where the orbit leaders of
    a census crowd, and some of the high ones.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    _check_size(size)
    filter_props = tuple(filter)
    nfree = size * size - len(_space(size, (*base.props, *filter_props))[0])
    j = 0
    while shards > 1 and size**j < 16 * shards and j < nfree:
        j += 1
    shards = min(shards, size**j)
    prefixes = list(itertools.product(range(size), repeat=j))  # lexicographic
    return [WorkUnit(size, base, tuple(prefixes[w::shards]), filter_props) for w in range(shards)]


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
    #: Tables the kernel classified: one per relabeling orbit when the census
    #: materialises its space, every leaf when it prunes; ``total`` counts all.
    classified: int = 0

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
            self.classified + other.classified,
        )

    def to_record(self) -> dict:
        return {
            "size": self.size,
            "base": self.base.value,
            "filter": [p.value for p in self.filter],
            "total": self.total,
            "classified": self.classified,
            "per_class": dict(self.per_class),
            "per_proper": dict(self.per_proper),
            "elapsed_s": round(self.elapsed, 3),
        }


def _proper_mask(T: np.ndarray, cdef: ClassDef, given: Iterable[PropertyId] = ()) -> np.ndarray:
    """Which tables of the (B, n, n) batch are proper members of ``cdef``,
    given that all of them satisfy the properties ``given``."""
    given = frozenset(given) & cdef.required
    bits = signature_bits_bulk(T, needed_props(cdef.required - given, cdef.proper_forbidden))
    return cdef.is_proper(bits | np.uint64(signature_mask(given)))


@lru_cache(maxsize=8)
def _code_weights(n: int) -> tuple[np.ndarray, int]:
    """Weights that turn one-hot size-n tables into the lexicographic codes
    of all their relabelings at once.

    With ``W, groups = _code_weights(n)``, row (c, v) of W belongs to "cell c
    holds v", and ``onehot @ W`` reshaped to (B, groups, (n-1)!) gives per
    table and relabeling k (``relabelings(n)`` order, identity first) the
    base-n codes of the image's cells in row-major order, split into groups
    of at most 53 bits so that float64 holds every code exactly.  Comparing
    the groups in order compares the images lexicographically."""
    perms, src = relabelings(n)
    cells = n * n
    width = max(k for k in range(1, cells + 1) if n**k <= 2**53)
    groups = -(-cells // width)
    group, place = np.divmod(np.arange(cells), width)
    power = float(n) ** (np.minimum(width, cells - group * width) - 1 - place)
    W = np.zeros((cells, n, groups, len(perms)))
    # image cell c of relabeling k reads source cell src[k, c] and maps its value v to p[v]
    W[src, :, group, np.arange(len(perms))[:, None]] = power[:, None] * perms[:, None, :]
    W.flags.writeable = False
    return W.reshape(cells * n, groups * len(perms)), groups


def _orbit_weights(T: np.ndarray) -> np.ndarray:
    """Per table of the (B, n, n) batch: 0 unless it is the lexicographic
    leader (row-major cells) of its relabeling orbit, else the orbit's size
    (n-1)!/|Aut(T)|, where Aut(T) holds the relabelings that fix T."""
    B, n, _ = T.shape
    W, groups = _code_weights(n)
    onehot = np.eye(n).take(T.reshape(B, n * n), axis=0).reshape(B, -1)
    codes = (onehot @ W).reshape(B, groups, -1)
    smaller = np.zeros((B, codes.shape[2]), dtype=bool)
    equal = np.ones_like(smaller)
    for g in range(groups):
        image, own = codes[:, g], codes[:, g, :1]
        smaller |= equal & (image < own)
        equal &= image == own
    return np.where(smaller.any(axis=1), 0, math.factorial(n - 1) // equal.sum(axis=1))


class _Tally:
    """Per-class and per-proper member counts over batches of tables, with
    the number of tables the kernel classified."""

    def __init__(self, registry: ClassRegistry = REGISTRY):
        self.defs = registry.defs
        sets = [d.required for d in self.defs]
        sets += [d.proper_forbidden for d in self.defs if d.proper_forbidden]
        self.props = needed_props(*sets)
        self.per_class = {d.id: 0 for d in self.defs}
        self.per_proper = {d.id: 0 for d in self.defs if d.proper_forbidden is not None}
        self.classified = 0

    def add(self, T: np.ndarray, w: Optional[np.ndarray] = None) -> None:
        """Classify the (B, n, n) batch ``T``, table b counted ``w[b]``
        times (once without ``w``)."""
        if w is None:
            w = np.ones(len(T), dtype=np.int64)
        self.classified += len(T)
        bits = signature_bits_bulk(T, self.props)
        for d in self.defs:
            self.per_class[d.id] += int(w[d.is_member(bits)].sum())
            if d.proper_forbidden is not None:
                self.per_proper[d.id] += int(w[d.is_proper(bits)].sum())


def _batch_tables(
    n: int, base: BaseConstraint, lo: int, hi: int, filter: Iterable[PropertyId] = ()
) -> np.ndarray:
    """Tables with lexicographic free-cell indices in [lo, hi) of the space
    pinned by ``base`` and ``filter``, as (B, n, n)."""
    fixed, _ = _space(n, (*base.props, *filter))
    free = [c for c in range(n * n) if c not in fixed]
    idx = np.arange(lo, hi, dtype=np.int64)
    T = np.empty((idx.size, n * n), dtype=np.int64)
    T[:, list(fixed)] = list(fixed.values())
    for k, c in enumerate(free):
        T[:, c] = idx // n ** (len(free) - 1 - k) % n
    return T.reshape(-1, n, n)


#: Tables materialised per batch.  The leader test's one-hot codes take 8n
#: bytes per cell and table, so the peak memory of a census grows with the
#: batch while its time is flat from a few thousand tables up.
_CHUNK = 1 << 13


def _census_unit(unit: WorkUnit) -> CensusReport:
    """Classify one unit: by pruned search if its space leaves residual
    properties, else by materialising the index range of each of its
    prefixes and classifying the orbit leaders of each batch."""
    n = unit.size
    props = (*unit.base.props, *unit.filter)
    fixed, residual = _space(n, props)
    tally = _Tally()
    t0 = time.perf_counter()
    if residual:
        total = _search_batched(n, props, tally.add, unit.prefixes)
    else:
        j = len(unit.prefixes[0])
        width = n ** (n * n - len(fixed) - j)
        for prefix in unit.prefixes:
            lo = int(np.ravel_multi_index(prefix, (n,) * j)) * width
            hi = lo + width
            for start in range(lo, hi, _CHUNK):
                T = _batch_tables(n, unit.base, start, min(start + _CHUNK, hi), unit.filter)
                w = _orbit_weights(T)
                leaders = w > 0
                tally.add(T[leaders], w[leaders])
        total = width * len(unit.prefixes)
    elapsed = time.perf_counter() - t0
    return CensusReport(
        n, unit.base, total, tally.per_class, tally.per_proper, elapsed, unit.filter,
        tally.classified,
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
    _check_unpruned(size, (*base.props, *filter_props))
    units = partition_work(size, base, max(1, shards if shards is not None else jobs), filter_props)
    t0 = time.perf_counter()
    if jobs > 1 and len(units) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_census_unit, units))
    else:
        parts = [_census_unit(u) for u in units]
    report = reduce(CensusReport.merged_with, parts)
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
    _check_size(max_size)
    cdef = registry.get(class_id)
    required = cdef.required | frozenset(extra)
    _check_filter(required)
    if proper and cdef.proper_forbidden is None:
        raise UnknownClass(f"{class_id} has no proper-variant definition")

    for n in range(1, max_size + 1):
        _check_size(n, required)
        found: list[np.ndarray] = []

        def consume(T: np.ndarray) -> bool:
            if proper:
                T = T[_proper_mask(T, cdef, required)]
            if len(T):
                found.append(T[0])
            return not len(T)

        _search_batched(n, required, consume)
        if found:
            return Table.make(found[0].tolist())
    return None
