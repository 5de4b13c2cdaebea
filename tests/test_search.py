import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import E1_ROWS
from oracle import oracle_witness

from implalg import PropertyId as P
from implalg import Table
from implalg.classes import REGISTRY
from implalg.core import CORE_PROPS, signature_bit
from implalg.props import signature_bits_bulk
from implalg.search import (
    BaseConstraint,
    CallbackAbort,
    SizeTooLarge,
    UnsupportedFilter,
    _batch_tables,
    _check_size,
    census,
    census_filtered,
    enumerate_tables,
    find_minimal_model,
    partition_work,
)

ANY, RM, RML = BaseConstraint.ANY, BaseConstraint.RM, BaseConstraint.RML


@pytest.mark.parametrize(
    "n,base,expected",
    [
        (1, ANY, 1),
        (2, ANY, 16),
        (3, ANY, 19683),
        (1, RM, 1),
        (2, RM, 2),
        (3, RM, 81),
        (4, RM, 262144),
        (2, RML, 1),
        (3, RML, 9),
        (4, RML, 4096),
    ],
)
def test_count_law(n, base, expected):
    nfree = len(base.free_cells(n))
    assert expected == n**nfree
    assert enumerate_tables(n, base) == expected


def test_visitation_is_lexicographic():
    seen = []
    enumerate_tables(3, RM, visitor=lambda t: seen.append(t.cells))
    free = RM.free_cells(3)
    keys = [tuple(c[i // 3][i % 3] for i in free) for c in seen]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    # first table assigns every free cell the least element
    assert keys[0] == (0, 0, 0, 0)


def _naive_filter_tables(n, base, props):
    out = []

    def visit(t):
        if all(oracle_witness(t, p.value) is None for p in props):
            out.append(t.cells)

    enumerate_tables(n, base, visitor=visit)
    return out


@pytest.mark.parametrize(
    "prop",
    [P.Re, P.M, P.L, P.B, P.BB, P.Star, P.StarStar, P.Tr, P.Pi, P.Pimpl],
)
def test_pruned_equals_naive_single_filters(prop):
    for n in (2, 3):
        pruned = []
        enumerate_tables(n, ANY, {prop}, visitor=lambda t: pruned.append(t.cells))
        assert pruned == _naive_filter_tables(n, ANY, [prop]), (n, prop)


@pytest.mark.parametrize(
    "props",
    [{P.B, P.BB, P.Pimpl}, {P.Star, P.StarStar, P.Pi}, {P.An, P.Ex}, {P.Tr, P.K}],
)
def test_pruned_equals_naive_combined_filters(props):
    pruned = []
    enumerate_tables(3, ANY, props, visitor=lambda t: pruned.append(t.cells))
    assert pruned == _naive_filter_tables(3, ANY, list(props))


def test_filtered_enumeration_under_bases():
    # base-guaranteed properties are free; the counts must agree with the
    # same filters run over the unconstrained space
    full = _naive_filter_tables(3, ANY, [P.Re, P.M, P.L, P.B])
    assert enumerate_tables(3, RML, {P.B}) == len(full)
    assert enumerate_tables(3, RM, {P.L, P.B}) == len(full)


def test_visitor_abort_partial_count():
    hits = []

    def stop_after_five(t):
        hits.append(t)
        if len(hits) == 5:
            raise CallbackAbort

    count = enumerate_tables(3, RM, visitor=stop_after_five)
    assert count == 5 and len(hits) == 5

    hits.clear()
    count = enumerate_tables(3, RM, visitor=lambda t: not hits.append(t) and False)
    assert count == 1 and len(hits) == 1  # False return stops after the first


def test_size_caps():
    with pytest.raises(SizeTooLarge):
        enumerate_tables(7, RM)
    with pytest.raises(SizeTooLarge):
        enumerate_tables(0, RM)
    with pytest.raises(SizeTooLarge):
        _check_size(6, [P.Star])  # Star alone is not enough at size 6
    _check_size(6, [P.B])
    _check_size(6, [P.Star, P.StarStar])
    _check_size(6, [P.Pimpl])


def test_partition_work_spec_shapes():
    units = partition_work(3, RM, 1)
    assert len(units) == 1 and units[0].prefixes == ((),)
    units = partition_work(3, RM, 3)
    assert [u.prefixes for u in units] == [((0,),), ((1,),), ((2,),)]
    units = partition_work(5, RML, 25)
    assert len(units) == 25
    assert all(len(u.prefixes) == 1 and len(u.prefixes[0]) == 2 for u in units)
    flat = [p for u in units for p in u.prefixes]
    assert flat == sorted(set(flat)) and len(flat) == 25


def test_partition_units_cover_space_disjointly():
    units = partition_work(3, RM, 7)
    counts = []
    seen = []
    for u in units:
        for prefix in u.prefixes:
            counts.append(
                enumerate_tables(3, RM, prefix=prefix, visitor=lambda t: seen.append(t.cells))
            )
    assert sum(counts) == 81
    assert len(set(seen)) == 81


@pytest.mark.parametrize("shards", [1, 2, 7])
def test_census_shard_determinism_size3(shards):
    base_report = census(3, RM, shards=1)
    sharded = census(3, RM, shards=shards)
    assert sharded.total == base_report.total == 81
    assert sharded.per_class == base_report.per_class
    assert sharded.per_proper == base_report.per_proper


@pytest.mark.parametrize("shards", [2, 7])
def test_census_shard_determinism_size4(shards):
    single = census(4, RM, shards=1)
    sharded = census(4, RM, shards=shards, jobs=2)
    assert sharded.total == single.total == 262144
    assert sharded.per_class == single.per_class
    assert sharded.per_proper == single.per_proper


@pytest.mark.parametrize(
    "n,base",
    [(2, RM), (3, RM), (3, RML), (3, ANY)],
)
def test_census_monotone_along_hierarchy(n, base):
    from implalg.classes import hierarchy_edges

    report = census(n, base)
    for sub, sup in hierarchy_edges():
        assert report.per_class[sub] <= report.per_class[sup], (sub, sup)


def test_size3_census_d_splits():
    # the with-(D)/without-(D) refinement of the size-3 breakdown; the
    # published split for BCI (1 with, 2 without) contradicts the implication
    # (M) + (BB) => (D), which forces every BCI algebra to satisfy (D) -
    # recomputation gives 3 with, 0 without, all other splits as published
    from implalg import eval_all
    from implalg.classes import REGISTRY

    tables = []
    enumerate_tables(3, RM, visitor=lambda t: tables.append(t))
    splits = {}
    for t in tables:
        sig = eval_all(t)
        for cid in (
            "RM", "pre-BBBZ", "pre-BCI", "BCI", "aRM", "*aRM", "oRM",
            "aRM**", "*aRM**", "pimpl-pre-BCK", "*aRML", "BCK",
        ):
            if REGISTRY.is_proper(sig, cid):
                w, wo = splits.get(cid, (0, 0))
                splits[cid] = (w + 1, wo) if sig.has(P.D) else (w, wo + 1)
    assert splits == {
        "RM": (2, 2),
        "pre-BBBZ": (2, 0),
        "pre-BCI": (2, 0),
        "BCI": (3, 0),  # recomputed; see comment above
        "aRM": (4, 4),
        "*aRM": (2, 6),
        "oRM": (8, 16),
        "aRM**": (0, 4),
        "*aRM**": (1, 16),
        "pimpl-pre-BCK": (1, 0),
        "*aRML": (3, 0),
        "BCK": (2, 0),
    }


def test_census_filtered_matches_unfiltered_class_counts():
    # restricting to B-tables must reproduce the per-class counts of every
    # class whose required set contains B
    full = census(3, RM)
    filtered = census_filtered(3, RM, {P.B})
    assert filtered.total == full.per_class["pre-BZ"]
    for cid in ("pre-BZ", "pre-BBBZ", "BZ", "BCC", "pre-BCC"):
        assert filtered.per_class[cid] == full.per_class[cid]
        assert filtered.per_proper[cid] == full.per_proper[cid]


def test_census_filtered_shards_match():
    a = census_filtered(4, RML, {P.B, P.BB}, shards=1)
    b = census_filtered(4, RML, {P.B, P.BB}, shards=7, jobs=2)
    assert a.total == b.total
    assert a.per_class == b.per_class and a.per_proper == b.per_proper


def test_pruned_equals_naive_horn_filters_size4():
    # Horn-heavy filter mix over the size-4 RML space, against the oracle
    props = [P.An, P.Tr, P.K, P.D]
    pruned = []
    enumerate_tables(4, RML, set(props), visitor=lambda t: pruned.append(t.cells))
    assert pruned == _naive_filter_tables(4, RML, props)
    assert len(pruned) > 0


def test_census_degenerate_spaces():
    r = census(1, ANY)
    assert r.total == 1 and r.per_class["RM"] == 1 and r.per_proper["RM"] == 0
    r = census(1, RM)
    assert r.total == 1 and r.per_class["Hilbert"] == 1
    r = census(2, RML)
    assert r.total == 1  # only the Boolean table
    assert r.per_class["BCK"] == 1


def test_filtered_census_is_base_independent():
    # the base constraint is an optimization: moving its structural
    # properties into the filter must not change any count
    a = census_filtered(4, RML, {P.B, P.BB, P.Pimpl})
    b = census_filtered(4, ANY, {P.Re, P.M, P.L, P.B, P.BB, P.Pimpl})
    assert a.total == b.total == 44
    assert a.per_class == b.per_class and a.per_proper == b.per_proper
    # the unfiltered path: pinned filter properties leave nothing to prune
    a = census(3, ANY, filter={P.Re, P.M})
    b = census(3, RM)
    assert a.total == b.total == 81
    assert a.per_class == b.per_class and a.per_proper == b.per_proper
    # a fully pinned space sharded past its size is split by its own free cells
    a = census(2, ANY, filter={P.Re, P.M, P.L}, shards=4)
    b = census(2, RML)
    assert a.total == b.total == 1
    assert a.per_class == b.per_class and a.per_proper == b.per_proper
    # (M) from the filter pins the 1-row as RM does
    assert enumerate_tables(4, ANY, {P.M, P.BB, P.An}) == 101


def _mask(props):
    return np.uint64(sum(1 << signature_bit(p) for p in set(props)))


@lru_cache(maxsize=None)
def _full_space(n, base):
    """Every table of the base's space in lexicographic order, with the
    signature bits of all core properties."""
    T = _batch_tables(n, base, 0, n ** len(base.free_cells(n)))
    return T, signature_bits_bulk(T, CORE_PROPS)


_PINNABLE = (P.Re, P.M, P.L)


@given(
    n=st.integers(1, 3),
    base=st.sampled_from([ANY, RM, RML]),
    pinned=st.sets(st.sampled_from(_PINNABLE)),
    others=st.sets(st.sampled_from([p for p in CORE_PROPS if p not in _PINNABLE]), max_size=3),
    shards=st.integers(1, 7),
)
@settings(max_examples=100, deadline=None)
def test_pruned_search_equals_batch_filter_of_full_space(n, base, pinned, others, shards):
    props = pinned | others
    T, bits = _full_space(n, base)
    keep = (bits & _mask(props)) == _mask(props)
    ref, ref_bits = T[keep], bits[keep]
    seen = []
    enumerate_tables(n, base, props, visitor=lambda t: seen.append([list(r) for r in t.cells]))
    assert seen == ref.tolist()
    report = census(n, base, filter=props, shards=shards)
    assert report.total == len(ref)
    for d in REGISTRY.defs:
        member = (ref_bits & _mask(d.required)) == _mask(d.required)
        assert report.per_class[d.id] == member.sum(), d.id
        if d.proper_forbidden is not None:
            proper = member & ((ref_bits & _mask(d.proper_forbidden)) == 0)
            assert report.per_proper[d.id] == proper.sum(), d.id


def _naive_least_proper(class_ids, max_size):
    """Least proper member of each class up to ``max_size`` by a full
    unpruned oracle sweep, smallest size first; classes without one are
    missing from the result."""
    todo = {cid: REGISTRY.get(cid) for cid in class_ids}
    found = {}
    for n in range(1, max_size + 1):
        for combo in itertools.product(range(n), repeat=n * n):
            t = Table.make([combo[i * n : (i + 1) * n] for i in range(n)])
            verdicts = {}

            def holds(p):
                if p not in verdicts:
                    verdicts[p] = oracle_witness(t, p.value) is None
                return verdicts[p]

            for cid, d in list(todo.items()):
                if all(holds(p) for p in d.required) and not any(
                    holds(p) for p in d.proper_forbidden
                ):
                    found[cid] = t.cells
                    del todo[cid]
    return found


def test_find_minimal_model_trivia():
    t = find_minimal_model("RM", 1)
    assert t is not None and t.size == 1
    t = find_minimal_model("pimpl-pre-BCK", 3, proper=True)
    assert t is not None
    one = t.one
    assert all(v == one for x in range(t.size - 1) for v in t.cells[x])
    assert find_minimal_model("BCK", 2) is not None
    # extra constraints narrow the result
    t = find_minimal_model("RM", 3, extra={P.An, P.Tr})
    assert t is not None
    # every proper variant agrees with the oracle, least table included
    proper_ids = [d.id for d in REGISTRY.defs if d.proper_forbidden is not None]
    naive = _naive_least_proper(proper_ids, 3)
    for cid in proper_ids:
        t = find_minimal_model(cid, 3, proper=True)
        assert (t.cells if t else None) == naive.get(cid), cid


def test_find_minimal_model_reaches_size6_frontier():
    # the first proper pi-*RML** algebra appears at size 6; the pruned
    # search settles this directly (filter Star/StarStar/Pi permits size 6)
    t = find_minimal_model("pi-*RML**", 6, proper=True)
    assert t is not None and t.size == 6
    # the lexicographically least one (frontier_cells in perfbench/pinned.json)
    assert t.cells == (
        (5, 1, 1, 1, 4, 5),
        (0, 5, 2, 2, 4, 5),
        (0, 5, 5, 5, 0, 5),
        (0, 5, 5, 5, 0, 5),
        (5, 1, 1, 1, 5, 5),
        (0, 1, 2, 3, 4, 5),
    )
    ok, _ = REGISTRY.check_proper(t, "pi-*RML**")
    assert ok
    # it is a genuinely different witness from the transcribed one
    from implalg.corpus import load_corpus
    from implalg.io import are_isomorphic

    known = next(e.table for e in load_corpus() if e.id == "S10-kinyon-6")
    assert not are_isomorphic(t, known)


def test_bad_requests_raise_before_searching():
    with pytest.raises(UnsupportedFilter):
        enumerate_tables(3, RM, {P.DN})
    with pytest.raises(UnsupportedFilter):
        census_filtered(3, RM, {P.G7}, jobs=2)
    with pytest.raises(UnsupportedFilter):
        find_minimal_model("BCK", 3, extra={P.DN})
    with pytest.raises(ValueError):
        census(3, RM, jobs=0)
    with pytest.raises(ValueError):
        census_filtered(3, RM, {P.B}, jobs=0)


def test_find_minimal_model_unknown_proper():
    from implalg.classes import UnknownClass

    with pytest.raises(UnknownClass):
        find_minimal_model("Hilbert", 3, proper=True)


def test_e1_is_found_within_size3_rm_space(e1):
    seen = []
    enumerate_tables(3, RM, visitor=lambda t: seen.append(t.cells))
    assert tuple(tuple(r) for r in E1_ROWS) in seen
