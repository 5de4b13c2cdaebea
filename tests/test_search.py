import itertools
from collections import Counter
from functools import lru_cache
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import E1_ROWS, tables
from oracle import oracle_witness

from implalg import PropertyId as P
from implalg import Table
from implalg.classes import REGISTRY
from implalg.core import CORE_PROPS, signature_bit
from implalg.props import FORMULAS, X, Y, Formula, _dead_rows, _holds, arr, signature_bits_bulk
from implalg.search import (
    FRONTIER,
    BaseConstraint,
    CallbackAbort,
    SizeTooLarge,
    UnsupportedFilter,
    _batch_tables,
    _census_unit,
    _check_size,
    _check_unpruned,
    _orbit_weights,
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
        (5, RM, 5**16),  # count-only of an unpruned space is closed-form
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


#: The formulas a search prunes with: every core one but the biconditionals,
#: and a Horn formula whose premise, unlike the core ones, may have two
#: unknown sides: x -> y = y -> x implies x = y.
_PRUNABLE = [
    FORMULAS[p] for p in CORE_PROPS if FORMULAS[p].kind != "iff" and not FORMULAS[p].uses_zero
] + [Formula(P.An, 2, "horn", ((arr(X, Y), arr(Y, X)),), (X, Y))]


def _value3(term, a, cells, n):
    """Value of ``term`` at assignment ``a`` over partial flat ``cells``
    (None where unassigned), or None when it reads an unassigned cell."""
    if term[0] == "var":
        return a[term[1]]
    if term[0] == "one":
        return n - 1
    left, right = _value3(term[1], a, cells, n), _value3(term[2], a, cells, n)
    return None if left is None or right is None else cells[left * n + right]


def _dead3(formula, cells, n) -> bool:
    """Does some assignment make every premise known and true and both
    conclusion sides known and different?"""
    for a in itertools.product(range(n), repeat=formula.arity):
        sides = [[_value3(t, a, cells, n) for t in pair] for pair in formula.premises]
        if all(u is not None and u == v for u, v in sides):
            u, v = (_value3(t, a, cells, n) for t in formula.conclusion)
            if u is not None and v is not None and u != v:
                return True
    return False


def _padded(cells, n):
    """Flat partial cells (None unassigned) in the kernel's (n+1)^2 layout."""
    grid = np.full((n + 1, n + 1), n, dtype=np.uint8)
    for c, v in enumerate(cells):
        if v is not None:
            grid[c // n, c % n] = v
    return grid.ravel()


@given(table=tables(max_size=4), data=st.data())
@settings(max_examples=60, deadline=None)
def test_dead_rows_match_a_three_valued_reference(table, data):
    # one batch of the complete table and a partial copy with some holes
    n = table.size
    cells = [v for row in table.cells for v in row]
    holes = data.draw(st.permutations(range(n * n)))[: data.draw(st.integers(0, n * n))]
    partial = [None if c in holes else v for c, v in enumerate(cells)]
    batch = np.stack([_padded(cells, n), _padded(partial, n)])
    T = np.asarray([table.cells])
    for formula in _PRUNABLE:
        dead_full, dead_partial = _dead_rows((formula,), batch)
        assert dead_full == (not _holds(formula, T)[0]), formula.prop
        assert dead_partial == _dead3(formula, partial, n), (formula.prop, partial)
        if dead_partial and len(holes) <= 4:
            # a dead partial table has no completion that satisfies the formula
            fills = np.array(list(itertools.product(range(n), repeat=len(holes))), dtype=np.int64)
            completions = np.tile(np.asarray(cells), (len(fills), 1))
            completions[:, sorted(holes)] = fills
            assert not _holds(formula, completions.reshape(-1, n, n)).any(), formula.prop


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


def test_frontier_chunk_boundaries():
    # a visitor that stops at leaf k, on either side of a frontier chunk,
    # has seen exactly the first k tables of the unstopped run
    everything = []
    assert enumerate_tables(4, RM, {P.B}, visitor=lambda t: everything.append(t.cells)) == 447
    for k in (FRONTIER - 1, FRONTIER, FRONTIER + 1, 200):
        seen = []

        def stop_at_k(t):
            seen.append(t.cells)
            return len(seen) < k

        assert enumerate_tables(4, RM, {P.B}, visitor=stop_at_k) == k
        assert seen == everything[:k]


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
    # a census with nothing to prune classifies at most 5^12 tables, the
    # size-5 RML space, and refuses a larger one before it starts
    _check_unpruned(5, RML.props)
    _check_unpruned(5, [P.Re, P.M, P.L, P.B])
    with pytest.raises(SizeTooLarge, match="152,587,890,625"):
        census(5, RM)  # 5^16 tables
    with pytest.raises(SizeTooLarge, match="4,294,967,296"):
        census(4, ANY, jobs=2)  # 4^16 tables
    with pytest.raises(SizeTooLarge):
        census(5, ANY, filter=[P.Re, P.M])


def test_partition_work_spec_shapes():
    units = partition_work(3, RM, 1)
    assert len(units) == 1 and units[0].prefixes == ((),)
    # 3 shards of the 4 free cells: 3^4 >= 16 * 3, so all 81 full prefixes,
    # dealt out round-robin
    units = partition_work(3, RM, 3)
    every = list(itertools.product(range(3), repeat=4))
    assert [u.prefixes for u in units] == [tuple(every[w::3]) for w in range(3)]
    units = partition_work(5, RML, 25)  # 5^4 >= 16 * 25
    assert len(units) == 25
    assert all(len(u.prefixes) == 25 and {len(p) for p in u.prefixes} == {4} for u in units)
    assert units[1].prefixes[:2] == ((0, 0, 0, 1), (0, 1, 0, 1))  # indices 1 and 26
    flat = sorted(p for u in units for p in u.prefixes)
    assert flat == sorted(set(flat)) == list(itertools.product(range(5), repeat=4))
    # a space with fewer prefixes than shards gets one unit per prefix
    assert [u.prefixes for u in partition_work(2, RM, 5)] == [((0,),), ((1,),)]


@pytest.mark.parametrize("shards", [2, 4])
def test_partition_work_balances_orbit_leaders(shards):
    # round-robin prefixes spread the leaders, which crowd into the low ones
    reports = [_census_unit(u) for u in partition_work(4, RM, shards)]
    leaders = [r.classified for r in reports]
    assert sum(leaders) == 43968 and sum(r.total for r in reports) == 4**9
    assert max(leaders) <= 2 * min(leaders), leaders


def test_partition_units_cover_space_disjointly():
    # an unpruned space, and a residual one whose prefixes can be pruned away
    for base, props, total in ((RM, (), 81), (RML, (P.B, P.Tr), 6)):
        everything = []
        enumerate_tables(3, base, props, visitor=lambda t: everything.append(t.cells))
        units = partition_work(3, base, 7, props)
        prefixes = sorted(prefix for u in units for prefix in u.prefixes)
        counts = []
        seen = []
        for prefix in prefixes:
            counts.append(
                enumerate_tables(3, base, props, prefix=prefix, visitor=lambda t: seen.append(t.cells))
            )
        assert seen == everything  # in order, so disjoint and covering
        assert sum(counts) == len(set(seen)) == len(everything) == total
        assert [enumerate_tables(3, base, props, prefix=p) for p in prefixes] == counts
        with pytest.raises(ValueError, match="prefix longer"):
            enumerate_tables(3, base, props, prefix=(0,) * (len(base.free_cells(3)) + 1))
        # a prefix value is a cell value of the space
        for bad in ((3,), (5,), (0, -1)):
            with pytest.raises(ValueError, match="prefix values"):
                enumerate_tables(3, base, props, prefix=bad)
    assert enumerate_tables(5, RM, prefix=(0, 1)) == 5**14


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


@pytest.mark.parametrize("shards", [1, 2, 7])
def test_census_classifies_each_orbit_once(shards):
    # 43,968 relabeling orbits among the 262,144 size-4 RM tables, whatever
    # the shard prefixes cut through
    report = census(4, RM, shards=shards, jobs=2)
    assert report.total == 262144
    assert report.classified == 43968
    assert report.to_record()["classified"] == 43968


def _relabel_getters(n):
    """Per relabeling p of 0..n-1 fixing n-1: p, and a getter of the source
    cells of p(T) in row-major order, where p(T)[p(x)][p(y)] = p(T[x][y])."""
    out = []
    for perm in itertools.permutations(range(n - 1)):
        p = perm + (n - 1,)
        inv = [p.index(v) for v in range(n)]
        src = [inv[u] * n + inv[v] for u in range(n) for v in range(n)]
        out.append((p, itemgetter(*src) if len(src) > 1 else (lambda c, s=src[0]: (c[s],))))
    return out


@pytest.mark.parametrize(
    "n,base",
    [(n, b) for n in (1, 2, 3) for b in (ANY, RM, RML)] + [(4, RM)],
)
def test_orbit_weights_match_canonical_forms(n, base):
    # canonical form: the least relabeled cell tuple over all relabelings
    T = _batch_tables(n, base, 0, n ** len(base.free_cells(n)))
    getters = _relabel_getters(n)
    cells = [tuple(row) for row in T.reshape(len(T), n * n).tolist()]
    canon = [min(tuple(map(p.__getitem__, get(c))) for p, get in getters) for c in cells]
    orbit_size = Counter(canon)
    want = [orbit_size[k] if k == c else 0 for c, k in zip(cells, canon)]
    w = _orbit_weights(T)
    assert w.tolist() == want
    assert w.sum() == len(T)


@st.composite
def _symmetric_batches(draw):
    """Size-5 and size-6 tables, past the 53 bits one float64 code holds,
    with leading all-1 rows so that images often agree on a long prefix and
    automorphisms are common, each with a few of its relabeled images."""
    n = draw(st.sampled_from([5, 6]))
    lead = draw(st.integers(0, n - 1))
    values = st.sampled_from([0, 1, n - 1]) if draw(st.booleans()) else st.integers(0, n - 1)
    rows = [[n - 1] * n] * lead + [
        draw(st.lists(values, min_size=n, max_size=n)) for _ in range(n - lead)
    ]
    getters = _relabel_getters(n)
    cells = tuple(v for row in rows for v in row)
    picks = draw(st.lists(st.integers(0, len(getters) - 1), min_size=1, max_size=4))
    images = [tuple(map(getters[k][0].__getitem__, getters[k][1](cells))) for k in picks]
    return n, getters, [cells, *images]


@given(_symmetric_batches())
@settings(max_examples=60, deadline=None)
def test_orbit_weights_exact_past_53_bits(batch):
    n, getters, tables = batch
    want = []
    for c in tables:
        images = [tuple(map(p.__getitem__, get(c))) for p, get in getters]
        want.append(len(images) // images.count(c) if min(images) == c else 0)
    T = np.array(tables, dtype=np.int64).reshape(len(tables), n, n)
    assert _orbit_weights(T).tolist() == want


def _unweighted_counts(T, props=()):
    """per_class and per_proper of the tables of the (B, n, n) batch that
    satisfy ``props``, every table classified on its own."""
    step = 1 << 15
    bits = np.concatenate(
        [signature_bits_bulk(T[i : i + step], CORE_PROPS) for i in range(0, len(T), step)]
    )
    bits = bits[(bits & _mask(props)) == _mask(props)]
    per_class = {d.id: int(d.is_member(bits).sum()) for d in REGISTRY.defs}
    per_proper = {
        d.id: int(d.is_proper(bits).sum()) for d in REGISTRY.defs if d.proper_forbidden is not None
    }
    return len(bits), per_class, per_proper


@pytest.mark.parametrize("base,props", [(RM, ()), (RML, (P.B, P.BB))])
def test_weighted_census_equals_unweighted_classification_size4(base, props):
    T = _batch_tables(4, base, 0, 4 ** len(base.free_cells(4)))
    report = census(4, base, filter=props)
    assert (report.total, report.per_class, report.per_proper) == _unweighted_counts(T, props)


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
