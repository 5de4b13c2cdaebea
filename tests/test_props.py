import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tables
from oracle import oracle_witness, oracle_zero

from implalg import PropertyId as P
from implalg import props
from implalg import Table, eval_all, eval_bounded_property, eval_property, find_zero
from implalg.core import BOUNDED_PROPS, CORE_PROPS, SIGNATURE_PROPS, signature_bit
from implalg.classes import REGISTRY
from implalg.props import (
    FORMULAS,
    _first_witness,
    _holds,
    _masks,
    _violation_mask,
    find_zero_bulk,
    signature_bits_bulk,
)
from implalg.search import BaseConstraint, _batch_tables


def test_e1_paper_verdicts(e1):
    assert eval_property(e1, P.Ex).witness == (0, 1, 0)  # (a,b,a)
    assert eval_property(e1, P.Re).satisfied
    assert eval_property(e1, P.M).satisfied
    assert eval_property(e1, P.D).satisfied
    assert eval_property(e1, P.BB).witness == (0, 1, 2)  # (a,b,1)
    assert eval_property(e1, P.B).witness == (0, 1, 2)
    assert eval_property(e1, P.An).witness == (0, 1)
    assert eval_property(e1, P.L).witness == (0,)


def test_one_element_table_satisfies_everything(one_elt):
    for prop in CORE_PROPS:
        assert eval_property(one_elt, prop).satisfied, prop
    for prop in BOUNDED_PROPS:
        res = eval_bounded_property(one_elt, prop)
        assert res.applicable and res.satisfied, prop


def test_boolean2_pimpl_brute_force(bool2):
    # independent check: all 8 triples by hand
    c = bool2.cells
    for x in range(2):
        for y in range(2):
            for z in range(2):
                assert c[x][c[y][z]] == c[c[x][y]][c[x][z]]
    assert eval_property(bool2, P.Pimpl).satisfied


def test_bounded_property_rejects_core_and_vice_versa(e1):
    with pytest.raises(ValueError):
        eval_property(e1, P.DN)
    with pytest.raises(ValueError):
        eval_bounded_property(e1, P.Re)


def test_find_zero_examples(e1, one_elt):
    assert find_zero(e1) == (1, False)  # zero = b, L fails
    assert find_zero(one_elt) == (0, True)
    # two all-one rows: no unique zero
    t = Table.make([[2, 2, 2], [2, 2, 2], [0, 1, 2]])
    assert find_zero(t) is None
    # the bounded five-element table with (DN)
    rml5 = Table.make(
        [[4, 4, 4, 4, 4], [3, 4, 4, 4, 4], [2, 1, 4, 4, 4], [1, 4, 1, 4, 4], [0, 1, 2, 3, 4]],
        names=("0", "a", "b", "c", "1"),
    )
    assert find_zero(rml5) == (0, True)
    assert eval_bounded_property(rml5, P.DN).satisfied
    # the batch form applies the same rule
    zero, bounded = find_zero_bulk(np.array([e1.cells, t.cells, [[0, 0, 2], [2, 2, 2], [0, 1, 2]]]))
    assert zero[0] == 1 and zero[2] == 1
    assert bounded.tolist() == [False, False, True]


def test_zero_found_once_per_table(e1, monkeypatch):
    calls = []
    zero_rows = props._zero_rows
    monkeypatch.setattr(props, "_zero_rows", lambda T: calls.append(len(T)) or zero_rows(T))
    find_zero.cache_clear()
    rml5 = Table.make(
        [[4, 4, 4, 4, 4], [3, 4, 4, 4, 4], [2, 1, 4, 4, 4], [1, 4, 1, 4, 4], [0, 1, 2, 3, 4]]
    )
    for table in (rml5, e1):
        sig = eval_all(table)
        verdicts = [eval_bounded_property(table, p) for p in sorted(BOUNDED_PROPS, key=str)]
        assert all(v.applicable == sig.bounded for v in verdicts)
    assert calls == [1, 1]
    # the zero is reported even when (L) fails
    assert eval_all(e1).zero == 1 and not eval_all(e1).bounded


def _hilbert_chain(n, names=None):
    # x -> y is 1 when x <= y and y otherwise: a linearly ordered Hilbert algebra
    return Table.make([[n - 1 if x <= y else y for y in range(n)] for x in range(n)], names)


def _random_table(n, seed):
    rng = random.Random(seed)
    return Table.make([[rng.randrange(n) for _ in range(n)] for _ in range(n)])


def _assert_verdicts_match_oracle(table, props):
    zb = oracle_zero(table)
    assert find_zero(table) == zb
    bounded = bool(zb and zb[1])
    sig = eval_all(table)
    for prop in props:
        if prop in BOUNDED_PROPS:
            res = eval_bounded_property(table, prop)
            assert res.applicable == bounded, prop
            if not bounded:
                continue
            expected = oracle_witness(table, prop.value, zero=zb[0])
        else:
            res = eval_property(table, prop)
            expected = oracle_witness(table, prop.value)
        assert (res.satisfied, res.witness) == (expected is None, expected), prop
        assert sig.has(prop) == (expected is None), prop


@pytest.mark.parametrize(
    "table", [_hilbert_chain(20), _random_table(17, 5)], ids=["hilbert-chain-20", "random-17"]
)
def test_verdicts_exact_where_cell_indices_pass_255(table):
    # a*n+b passes 255 from n = 17 on: every verdict and witness is still exact
    _assert_verdicts_match_oracle(table, SIGNATURE_PROPS)


def test_verdicts_exact_where_cell_values_pass_255():
    # from n = 257 on a cell value needs more than 8 bits; arity <= 2 keeps it small
    n = 257
    table = _hilbert_chain(n, [f"e{i}" for i in range(n - 1)] + ["1"])
    assert table.cells[n - 2][0] == 0 and table.cells[0][n - 2] == n - 1
    props = [p for p in SIGNATURE_PROPS if FORMULAS[p].arity <= 2]
    _assert_verdicts_match_oracle(table, props)


@st.composite
def batches(draw):
    """(B, n, n) int arrays of random tables, some forced bounded (zero 0)."""
    n = draw(st.integers(1, 4))
    B = draw(st.integers(1, 8))
    cells = draw(st.lists(st.integers(0, n - 1), min_size=B * n * n, max_size=B * n * n))
    T = np.array(cells, dtype=np.int64).reshape(B, n, n)
    bounded = draw(st.lists(st.booleans(), min_size=B, max_size=B))
    T[bounded, 0, :] = n - 1
    T[bounded, :, n - 1] = n - 1
    return T


def _oracle_witnesses(T, prop, zero=None):
    zeros = [None] * len(T) if zero is None else zero.tolist()
    return [oracle_witness(Table.make(c.tolist()), prop.value, zero=z) for c, z in zip(T, zeros)]


@given(
    batches(),
    st.lists(st.sampled_from(CORE_PROPS), unique=True),
    st.lists(st.sampled_from(SIGNATURE_PROPS), unique=True),
)
@settings(max_examples=120, deadline=None)
def test_shared_plan_matches_single_formulas_and_oracle(T, subset, mixed):
    # a slot freed too early or a wrong shared-subterm key would make the
    # answer depend on which formulas share the plan, and in which order
    B, n, _ = T.shape
    bits = signature_bits_bulk(T, subset)
    alone = np.zeros(B, dtype=np.uint64)
    for prop in subset:
        alone |= signature_bits_bulk(T, [prop])
    assert bits.tolist() == alone.tolist()
    for prop in subset:
        holds = (bits >> np.uint64(signature_bit(prop))) & np.uint64(1)
        assert holds.tolist() == [int(w is None) for w in _oracle_witnesses(T, prop)], prop
    zero, bounded = find_zero_bulk(T)
    for prop in SIGNATURE_PROPS:
        f = FORMULAS[prop]
        rows = np.flatnonzero(bounded) if prop in BOUNDED_PROPS else np.arange(B)
        z = zero[rows] if prop in BOUNDED_PROPS else None
        viol = _violation_mask(f, T[rows], z)
        assert viol.shape == (len(rows),) + (n,) * f.arity
        got = [_first_witness(v, f.arity, n) for v in viol]
        assert got == _oracle_witnesses(T[rows], prop, z), prop
    # core and bounded formulas in one plan, on the bounded tables
    rows = np.flatnonzero(bounded)
    if rows.size:
        formulas = tuple(FORMULAS[p] for p in mixed)
        for f, viol in zip(formulas, _masks(formulas, T[rows], zero[rows])):
            got = viol.reshape(len(rows), -1).any(axis=1).tolist()
            assert got == [w is not None for w in _oracle_witnesses(T[rows], f.prop, zero[rows])]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_empty_batches(n):
    T = np.zeros((0, n, n), dtype=np.int64)
    bits = signature_bits_bulk(T, CORE_PROPS)
    assert bits.shape == (0,) and bits.dtype == np.uint64
    for prop in CORE_PROPS:
        f = FORMULAS[prop]
        assert _holds(f, T).shape == (0,)
        assert _violation_mask(f, T).shape == (0,) + (n,) * f.arity


def test_bounded_on_unbounded_is_inapplicable(e1):
    res = eval_bounded_property(e1, P.DN)
    assert not res.applicable
    assert res.witness is None


def test_mp_is_alias_of_n(e1):
    t = Table.make([[2, 2, 1], [2, 2, 2], [0, 1, 2]])
    for table in (e1, t):
        mp = eval_property(table, P.MP)
        n = eval_property(table, P.N)
        assert (mp.satisfied, mp.witness) == (n.satisfied, n.witness)
    assert signature_bit(P.MP) == signature_bit(P.N)


@given(tables(max_size=4))
@settings(max_examples=150, deadline=None)
def test_verdicts_and_witnesses_match_oracle(table):
    for prop in CORE_PROPS:
        res = eval_property(table, prop)
        expected = oracle_witness(table, prop.value)
        if expected is None:
            assert res.satisfied, (prop, table.cells)
        else:
            assert not res.satisfied
            assert res.witness == expected, (prop, table.cells)


@given(tables(max_size=4))
@settings(max_examples=80, deadline=None)
def test_bounded_verdicts_match_oracle(table):
    zb = oracle_zero(table)
    assert zb == find_zero(table)
    zero, bounded = find_zero_bulk(np.array([table.cells]))
    assert bool(bounded[0]) == bool(zb and zb[1])
    if bounded[0]:
        assert zero[0] == zb[0]
    for prop in BOUNDED_PROPS:
        res = eval_bounded_property(table, prop)
        if zb is None or not zb[1]:
            assert not res.applicable
            continue
        expected = oracle_witness(table, prop.value, zero=zb[0])
        if expected is None:
            assert res.satisfied, prop
        else:
            assert res.witness == expected, prop


@given(tables(max_size=4))
@settings(max_examples=40, deadline=None)
def test_holds_at_matches_oracle(table):
    # False at the oracle's first witness, True at every assignment before it
    zb = oracle_zero(table)
    bounded = bool(zb and zb[1])
    for prop in SIGNATURE_PROPS:
        formula = FORMULAS[prop]
        if prop in BOUNDED_PROPS:
            if not bounded:
                continue
            zero = zb[0]
            expected = oracle_witness(table, prop.value, zero=zero)
        else:
            zero = None
            expected = oracle_witness(table, prop.value)
        for assignment in itertools.product(range(table.size), repeat=formula.arity):
            if assignment == expected:
                assert not formula.holds_at(table, assignment, zero), (prop, table.cells)
                break
            assert formula.holds_at(table, assignment, zero), (prop, assignment, table.cells)


@given(tables(max_size=4))
@settings(max_examples=60, deadline=None)
def test_eval_all_agrees_with_individual_results(table):
    sig = eval_all(table)
    zb = oracle_zero(table)
    assert sig.zero == (zb[0] if zb else None)
    holds = {prop: eval_property(table, prop).satisfied for prop in CORE_PROPS}
    for prop in CORE_PROPS:
        assert sig.has(prop) == holds[prop], prop
    members = {d.id for d in REGISTRY.defs if all(holds[p] for p in d.required)}
    assert REGISTRY.classify(sig) == members
    if sig.bounded:
        for prop in BOUNDED_PROPS:
            assert sig.has(prop) == eval_bounded_property(table, prop).satisfied, prop
    else:
        for prop in BOUNDED_PROPS:
            with pytest.raises(ValueError):
                sig.has(prop)


def test_e1_signature(e1):
    sig = eval_all(e1)
    for prop in (P.Re, P.M, P.D, P.S, P.N):
        assert sig.has(prop), prop
    for prop in (P.An, P.L, P.Ex, P.B, P.BB, P.Star, P.StarStar, P.Tr):
        assert not sig.has(prop), prop


def test_boolean2_signature_all_core_set(bool2):
    sig = eval_all(bool2)
    for prop in (
        P.Re, P.M, P.L, P.Ex, P.An, P.B, P.BB, P.Star, P.StarStar,
        P.Tr, P.K, P.D, P.C, P.N, P.U, P.Pi, P.Pimpl, P.P1, P.P2, P.S,
    ):
        assert sig.has(prop), prop
    assert sig.bounded and sig.zero == 0


def _bulk_bits(n, base, props):
    lo, hi = 0, n ** len(base.free_cells(n))
    T = _batch_tables(n, base, lo, hi)
    return signature_bits_bulk(T, props)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_re_implies_s_exhaustive(n):
    bits = _bulk_bits(n, BaseConstraint.ANY, [P.Re, P.S])
    re_bit = np.uint64(1 << signature_bit(P.Re))
    s_bit = np.uint64(1 << signature_bit(P.S))
    has_re = (bits & re_bit) != 0
    has_s = (bits & s_bit) != 0
    assert not (has_re & ~has_s).any()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_m_implies_n_exhaustive(n):
    bits = _bulk_bits(n, BaseConstraint.ANY, [P.M, P.N])
    m_bit = np.uint64(1 << signature_bit(P.M))
    n_bit = np.uint64(1 << signature_bit(P.N))
    assert not (((bits & m_bit) != 0) & ((bits & n_bit) == 0)).any()


@given(tables(min_size=4, max_size=5))
@settings(max_examples=120, deadline=None)
def test_re_implies_s_and_m_implies_n_randomized(table):
    if eval_property(table, P.Re).satisfied:
        assert eval_property(table, P.S).satisfied
    if eval_property(table, P.M).satisfied:
        assert eval_property(table, P.N).satisfied


def test_signature_width():
    # 20 core properties plus the 9 bounded-only ones; MP shares N's bit
    assert len(SIGNATURE_PROPS) == 29
    assert len(CORE_PROPS) == 20


def test_eval_all_speed_smoke(kinyon6):
    eval_all(kinyon6)  # warm-up
    t0 = time.perf_counter()
    for _ in range(10):
        eval_all(kinyon6)
    per_call = (time.perf_counter() - t0) / 10
    # full 29-property signature of a size-6 table; smoke threshold only
    assert per_call < 0.05, f"eval_all too slow: {per_call * 1e3:.1f} ms"
