import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import tables
from oracle import oracle_witness, oracle_zero

from implalg import PropertyId as P
from implalg import Table, eval_all, eval_bounded_property, eval_property, find_zero
from implalg.core import BOUNDED_PROPS, CORE_PROPS, SIGNATURE_PROPS, signature_bit
from implalg.classes import REGISTRY
from implalg.props import FORMULAS, find_zero_bulk, signature_bits_bulk
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
