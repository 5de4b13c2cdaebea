import pytest

from implalg import PropertyId as P
from implalg import eval_all, eval_property
from implalg.classes import REGISTRY, hierarchy_edges
from implalg.corpus import (
    CorpusEntry,
    _witness_violates,
    load_corpus,
    run_regression,
)

# the one place the transcription and its source disagree; recomputation is
# the oracle, the claim stays in the data, and the regression surfaces it
KNOWN_PAPER_DISCREPANCIES = {
    "S10-piTRML-5: D recomputes to violated at (1, 2), claimed satisfied",
}


@pytest.fixture(scope="module")
def entries():
    return load_corpus()


@pytest.fixture(scope="module")
def regression(entries):
    return run_regression(entries)


def test_corpus_loads_completely(entries):
    assert len(entries) == 82
    ids = [e.id for e in entries]
    assert len(set(ids)) == len(ids)
    for required_id in ("S8.1-ex1", "S9-aBEss-4", "S10-kinyon-6", "S11-boolean-2"):
        assert required_id in ids


def test_key_entries(entries):
    by_id = {e.id: e for e in entries}
    e1 = by_id["S8.1-ex1"]
    assert e1.expected_class == "RM" and e1.expected_proper
    assert e1.expected_flags[P.Ex] == (False, (0, 1, 0))
    kinyon = by_id["S10-kinyon-6"]
    assert kinyon.table.size == 6
    assert kinyon.expected_class == "pi-*RML**" and kinyon.expected_proper
    assert kinyon.expected_flags[P.An] == (False, (3, 4))  # (d, e)
    abess = by_id["S9-aBEss-4"]
    assert abess.expected_flags[P.BB][1] == (1, 2, 0)  # (a, b, 0)


def test_no_implementation_failures(regression):
    assert regression.implementation_failures == []
    # every stated witness violates under the standard (x, y, z) reading
    assert len(regression.witness_readings) == 310
    assert set(regression.witness_readings.values()) == {"xyz"}


def test_discrepancies_are_exactly_the_known_ones(regression):
    assert set(regression.discrepancies) == KNOWN_PAPER_DISCREPANCIES


def test_every_examplified_proper_class_recomputes_proper(entries):
    covered = {}
    for e in entries:
        if e.expected_proper:
            sig = eval_all(e.table)
            if REGISTRY.is_proper(sig, e.expected_class):
                covered[e.expected_class] = e.id
    claimed = {e.expected_class for e in entries if e.expected_proper}
    assert claimed <= set(covered), claimed - set(covered)
    # the corpus exercises the bulk of the registry's proper definitions
    assert len(claimed) >= 50


def test_corpus_respects_hierarchy(entries):
    edges = hierarchy_edges()
    for e in entries:
        sig = eval_all(e.table)
        for sub, sup in edges:
            if REGISTRY.is_member(sig, sub):
                assert REGISTRY.is_member(sig, sup), (e.id, sub, sup)


def test_d_annotations_recompute(entries):
    # entries annotated with/without (D) carry a D flag; recomputation agrees
    for e in entries:
        if P.D in e.expected_flags:
            claimed, _ = e.expected_flags[P.D]
            if e.id == "S10-piTRML-5":
                continue  # the known discrepancy
            assert eval_property(e.table, P.D).satisfied == claimed, e.id


def test_dn_entries_are_bounded(entries):
    from implalg.props import find_zero

    for e in entries:
        if P.DN in e.expected_flags:
            zb = find_zero(e.table)
            assert zb is not None and zb[1], e.id


def test_empty_corpus_is_fine():
    report = run_regression([])
    assert report.ok and report.checks == 0


def test_witness_reading_helper(entries):
    by_id = {e.id: e for e in entries}
    table = by_id["S8.1-ex1"].table
    assert _witness_violates(table, P.Ex, (0, 1, 0)) == "xyz"
    assert _witness_violates(table, P.Ex, (2, 2, 2)) is None
    assert _witness_violates(table, P.Ex, (0, 1)) is None  # wrong arity


def test_witness_mismatch_reported():
    # a doctored expectation shows up as a discrepancy, not a crash
    entries = load_corpus()
    bad = entries[0]
    flags = dict(bad.expected_flags)
    flags[P.Ex] = (False, (2, 2, 2))  # (1,1,1) never violates Ex
    doctored = CorpusEntry(bad.id, bad.table, bad.expected_class, bad.expected_proper, flags)
    report = run_regression([doctored])
    assert any("does not violate" in d for d in report.discrepancies)
