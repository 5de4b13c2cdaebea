import itertools
import json
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tables

from implalg import Table, eval_all
from implalg.io import (
    BadCell,
    DuplicateName,
    MissingOne,
    ParseError,
    SizeMismatch,
    are_isomorphic,
    emit_table,
    parse_table,
    parse_table_record,
)

GOLDEN = Path(__file__).parent / "golden"


def test_golden_text_format(e1):
    assert emit_table(e1, "text") == (GOLDEN / "e1.tbl").read_text()


def test_golden_stream_record(e1):
    assert emit_table(e1, "json") == (GOLDEN / "e1.json").read_text().rstrip("\n")


def test_parse_spec_examples(e1):
    text = "elements: a b 1\n1 1 a\n1 1 1\na b 1\n"
    assert parse_table(text).cells == e1.cells
    t = parse_table("elements: 1\n1\n")
    assert t.size == 1 and t.names == ("1",)


def test_parse_comments_and_blank_lines(e1):
    text = "# a comment\n\nelements: a b 1  # trailing\n1 1 a\n\n1 1 1\na b 1\n"
    assert parse_table(text).cells == e1.cells


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_table("elements: a b 1\n1 1\n1 1 1\na b 1\n")  # short row
    with pytest.raises(DuplicateName):
        parse_table("elements: a a 1\n1 1 1\n1 1 1\na a 1\n")
    with pytest.raises(MissingOne):
        parse_table("elements: a b c\na a a\na a a\na a a\n")
    with pytest.raises(BadCell):
        parse_table("elements: a 1\n1 q\na 1\n")
    with pytest.raises(ParseError):
        parse_table("1 1\na 1\n")  # missing elements line
    with pytest.raises(ParseError):
        parse_table("elements: a 1\n1 1\n")  # missing row


def test_one_reordered_to_last_with_warning():
    text = "elements: 1 a\n1 a\n1 1\n"  # declared 1 first: 1->1=1, 1->a=a, a->1=1, a->a=1
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        t = parse_table(text)
    assert any("reordering" in str(item.message) for item in w)
    assert t.names == ("a", "1")
    # a->a=1, a->1=1, 1->a=a, 1->1=1
    assert t.cells == ((1, 1), (0, 1))


def test_structured_roundtrip(e1):
    rec = emit_table(e1, "json")
    t = parse_table_record(rec)
    assert t.cells == e1.cells and t.names == e1.names
    t = parse_table_record(json.loads(rec))
    assert t.cells == e1.cells
    with pytest.raises(ParseError):
        parse_table_record("{not json")
    with pytest.raises(ParseError):
        parse_table_record({"elements": ["a", "1"]})


@given(tables(max_size=5))
@settings(max_examples=100, deadline=None)
def test_roundtrip_identity(table):
    assert parse_table(emit_table(table, "text")).cells == table.cells
    assert parse_table_record(emit_table(table, "json")).cells == table.cells


def test_roundtrip_on_full_corpus():
    from implalg.corpus import load_corpus

    for entry in load_corpus():
        for fmt in ("text", "json"):
            parsed = (
                parse_table(emit_table(entry.table, "text"))
                if fmt == "text"
                else parse_table_record(emit_table(entry.table, "json"))
            )
            assert parsed.cells == entry.table.cells, (entry.id, fmt)
            assert parsed.names == entry.table.names


def _permuted(table: Table, perm):
    n = table.size
    cells = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            cells[perm[x]][perm[y]] = perm[table.cells[x][y]]
    return Table.make(cells)


def test_isomorphic_examples(e1, bool2, psemi2):
    swapped = _permuted(e1, (1, 0, 2))  # a and b exchanged, 1 fixed
    assert are_isomorphic(e1, swapped)
    assert not are_isomorphic(bool2, psemi2)  # they differ at a -> 1
    assert are_isomorphic(e1, e1)
    with pytest.raises(SizeMismatch):
        are_isomorphic(e1, bool2)


@given(tables(min_size=2, max_size=4))
@settings(max_examples=60, deadline=None)
def test_isomorphism_invariance_of_signatures(table):
    n = table.size
    perm = tuple(range(1, n - 1)) + (0, n - 1) if n > 2 else (0, n - 1)
    image = _permuted(table, perm)
    assert are_isomorphic(table, image)
    assert are_isomorphic(image, table)  # symmetric
    assert eval_all(table).bits == eval_all(image).bits


def test_isomorphism_equivalence_spot_checks():
    import random

    rng = random.Random(7)
    ts = []
    for _ in range(6):
        ts.append(Table.make([[rng.randrange(4) for _ in range(4)] for _ in range(4)]))
    for t in ts:
        assert are_isomorphic(t, t)  # reflexive
    for a in ts:
        for b in ts:
            assert are_isomorphic(a, b) == are_isomorphic(b, a)
    for a in ts:
        for b in ts:
            for c in ts:
                if are_isomorphic(a, b) and are_isomorphic(b, c):
                    assert are_isomorphic(a, c)


def _brute_force_isomorphic(t1, t2):
    n = t1.size
    c1, c2 = t1.cells, t2.cells
    for perm in itertools.permutations(range(n - 1)):
        p = perm + (n - 1,)
        if all(p[c1[x][y]] == c2[p[x]][p[y]] for x in range(n) for y in range(n)):
            return True
    return False


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(tables(n, n), tables(n, n))), st.data())
@settings(max_examples=150, deadline=None)
def test_isomorphism_matches_brute_force(pair, data):
    a, b = pair
    assert are_isomorphic(a, b) == _brute_force_isomorphic(a, b)
    perm = data.draw(st.permutations(range(a.size - 1))) + [a.size - 1]
    image = _permuted(a, perm)
    assert are_isomorphic(a, image) and _brute_force_isomorphic(a, image)
    # one cell changed in the image: isomorphic exactly when brute force says so
    x, y, v = (data.draw(st.integers(0, a.size - 1)) for _ in range(3))
    rows = [list(r) for r in image.cells]
    rows[x][y] = v
    changed = Table.make(rows)
    assert are_isomorphic(a, changed) == _brute_force_isomorphic(a, changed)
