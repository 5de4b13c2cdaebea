import itertools

import pytest

from oracle import oracle_witness, oracle_zero

from implalg import PropertyId as P
from implalg import Table, eval_property
from implalg import claims as claims_mod
from implalg.claims import (
    CLAIMS,
    claim_by_id,
    default_max_size,
    refute,
    verify_all,
    verify_claim,
)
from implalg.classes import REGISTRY
from implalg.core import Claim, ClaimStatus
from implalg.search import SizeTooLarge


def _claim(hyps, concls, **kw):
    return Claim(
        "adhoc",
        frozenset(hyps),
        tuple(concls),
        kw.pop("kind", "implies"),
        **kw,
    )


def test_registry_sanity():
    ids = [c.id for c in CLAIMS]
    assert len(ids) == len(set(ids))
    # every numbered item from the connection list is present
    for k in list(range(25)) + ["00"]:
        assert any(i == f"p2.1-{k}" for i in ids), k
    for tid in ("th1.B-BB", "th1.BB-Star", "th2", "th3", "th4.i", "th4.ii"):
        assert tid in ids
    for g in range(1, 9):
        assert f"g{g}" in ids
    assert claim_by_id("pkt").hypotheses == {P.Pimpl, P.K}


def test_verify_spec_examples():
    assert verify_claim(_claim({P.M}, (P.N,)), 3).status == "verified"
    assert verify_claim("th2", 4).status == "verified"
    out = verify_claim(_claim({P.Re, P.M, P.An}, (P.Ex,)), 3)
    assert out.status == "counterexample" and out.size == 3


def test_refute_spec_examples():
    out = refute(
        Claim("re-not-re", frozenset({P.Re}), (P.Re,), status=ClaimStatus.NON_IMPLICATION, paper_size=3)
    )
    assert out.status == "not-found"
    out = refute("ni-tr-not-bb")
    assert out.status == "counterexample" and out.size == 4
    out = refute("ni-pi-not-pimpl")
    assert out.status == "counterexample" and out.size == 4


def test_counterexample_soundness():
    # the engine's counterexamples must re-verify from scratch
    for cid in ("ni-star-not-starstar", "ni-starstar-not-star", "ni-b-not-bb"):
        claim = claim_by_id(cid)
        out = refute(claim)
        assert out.status == "counterexample"
        table = out.table
        for h in claim.hypotheses:
            assert eval_property(table, h).satisfied, (cid, h)
        res = eval_property(table, out.conclusion)
        assert not res.satisfied
        assert res.witness == out.witness


def _naive_least_counterexample(claim, max_size):
    """(cells, conclusion, witness) of the least counterexample found by a
    full unpruned sweep with the oracle, or None."""
    props = claim.hypotheses | set(claim.conclusions)
    needs_bounded = claim.bounded_only or any(p.bounded_only for p in props)
    for n in range(1, max_size + 1):
        for combo in itertools.product(range(n), repeat=n * n):
            t = Table.make([combo[i * n : (i + 1) * n] for i in range(n)])
            zb = oracle_zero(t)
            zero = zb[0] if zb and zb[1] else None
            if needs_bounded and zero is None:
                continue

            def holds(p):
                return oracle_witness(t, p.value, zero) is None

            if not all(holds(h) for h in claim.hypotheses):
                continue
            if claim.kind == "proper_empty":
                cdef = REGISTRY.get(claim.proper_class)
                if all(holds(p) for p in cdef.required) and not any(
                    holds(p) for p in cdef.proper_forbidden
                ):
                    return t.cells, claim.conclusions[0], ()
                continue
            for concl in claim.conclusions:
                w = oracle_witness(t, concl.value, zero)
                if w is not None:
                    return t.cells, concl, w
    return None


@pytest.mark.parametrize(
    "hyps,concls,kw",
    [
        pytest.param({P.L, P.An}, (P.N,), {}, id="hyps0-N"),
        pytest.param({P.Re}, (P.M,), {}, id="hyps1-M"),
        pytest.param({P.K}, (P.L,), {}, id="hyps2-L"),
        pytest.param({P.Ex, P.B}, (P.BB,), {}, id="hyps3-BB"),
        pytest.param({P.Re}, (P.G1,), {"bounded_only": True}, id="bounded-only"),
        pytest.param({P.DN}, (P.Ex,), {}, id="DN-hypothesis"),
        # the least counterexample satisfies Tr and violates both Ex and B
        pytest.param({P.Re, P.M, P.L}, (P.Tr, P.Ex, P.B), {}, id="multi-conclusion"),
        # BB and An of BCK are no hypotheses, so the leaf check decides membership
        pytest.param(
            {P.Re, P.M, P.L}, (P.An,), {"kind": "proper_empty", "proper_class": "BCK"},
            id="proper-empty",
        ),
    ],
)
def test_agrees_with_naive_sweep_at_size3(hyps, concls, kw):
    # independent oracle: full 3^9 loop without pruning
    claim = _claim(hyps, concls, **kw)
    naive = _naive_least_counterexample(claim, 3)
    out = verify_claim(claim, 3)
    if naive is None:
        assert out.status == "verified"
    else:
        assert out.status == "counterexample"
        # same least counterexample, conclusion and witness
        assert (out.table.cells, out.conclusion, out.witness) == naive


def test_equivalence_directions_reported_separately():
    rep = verify_all(claims=[claim_by_id("p2.1-10")])
    assert sorted(o.claim_id for o in rep.outcomes) == ["p2.1-10.bwd", "p2.1-10.fwd"]
    assert rep.ok


def test_budget_guards():
    with pytest.raises(SizeTooLarge):
        verify_claim("p2.1-0", 4)  # no (M) among hypotheses
    with pytest.raises(SizeTooLarge):
        verify_claim("th2", 5)
    with pytest.raises(SizeTooLarge):
        verify_claim("th2", 0)
    with pytest.raises(ValueError):
        verify_all(claims=[claim_by_id("p2.1-0")], jobs=0)
    assert default_max_size(claim_by_id("th2")) == 4
    assert default_max_size(claim_by_id("p2.1-0")) == 3
    assert default_max_size(claim_by_id("ni-b-not-bb")) == 5
    assert default_max_size(claim_by_id("th4.i")) == 4
    # an (M)-pinned row plus a strong equation affords size 4 as well
    assert default_max_size(claim_by_id("p2.1-20p")) == 4
    assert default_max_size(claim_by_id("def-bci-logic.bwd")) == 4
    # Horn-only residual filters stay at size 3
    assert default_max_size(claim_by_id("p2.1-13p")) == 3


def test_budgets_checked_before_the_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(claims_mod, "ProcessPoolExecutor", no_pool)
    with pytest.raises(SizeTooLarge, match="budget"):
        verify_all({"th2": 0}, jobs=2)
    # a bad budget on a later claim is refused before the first one runs
    todo = [claim_by_id("th2"), claim_by_id("p2.1-0")]
    with pytest.raises(SizeTooLarge, match="needs \\(M\\)"):
        verify_all({"th2": 3, "p2.1-0": 4}, todo, jobs=2)


def test_tables_examined_per_size_are_pinned():
    # a non-implication stops at its first counterexample but counts the
    # whole leaf buffer it was found in; a theorem examines every table
    assert verify_claim("ni-b-not-bb").tables_examined == {1: 1, 2: 2, 3: 13, 4: 256}
    assert verify_claim("th4.ii").tables_examined == {1: 1, 2: 2, 3: 13, 4: 447}


def test_bounded_claims_skip_unbounded_tables():
    # a deliberately false bounded claim: DN on every bounded table
    bogus = Claim("bogus-dn", frozenset(), (P.DN,), bounded_only=True)
    out = verify_claim(bogus, 3)
    assert out.status == "counterexample"
    from implalg.props import find_zero

    zb = find_zero(out.table)
    assert zb is not None and zb[1]  # the counterexample really is bounded


def test_proper_empty_counterexample_detection():
    # sanity of the proper_empty machinery: proper pre-BCK tables *do* exist,
    # so an emptiness claim about them must fail with a counterexample
    from implalg.classes import REGISTRY

    bogus = Claim(
        "bogus-empty",
        REGISTRY.get("pre-BCK").required,
        (P.Ex,),
        "proper_empty",
        proper_class="pre-BCK",
    )
    out = verify_claim(bogus, 4)
    assert out.status == "counterexample"


def test_full_registry_verifies(claims_report):
    assert claims_report.ok, claims_report.format_text()


def test_theorems_examined_tables_at_top_size(claims_report):
    # a Verified verdict must rest on a non-empty search at its budget
    from implalg.claims import _resolve

    records = {r["id"]: r for r in claims_report.to_record()["claims"]}
    for o in claims_report.outcomes:
        if _resolve(o.claim_id).status is ClaimStatus.THEOREM:
            assert o.tables_examined.get(o.max_size, 0) > 0, o.claim_id
        assert records[o.claim_id]["tables_examined"] == {
            str(n): k for n, k in o.tables_examined.items()
        }


def test_nonimplications_found_within_paper_size(claims_report):
    from implalg.claims import _resolve

    for o in claims_report.outcomes:
        claim = _resolve(o.claim_id)
        if claim.status is ClaimStatus.NON_IMPLICATION:
            assert o.status == "counterexample"
            assert o.size <= claim.paper_size, (claim.id, o.size)


@pytest.fixture(scope="module")
def claims_report():
    return verify_all(jobs=2)
