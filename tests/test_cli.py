import json
from pathlib import Path

import pytest

from implalg import claims as claims_mod
from implalg.cli import main
from implalg.io import parse_table_record

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def e1_file(tmp_path):
    p = tmp_path / "e1.tbl"
    p.write_text((GOLDEN / "e1.tbl").read_text())
    return str(p)


@pytest.fixture
def bool2_file(tmp_path):
    p = tmp_path / "bool2.tbl"
    p.write_text("elements: a 1\n1 1\na 1\n")
    return str(p)


def _no_pool(*args, **kwargs):
    raise AssertionError("a worker pool was started")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_golden(capsys, e1_file):
    code, out, _ = run(capsys, "check", e1_file, "--props", "Ex")
    assert code == 0
    assert out == "Ex: violated at (a,b,a)\n"
    code, out, _ = run(capsys, "check", e1_file, "--props", "DN", "Re")
    assert code == 0
    assert out == "DN: not applicable (unbounded)\nRe: satisfied\n"


def test_check_all_props_defaults(capsys, e1_file):
    code, out, _ = run(capsys, "check", e1_file)
    assert code == 0
    assert len(out.strip().splitlines()) == 30  # every PropertyId incl. MP


def test_check_structured(capsys, e1_file):
    code, out, _ = run(capsys, "--format", "structured", "check", e1_file, "--props", "Ex")
    record = json.loads(out)
    assert record["results"][0] == {
        "property": "Ex",
        "applicable": True,
        "satisfied": False,
        "witness": [0, 1, 0],
    }


def test_classify_golden(capsys, e1_file):
    code, out, _ = run(capsys, "classify", e1_file, "--proper")
    assert code == 0
    assert out == (GOLDEN / "classify_e1.txt").read_text()


def test_classify_boolean_counts(capsys, bool2_file):
    code, out, _ = run(capsys, "--format", "structured", "classify", bool2_file, "--proper")
    record = json.loads(out)
    assert len(record["members"]) == 59


def test_census_golden_size2(capsys):
    code, out, _ = run(capsys, "census", "--size", "2", "--base", "RM")
    assert code == 0
    got = [l for l in out.splitlines() if not l.startswith("census ")]
    want = [l for l in (GOLDEN / "census_rm2.txt").read_text().splitlines() if not l.startswith("census ")]
    assert got == want
    header = out.splitlines()[0]
    assert "size=2 base=RM total=2" in header


def test_census_size3_totals(capsys):
    code, out, _ = run(capsys, "--format", "structured", "census", "--size", "3", "--base", "RM")
    record = json.loads(out)
    assert record["total"] == 81
    assert record["per_proper"]["oRM"] == 24


def test_census_expectations(capsys, tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"total": 81, "per_proper": {"oRM": 24, "BCK": 2}}))
    code, _, _ = run(capsys, "census", "--size", "3", "--base", "RM", "--quiet", "--expect", str(good))
    assert code == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"total": 82}))
    code, _, err = run(capsys, "census", "--size", "3", "--base", "RM", "--quiet", "--expect", str(bad))
    assert code == 1
    assert "expectation failed" in err


def test_census_out_file(capsys, tmp_path):
    out_path = tmp_path / "census.json"
    code, _, _ = run(
        capsys, "--format", "structured", "--quiet",
        "census", "--size", "2", "--base", "RM", "--out", str(out_path),
    )
    assert code == 0
    record = json.loads(out_path.read_text())
    assert record["total"] == 2


def test_enumerate_stream_golden(capsys, tmp_path):
    out_path = tmp_path / "stream.jsonl"
    code, out, _ = run(capsys, "enumerate", "--size", "2", "--base", "RM", "--out", str(out_path))
    assert code == 0
    assert out == "count: 2\n"
    lines = out_path.read_text().splitlines()
    assert lines == (GOLDEN / "stream_rm2.jsonl").read_text().splitlines()
    tables = [parse_table_record(l) for l in lines]
    assert [t.cells for t in tables] == [((1, 0), (0, 1)), ((1, 1), (0, 1))]


def test_enumerate_count_only(capsys):
    code, out, _ = run(capsys, "enumerate", "--size", "3", "--base", "RML", "--count-only")
    assert code == 0 and out == "count: 9\n"
    code, out, _ = run(
        capsys, "enumerate", "--size", "3", "--base", "RML", "--count-only",
        "--filter", "Star", "StarStar", "Pi",
    )
    assert code == 0 and out == "count: 4\n"
    # an unpruned space is counted in closed form, not walked
    code, out, _ = run(capsys, "enumerate", "--size", "5", "--base", "RM", "--count-only")
    assert code == 0 and out == "count: 152587890625\n"


def test_claims_single(capsys):
    code, out, _ = run(capsys, "claims", "verify", "--claim", "p2.1-00")
    assert code == 0
    assert "Verified" in out
    code, out, _ = run(capsys, "claims", "refute", "--claim", "ni-star-not-starstar")
    assert code == 0
    assert "counterexample at n=3" in out


def test_claims_verify_all_theorems_at_size3(capsys):
    # capped budgets keep every theorem claim Verified and exit 0
    code, out, _ = run(capsys, "claims", "verify", "--max-size", "3", "--jobs", "2")
    assert code == 0
    assert "0 failures" in out
    assert "counterexample" not in out


def test_claims_refute_all(capsys):
    code, out, _ = run(capsys, "claims", "refute", "--jobs", "2")
    assert code == 0
    assert out.count("counterexample at n=") == 6


def test_claims_unknown_id(capsys):
    code, _, err = run(capsys, "claims", "verify", "--claim", "nope")
    assert code == 2 and "unknown claim id" in err


def test_corpus_test_command(capsys):
    code, out, _ = run(capsys, "corpus", "test")
    assert code == 0
    assert "PAPER-DISCREPANCY" in out  # the known finding stays visible


def test_find_none_and_found(capsys):
    code, out, _ = run(capsys, "find", "--class", "pi-*RML**", "--proper", "--max-size", "3")
    assert code == 0 and out == "none up to size 3\n"
    code, out, _ = run(capsys, "find", "--class", "pimpl-pre-BCK", "--proper", "--max-size", "3")
    assert code == 0
    assert out == "elements: a b 1\n1 1 1\n1 1 1\na b 1\n"


def test_alg_jobs_env_default(capsys, monkeypatch):
    monkeypatch.setenv("ALG_JOBS", "3")
    from implalg.cli import _worker_count

    assert _worker_count(None) == 3
    assert _worker_count(2) == 2  # --jobs wins
    monkeypatch.setenv("ALG_JOBS", "junk")
    with pytest.raises(ValueError, match="ALG_JOBS"):
        _worker_count(None)


def test_exit_codes(capsys, tmp_path, monkeypatch):
    bad = tmp_path / "bad.tbl"
    bad.write_text("elements: a 1\n1\na 1\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2 and "parse error" in err
    code, _, err = run(capsys, "census", "--size", "9", "--base", "RM")
    assert code == 3 and "size limit" in err
    code, _, err = run(capsys, "census", "--size", "5", "--base", "RM", "--jobs", "2")
    assert code == 3 and "152,587,890,625" in err
    code, _, err = run(capsys, "check", str(tmp_path / "missing.tbl"))
    assert code == 2
    code, _, err = run(capsys, "find", "--class", "Nope", "--max-size", "2")
    assert code == 2
    # bounded-only properties are no search filters
    code, _, err = run(capsys, "find", "--class", "BCK", "--max-size", "3", "--extra", "DN")
    assert code == 2 and "bounded-only" in err
    code, _, err = run(capsys, "census", "--size", "3", "--filter", "G7", "--jobs", "2")
    assert code == 2 and "bounded-only" in err
    code, _, err = run(capsys, "enumerate", "--size", "3", "--filter", "DN", "--count-only")
    assert code == 2 and "bounded-only" in err
    # at least one worker
    code, _, err = run(capsys, "find", "--class", "BCK", "--max-size", "3", "--jobs", "0")
    assert code == 2 and "--jobs" in err
    code, _, err = run(capsys, "claims", "verify", "--claim", "p2.1-0", "--jobs", "0")
    assert code == 2 and "--jobs" in err
    # a zero budget is refused, not read as "no budget given"
    code, _, err = run(capsys, "claims", "verify", "--claim", "th2", "--max-size", "0")
    assert code == 3 and "budget" in err
    # refused before a worker pool starts
    monkeypatch.setattr(claims_mod, "ProcessPoolExecutor", _no_pool)
    code, _, err = run(capsys, "claims", "verify", "--max-size", "0", "--jobs", "2")
    assert code == 3 and "budget" in err
    # ALG_JOBS gets the same check as --jobs
    monkeypatch.setenv("ALG_JOBS", "0")
    code, _, err = run(capsys, "find", "--class", "BCK", "--max-size", "2")
    assert code == 2 and "ALG_JOBS" in err
    monkeypatch.setenv("ALG_JOBS", "abc")
    code, _, err = run(capsys, "find", "--class", "BCK", "--max-size", "2")
    assert code == 2 and "ALG_JOBS" in err
