"""Tests of the benchmark's own code: python3 -m pytest perfbench -q"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
for p in (HERE.parent / "src", HERE.parent / "tests", HERE):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import pytest

import hostspeed
import measure
import run
import tracer
import workloads
from implalg import core, search


def test_self_time_subtracts_the_union_of_children():
    # [1,3] and [2,5] overlap; [8,12] sticks out of the span; [20,30] is outside
    children = [(1, 3), (2, 5), (8, 12), (20, 30)]
    assert tracer.self_time(0, 10, children) == pytest.approx(10 - 4 - 2)
    assert tracer.self_time(0, 10, []) == 10
    assert tracer.self_time(0, 10, [(0, 10), (2, 3)]) == 0


def test_union_length():
    assert tracer.union_length([]) == 0
    assert tracer.union_length([(5, 6), (0, 2), (1, 3)]) == pytest.approx(4)
    assert tracer.union_length([(0, 4), (1, 2)]) == 4


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50), (99, 50), (100, 90), (170, 90), (999, 90),
     (1000, 99), (9999, 99), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected


def test_percentile_interpolates():
    assert run.percentile([3, 1, 2], 50) == 2
    assert run.percentile([0, 10], 90) == pytest.approx(9)
    assert run.percentile([7], 99) == 7


def test_normalised_rescales_by_the_adjacent_references():
    nominal = hostspeed.REF_NOMINAL_S
    # the host runs at nominal speed, then at half speed around the second pass
    refs = [nominal, nominal, 2 * nominal]
    assert hostspeed.normalised([3.0, 6.0], refs) == pytest.approx([3.0, 4.0])
    with pytest.raises(ValueError):
        hostspeed.normalised([3.0], [nominal])


def test_latency_names_follow_the_tail_rule():
    assert set(run.op_latency("claim", [1.0] * 170)) == {"claim_p50_ms", "claim_p90_ms"}
    assert set(run.op_latency("table", [1.0] * 1000)) == {"table_p50_ms", "table_p99_ms"}
    assert set(run.op_latency("call", [1.0] * 5)) == {"call_p50_ms"}


class _Probe:
    """A workload that records which implalg bindings are wrapped while it runs."""

    op = "probe"

    def __init__(self):
        self.seen = []

    def prepare(self, seed):
        return None

    def run(self, ctx, mark):
        self.seen.append(tracer.installed_wrappers())
        time.sleep(0.004)
        return 1, [1.0], []

    def check(self, ctx, outputs):
        return 1, []


def test_timed_runs_install_no_wrapper(monkeypatch):
    probe = _Probe()
    monkeypatch.setitem(workloads.WORKLOADS, "probe", probe)
    record = measure.measure("probe", seed=0, seconds=0.01, trace=False)
    assert probe.seen and all(seen == [] for seen in probe.seen)
    assert record["failures"] == []

    probe.seen.clear()
    record = measure.measure("probe", seed=0, seconds=0.01, trace=True)
    untraced = probe.seen[: len(record["walls"])]
    traced = probe.seen[len(record["walls"]):]
    assert untraced and all(seen == [] for seen in untraced)
    assert traced and all("implalg.search._dfs" in seen for seen in traced)
    assert tracer.installed_wrappers() == []


def test_tracer_counts_a_small_search_and_restores_bindings():
    originals = {name: getattr(search, name) for name in ("_dfs", "census_filtered")}
    t = tracer.Tracer()
    t.install()
    try:
        report = search.census_filtered(3, search.BaseConstraint.RML, [core.PropertyId.B])
    finally:
        t.uninstall()
    assert {name: getattr(search, name) for name in originals} == originals
    assert tracer.installed_wrappers() == []
    m = t.layer_metrics(wall_s=1.0, scale=1.0)
    assert m["search.leaves"] == report.total == m["search.leaf.calls"] == m["props.bulk.tables"]
    assert m["search.compile.calls"] == 1 and m["search.compile.instances"] > 0
    assert 0 <= m["search.dfs.self_s"] <= m["search.leaves"] / m["search.leaves_per_s"]
    assert m["claims.slowest_s"] == m["corpus.load_s"] == 0  # layers this search never calls

    half = t.layer_metrics(wall_s=1.0, scale=0.5)
    for name in ("search.dfs.self_s", "search.leaf.s", "props.bulk.s", "search.compile.s"):
        assert half[name] == pytest.approx(m[name] / 2)
    assert half["props.bulk.share"] == m["props.bulk.share"]  # a share is not rescaled
    assert half["search.leaves"] == m["search.leaves"]


def test_generated_tables_follow_the_seed():
    assert workloads.generate_tables(5, 50) == workloads.generate_tables(5, 50)
    assert workloads.generate_tables(5, 50) != workloads.generate_tables(6, 50)
    sizes = {len(cells) for cells in workloads.generate_tables(5, 200)}
    assert sizes == {3, 4, 5, 6}
