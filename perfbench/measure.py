"""One workload's measurement, run as its own process by run.py.

run.py starts this file with PYTHONHASHSEED derived from the workload seed,
because set iteration order changes how much work a search does.  It prints
one JSON line with the pass times, per-operation latencies, the output check
and, when traced, the per-layer numbers.

Usage: python measure.py --workload NAME --seed N --seconds S --trace 0|1
(with ``src`` and ``tests`` on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy
from implalg import search

import workloads
from hostspeed import normalised, reference_seconds
from tracer import Tracer

MAX_FAILURE_LINES = 20


@dataclass
class Passes:
    walls: list = field(default_factory=list)  # raw pass times, references excluded
    norm_walls: list = field(default_factory=list)  # host-speed-normalised pass times
    results: list = field(default_factory=list)
    op_ms: list = field(default_factory=list)
    layers: list = field(default_factory=list)  # per-pass metrics when traced
    layer_shares: list = field(default_factory=list)  # raw layer seconds over pass time
    attempted: int = 0
    failures: list = field(default_factory=list)


class Segments:
    """The parts of one pass between calls of ``mark``, each followed by a
    timing of the host-speed reference."""

    def __init__(self, ref_before: float):
        self.durations: list[float] = []
        self.refs = [ref_before]
        self._start = time.perf_counter()

    def mark(self) -> None:
        self.durations.append(time.perf_counter() - self._start)
        self.refs.append(reference_seconds())
        self._start = time.perf_counter()


def run_passes(workload, ctx, budget_s: float, tracer: Tracer | None = None,
               into: Passes | None = None) -> Passes:
    """Timed passes until the next one would overrun ``budget_s`` (at least
    one).  The host-speed reference is timed before each pass and at every
    ``mark`` the workload makes, outside the measured time.  Outputs are
    checked after each pass, outside its timing."""
    out = into if into is not None else Passes()
    ref = reference_seconds()
    while not out.walls or sum(out.walls) + statistics.median(out.walls[-3:]) <= budget_s:
        if tracer is not None:
            tracer.reset()
        segments = Segments(ref)
        try:
            results, op_ms, outputs = workload.run(ctx, segments.mark)
        except Exception as exc:  # a raise is a failed operation, not a crash of the bench
            out.attempted += 1
            out.failures.append(f"raised {type(exc).__name__}: {exc}")
            return out
        segments.mark()
        ref = segments.refs[-1]
        wall = sum(segments.durations)
        norm_wall = sum(normalised(segments.durations, segments.refs))
        if tracer is not None:  # before the check, whose own calls are not the workload's
            out.layers.append(tracer.layer_metrics(wall, norm_wall / wall))
            out.layer_shares.append({k: v / wall for k, v in tracer.layer_seconds().items()})
        attempted, fails = workload.check(ctx, outputs)
        del outputs  # so that peak memory does not depend on the number of passes
        out.walls.append(wall)
        out.norm_walls.append(norm_wall)
        out.results.append(results)
        out.op_ms += op_ms
        out.attempted += attempted
        out.failures += fails
    return out


def pool_metrics(serial_s: float, out: Passes) -> dict:
    """census(4, RM) again at jobs=nproc, against the normalised serial pass
    time ``serial_s``; the pooled time is normalised the same way."""
    jobs = len(os.sched_getaffinity(0))
    ref_before = reference_seconds()
    t0 = time.perf_counter()
    report = search.census(4, search.BaseConstraint.RM, jobs=jobs)
    pooled_raw = time.perf_counter() - t0
    [pooled_s] = normalised([pooled_raw], [ref_before, reference_seconds()])
    attempted, fails = workloads.census_rm4_check(None, [report])
    out.attempted += attempted
    out.failures += fails
    ideal = serial_s / jobs
    return {
        "search.pool.efficiency": ideal / pooled_s,
        "search.pool.overhead_s": pooled_s - ideal,
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    ctx = workload.prepare(seed)
    untraced = run_passes(workload, ctx, seconds / 2 if trace else seconds)
    record = {
        "op": workload.op,
        "walls": untraced.walls,
        "norm_walls": untraced.norm_walls,
        "results": untraced.results,
        "op_ms": untraced.op_ms,
    }
    if not trace or not untraced.walls:
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record.update(attempted=untraced.attempted, failures=untraced.failures)
        return record

    extra = {"search.pool.efficiency": 0.0, "search.pool.overhead_s": 0.0}
    if name == "census-rm4" and not untraced.failures:
        extra = pool_metrics(statistics.median(untraced.norm_walls), untraced)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_passes(workload, ctx, seconds / 2, tracer,
                            into=Passes(attempted=untraced.attempted, failures=untraced.failures))
    finally:
        tracer.uninstall()
    layers = {}
    if traced.layers:
        first = traced.layers[0]
        # counts are the same on every pass of one process; times vary
        layers = {k: v if isinstance(v, int) else statistics.median(m[k] for m in traced.layers)
                  for k, v in first.items()}
        layers["trace.overhead_frac"] = (
            statistics.median(traced.norm_walls) / statistics.median(untraced.norm_walls) - 1)
        layers.update(extra)
    record.update(
        traced_walls=traced.walls,
        layers=layers,
        layer_shares=traced.layer_shares[0] if traced.layer_shares else {},
        attempted=traced.attempted,
        failures=traced.failures,
    )
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    record["numpy"] = numpy.__version__
    record["failed"] = len(record["failures"])
    record["failures"] = record["failures"][:MAX_FAILURE_LINES]
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
