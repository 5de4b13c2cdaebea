"""The implalg benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload census-rm4 --seed 1 --seconds 20 --trace 0

``--workload all`` runs the four workloads one after another.  With
``--trace 0`` a run prints the end-to-end metrics of BENCHMARK.json, measured
with no wrapper installed, with times normalised to a nominal host speed by a
reference kernel timed around each measured interval (hostspeed.py); with ``--trace 1`` it prints the per-layer metrics
from a traced run, after an untraced run of the same length that gives the
tracing overhead.  Each workload runs in its own process, started with
PYTHONHASHSEED derived from ``--seed``; the seed also generates the inputs of
check-tables.  Every output is checked against pinned or oracle results, and
the command exits 1 when any is wrong.

Output: human-readable metric lines (untraced runs add the latency of the
workload's operations: claim_p50_ms and claim_p90_ms on proofs, table_p50_ms
and table_p99_ms on check-tables), one ``{"report": ...}`` JSON line with the
run environment, sample counts and checks, and, last, one JSON line
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REF_NOMINAL_S, normalised, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"
SETUP_RUNS = 7
#: What every CLI call imports: numpy, the class registry and the claim registry.
SETUP_IMPORT = "import implalg, implalg.cli, implalg.claims"
RUN_DEADLINE_S = 170
PERCENTILE_LADDER = (50, 90, 99, 99.9)

#: End-to-end metric and workload that each per-layer metric should move.
LAYER_MOVES = {
    "props.bulk.calls": "wall_s, results_per_s on census-rm4; pruned-n5 slightly; not check-tables",
    "props.bulk.tables": "wall_s, results_per_s on census-rm4; pruned-n5 slightly; not check-tables",
    "props.bulk.s": "wall_s, results_per_s on census-rm4; pruned-n5 slightly; not check-tables",
    "props.bulk.share": "wall_s, results_per_s on census-rm4; pruned-n5 slightly; not check-tables",
    "props.scalar.calls": "wall_s, table_p50_ms, table_p99_ms on check-tables",
    "props.scalar.s": "wall_s, table_p50_ms, table_p99_ms on check-tables",
    "props.holds_at.calls": "wall_s, claim_p90_ms on proofs",
    "props.holds_at.s": "wall_s, claim_p90_ms on proofs",
    "search.leaves": "wall_s, results_per_s on pruned-n5",
    "search.leaves_per_s": "wall_s, results_per_s on pruned-n5",
    "search.dfs.self_s": "wall_s, results_per_s on pruned-n5",
    "search.compile.calls": "wall_s on proofs (about 1% of it: little effect predicted)",
    "search.compile.instances": "wall_s on proofs (about 1% of it: little effect predicted)",
    "search.compile.s": "wall_s on proofs (about 1% of it: little effect predicted)",
    "search.leaf.calls": "wall_s on proofs",
    "search.leaf.s": "wall_s on proofs",
    "search.materialise.s": "wall_s on census-rm4 (about 3% of it caps the gain)",
    "search.pool.efficiency": "none at jobs=1; census-rm4 at jobs=nproc",
    "search.pool.overhead_s": "none at jobs=1; census-rm4 at jobs=nproc",
    "claims.outcomes": "results_per_s, claim_p50_ms on proofs",
    "claims.searches": "wall_s on proofs",
    "claims.tables_examined": "wall_s on proofs",
    "claims.slowest_s": "wall_s on proofs when claims run in parallel (the slowest sets the floor)",
    "classes.calls": "table_p50_ms on check-tables",
    "classes.s": "table_p50_ms on check-tables",
    "io.parse.calls": "table_p50_ms on check-tables",
    "io.parse.s": "table_p50_ms on check-tables",
    "corpus.load_s": "wall_s on check-tables",
    "corpus.regression_s": "wall_s on check-tables",
    "corpus.checks": "wall_s on check-tables",
    "trace.overhead_frac": "none: the cost of the traced run itself",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a wrong result)."""


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile of ``values``, p in [0, 100]."""
    data = sorted(values)
    if not data:
        raise ValueError("no samples")
    pos = (len(data) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(n: int, ladder=PERCENTILE_LADDER):
    """Highest percentile of ``ladder`` with at least ten of ``n`` samples
    beyond it, or None when even the median has fewer."""
    ok = [p for p in ladder if round(n * (100 - p), 6) >= 1000]  # n * (1 - p/100) >= 10
    return max(ok) if ok else None


def hash_seed(seed: int) -> int:
    return seed % 2**32  # PYTHONHASHSEED accepts 0..4294967295


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed(seed))
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    return env


def setup_times(env: dict, deadline: float) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that only import the package, and
    the host-speed reference before each and after the last."""
    times, refs = [], [reference_seconds()]
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_IMPORT], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=deadline - time.monotonic())
        times.append(time.perf_counter() - t0)
        refs.append(reference_seconds())
        if proc.returncode != 0:
            raise BenchError(f"importing implalg failed:\n{proc.stderr}")
    return times, refs


def run_child(workload: str, seed: int, seconds: int, trace: int, env: dict,
              deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish within the run deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} process failed (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def git_commit():
    """HEAD of the checkout, read from its own .git only; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(rec: dict, setup: list[float]) -> dict:
    """Medians of host-speed-normalised times (see hostspeed.py)."""
    walls = rec["norm_walls"]
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rec["peak_rss_mb"],
        "results_per_s": statistics.median(r / w for r, w in zip(rec["results"], walls)),
    }


def op_latency(op: str, op_ms: list[float]) -> dict:
    """Median and tail latency of the workload's operations, named after them
    (claim_p90_ms, table_p99_ms) with the tail picked by ``tail_percentile``."""
    tail = tail_percentile(len(op_ms))
    out = {f"{op}_p50_ms": percentile(op_ms, 50)} if op_ms else {}
    if tail and tail != 50:
        out[f"{op}_p{tail:g}_ms"] = percentile(op_ms, tail)
    return out


def run_workload(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> int:
    deadline = time.monotonic() + RUN_DEADLINE_S
    why = {w["name"]: w["why"] for w in spec["workloads"]}[workload]
    load_before = os.getloadavg()
    env = child_env(seed)
    setup_raw, setup_refs = setup_times(env, deadline)
    setup = normalised(setup_raw, setup_refs)
    rec = run_child(workload, seed, seconds, trace, env, deadline)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = {}
    if rec["walls"] and (rec.get("layers") or not trace):
        values = rec["layers"] if trace else end_to_end(rec, setup)
    attempted, failed = max(rec["attempted"], 1), rec["failed"]
    latency = op_latency(rec["op"], rec["op_ms"])
    report = {
        "workload": workload,
        "why": why,
        "seed": seed,
        "hash_seed": hash_seed(seed),
        "trace": trace,
        "passes": len(rec["walls"]),
        "pass_walls_s": rec["walls"],
        "normalised_pass_walls_s": rec["norm_walls"],
        "ref_nominal_s": REF_NOMINAL_S,
        "op": rec["op"],
        "op_samples": len(rec["op_ms"]),
        "op_latency": latency,
        "failed_frac": failed / attempted,
        "failures": rec["failures"],
        "setup_runs_s": setup_raw,
        "setup_refs_s": setup_refs,
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
            "python": platform.python_version(),
            "numpy": rec["numpy"],
            "commit": git_commit(),
        },
    }
    if trace:
        report.update(
            traced_pass_walls_s=rec.get("traced_walls", []),
            layer_shares=rec.get("layer_shares", {}),
            layer_moves={m["name"]: LAYER_MOVES[m["name"]] for m in wanted},
        )
    print(f"# {workload} (seed {seed}, {report['passes']} passes): {why}")
    for m in wanted:
        if m["name"] in values:
            print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    if not trace:
        for name, value in latency.items():
            print(f"{name} = {value:.6g} ms ({len(rec['op_ms'])} {rec['op']}s, not gated)")
    print(f"failed_frac = {report['failed_frac']:.6g} ({failed} of {attempted})")
    for line in rec["failures"]:
        print(f"FAILED: {line}")
    print(json.dumps({"report": report}))
    correct = failed == 0 and len(values) > 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in values},
    }
    if correct and len(result["metrics"]) != len(wanted):
        raise BenchError("a metric of BENCHMARK.json has no value")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run the implalg benchmark.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in (BENCHMARK, ROOT / "src" / "implalg", ROOT / "tests" / "oracle.py")
               if not p.exists()]
    if missing:
        print(f"error: not a checkout of implalg, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    names = [w["name"] for w in spec["workloads"]]
    todo = names if args.workload == "all" else [args.workload]
    if not set(todo) <= set(names) or args.seconds < 1:
        ap.error(f"--workload must be one of {', '.join(names)} or all; --seconds >= 1")
    status = 0
    for name in todo:
        try:
            status = max(status, run_workload(spec, name, args.seed, args.seconds, args.trace))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
