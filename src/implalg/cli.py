"""Command-line frontend: check, classify, enumerate, census, claims, corpus, find.

Exit codes: 0 success, 1 expectation/claim failure, 2 usage or parse error
(a worker count below 1 from ``--jobs`` or ALG_JOBS included), 3 size limit
exceeded.  ``--jobs`` controls search parallelism only; single
table commands always run serially.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .classes import REGISTRY, UnknownClass
from .core import BOUNDED_PROPS, PropertyId, Table
from .corpus import run_regression
from .io import ParseError, emit_table, parse_table
from .props import eval_all, eval_bounded_property, eval_property
from .search import (
    BaseConstraint,
    CensusReport,
    SizeTooLarge,
    UnsupportedFilter,
    census,
    enumerate_tables,
    find_minimal_model,
)

EXIT_OK = 0
EXIT_EXPECTATION = 1
EXIT_USAGE = 2
EXIT_TOO_LARGE = 3


def _worker_count(jobs: Optional[int]) -> int:
    """``--jobs``, else ALG_JOBS, else the CPU count; a ValueError naming
    its source when ``--jobs`` or ALG_JOBS is no integer >= 1."""
    if jobs is not None:
        if jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {jobs}")
        return jobs
    env = os.environ.get("ALG_JOBS")
    if not env:
        return os.cpu_count() or 1
    try:
        jobs = int(env)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ValueError(f"ALG_JOBS must be an integer >= 1, got {env!r}")
    return jobs


def _load_table(path: str) -> Table:
    with open(path) as f:
        return parse_table(f.read())


def _parse_props(tokens) -> list[PropertyId]:
    out = []
    for tok in tokens:
        for part in tok.replace(",", " ").split():
            out.append(PropertyId.parse(part))
    return out


def _result_line(table: Table, res) -> str:
    if not res.applicable:
        return f"{res.property}: not applicable (unbounded)"
    if res.satisfied:
        return f"{res.property}: satisfied"
    return f"{res.property}: violated at {table.format_assignment(res.witness)}"


def cmd_check(args) -> int:
    table = _load_table(args.file)
    props = _parse_props(args.props) if args.props else list(PropertyId)
    results = []
    for prop in props:
        if prop in BOUNDED_PROPS:
            results.append(eval_bounded_property(table, prop))
        else:
            results.append(eval_property(table, prop))
    if args.format == "structured":
        record = {
            "file": args.file,
            "results": [
                {
                    "property": r.property.value,
                    "applicable": r.applicable,
                    "satisfied": r.satisfied if r.applicable else None,
                    "witness": list(r.witness) if r.witness else None,
                }
                for r in results
            ],
        }
        print(json.dumps(record))
    else:
        for r in results:
            print(_result_line(table, r))
    return EXIT_OK


def cmd_classify(args) -> int:
    table = _load_table(args.file)
    sig = eval_all(table)
    members = [d.id for d in REGISTRY.defs if d.is_member(sig.bits)]
    proper = [
        d.id for d in REGISTRY.defs if d.proper_forbidden is not None and d.is_proper(sig.bits)
    ]
    if args.format == "structured":
        record = {"file": args.file, "members": members}
        if args.proper:
            record["proper"] = proper
        print(json.dumps(record))
        return EXIT_OK
    print(f"members ({len(members)}): " + " ".join(members))
    if args.proper:
        print(f"proper ({len(proper)}): " + " ".join(proper))
        for cid in proper:
            print(f"proper {cid}:")
            for prop in sorted(REGISTRY.get(cid).proper_forbidden, key=lambda p: p.value):
                res = eval_property(table, prop)
                print("  " + _result_line(table, res))
    return EXIT_OK


def _census_text(report: CensusReport) -> str:
    head = (
        f"census size={report.size} base={report.base.value}"
        + (f" filter={','.join(p.value for p in report.filter)}" if report.filter else "")
        + f" total={report.total} classified={report.classified} elapsed={report.elapsed:.2f}s"
    )
    lines = [head, f"{'class':<18}{'members':>10}{'proper':>10}"]
    for d in REGISTRY.defs:
        members = report.per_class[d.id]
        proper = report.per_proper.get(d.id)
        lines.append(f"{d.id:<18}{members:>10}{proper if proper is not None else '-':>10}")
    return "\n".join(lines)


def _check_expectations(report: CensusReport, path: str) -> list[str]:
    with open(path) as f:
        expect = json.load(f)
    problems = []
    if "total" in expect and expect["total"] != report.total:
        problems.append(f"total: got {report.total}, expected {expect['total']}")
    for key, store in (("per_class", report.per_class), ("per_proper", report.per_proper)):
        for cid, want in expect.get(key, {}).items():
            got = store.get(cid)
            if got != want:
                problems.append(f"{key}[{cid}]: got {got}, expected {want}")
    return problems


def cmd_census(args) -> int:
    base = BaseConstraint.parse(args.base)
    filter_props = _parse_props(args.filter) if args.filter else ()
    report = census(args.size, base, filter=filter_props, jobs=args.jobs)
    out = json.dumps(report.to_record()) if args.format == "structured" else _census_text(report)
    if args.out:
        with open(args.out, "w") as f:
            f.write(out + "\n")
    if not args.quiet:
        print(out)
    if args.expect:
        problems = _check_expectations(report, args.expect)
        if problems:
            for p in problems:
                print("expectation failed: " + p, file=sys.stderr)
            return EXIT_EXPECTATION
    return EXIT_OK


def cmd_enumerate(args) -> int:
    base = BaseConstraint.parse(args.base)
    filter_props = _parse_props(args.filter) if args.filter else None
    sink = open(args.out, "w") if args.out else (None if args.count_only else sys.stdout)
    visitor = None
    if sink is not None:
        def visitor(table):
            sink.write(emit_table(table, "json") + "\n")

    try:
        count = enumerate_tables(args.size, base, filter_props, visitor)
    finally:
        if args.out and sink is not None:
            sink.close()
    if not args.quiet:
        print(f"count: {count}", file=sys.stderr if sink is sys.stdout else sys.stdout)
    return EXIT_OK


def cmd_claims(args) -> int:
    from . import claims as claims_mod
    from .core import ClaimStatus

    budgets = {}
    if args.claim:
        todo = [claims_mod.claim_by_id(args.claim)]
        if args.max_size is not None:
            budgets[args.claim] = args.max_size
    else:
        # verify runs the theorem claims, refute the non-implications
        wanted = (
            ClaimStatus.NON_IMPLICATION if args.mode == "refute" else ClaimStatus.THEOREM
        )
        todo = [c for c in claims_mod.CLAIMS if c.status is wanted]
        if args.max_size is not None:
            budgets = {c.id: min(args.max_size, claims_mod.default_max_size(c)) for c in todo}
    report = claims_mod.verify_all(budgets, todo, jobs=args.jobs)
    if args.format == "structured":
        print(json.dumps(report.to_record()))
    elif not args.quiet:
        print(report.format_text())
    return EXIT_OK if report.ok else EXIT_EXPECTATION


def cmd_corpus(args) -> int:
    report = run_regression()
    if args.format == "structured":
        print(json.dumps(report.to_record()))
    elif not args.quiet:
        print(report.format_text())
    return EXIT_OK if not report.implementation_failures else EXIT_EXPECTATION


def cmd_find(args) -> int:
    extra = _parse_props(args.extra) if args.extra else ()
    table = find_minimal_model(args.klass, args.max_size, proper=args.proper, extra=extra)
    if args.format == "structured":
        print(
            json.dumps(
                {
                    "class": args.klass,
                    "proper": args.proper,
                    "max_size": args.max_size,
                    "found": json.loads(emit_table(table, "json")) if table else None,
                }
            )
        )
        return EXIT_OK
    if table is None:
        print(f"none up to size {args.max_size}")
    else:
        print(emit_table(table, "text"), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="implalg",
        description="finite-model workbench for implication algebras (A, ->, 1)",
    )
    parser.add_argument("--jobs", type=int, default=None, help="worker count for searches")
    parser.add_argument("--format", choices=["text", "structured"], default="text")
    parser.add_argument("--quiet", action="store_true")
    # accept the global flags after the subcommand as well
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--jobs", type=int, default=argparse.SUPPRESS)
    common.add_argument("--format", choices=["text", "structured"], default=argparse.SUPPRESS)
    common.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate properties on a table file", parents=[common])
    p.add_argument("file")
    p.add_argument("--props", nargs="+", help="property names (default: all)")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("classify", help="list the classes a table belongs to", parents=[common])
    p.add_argument("file")
    p.add_argument("--proper", action="store_true", help="also check proper variants")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("census", help="classify a whole enumeration space", parents=[common])
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--base", default="RM", help="ANY, RM, or RML")
    p.add_argument("--filter", nargs="+", help="restrict to tables satisfying these properties")
    p.add_argument("--out", help="also write the report to this file")
    p.add_argument("--expect", help="JSON file with expected counts; exit 1 on mismatch")
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("enumerate", help="stream tables of a constrained space", parents=[common])
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--base", default="RM")
    p.add_argument("--filter", nargs="+")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--out", help="write newline-delimited records here")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("claims", help="verify the claim registry by search", parents=[common])
    p.add_argument("mode", choices=["verify", "refute"])
    p.add_argument("--claim", help="single claim id (default: all)")
    p.add_argument("--max-size", type=int)
    p.set_defaults(fn=cmd_claims)

    p = sub.add_parser("corpus", help="regression-test the transcribed examples", parents=[common])
    p.add_argument("mode", choices=["test"])
    p.set_defaults(fn=cmd_corpus)

    p = sub.add_parser("find", help="smallest model of a class", parents=[common])
    p.add_argument("--class", dest="klass", required=True)
    p.add_argument("--proper", action="store_true")
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--extra", nargs="+", help="additional required properties")
    p.set_defaults(fn=cmd_find)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.jobs = _worker_count(args.jobs)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as e:
        print(f"cannot read {e.filename}", file=sys.stderr)
        return EXIT_USAGE
    except (KeyError, UnknownClass, UnsupportedFilter) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SizeTooLarge as e:
        print(f"size limit: {e}", file=sys.stderr)
        return EXIT_TOO_LARGE


if __name__ == "__main__":
    sys.exit(main())
