"""Run-time tracing of implalg's layers, installed from outside the package.

``Tracer.install`` rebinds the public entry points of each module, and the
search core ``search._dfs`` with the leaf callbacks passed to it, to thin
wrappers wherever ``implalg`` holds a reference to them, so the copies made
by ``from .x import f`` are caught too.  Every wrapped call becomes a span
``(layer, start, end, parent)`` kept in memory.  ``Formula.holds_at`` runs
millions of times per workload and is only counted and timed in aggregate.
``uninstall`` restores every original binding.

A layer's self time is its spans' duration minus the part of their interval
that child spans cover (``self_time``).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

from implalg import claims, classes, corpus, io, props, search

_perf = time.perf_counter

#: Layer of each wrapped module-level function.
FUNCTION_LAYERS = {
    props.signature_bits_bulk: "props.bulk",
    props.eval_all: "props.scalar",
    props.eval_property: "props.scalar",
    props.eval_bounded_property: "props.scalar",
    search._dfs: "search.dfs",
    search.compile_instances: "search.compile",
    search.census: "search.census",
    search.census_filtered: "search.census_filtered",
    search.enumerate_tables: "search.enumerate",
    search.find_minimal_model: "search.find_minimal_model",
    claims.verify_all: "claims.verify_all",
    claims.verify_claim: "claims.verify_claim",
    claims.refute: "claims.refute",
    classes.classify: "classes",
    classes.check_proper: "classes",
    io.parse_table: "io.parse",
    io.parse_table_record: "io.parse",
    corpus.load_corpus: "corpus.load",
    corpus.run_regression: "corpus.regression",
}

#: Layer of each wrapped method, keyed by (class, attribute).
METHOD_LAYERS = {
    (classes.ClassRegistry, "classify"): "classes",
    (classes.ClassRegistry, "is_member"): "classes",
    (classes.ClassRegistry, "is_proper"): "classes",
    (classes.ClassRegistry, "check_proper"): "classes",
}

_MARK = "_perfbench_layer"


def _implalg_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "implalg" or name.startswith("implalg."))]


@dataclass
class Span:
    layer: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level
    value: int = 0  # tables (props.bulk), instances (search.compile),
    #                 leaves (search.dfs) or checks (corpus.regression)

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        elif e > cur_end:
            cur_end = e
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, children) -> float:
    """``end - start`` minus the part of [start, end] the children cover."""
    clipped = [(max(s, start), min(e, end)) for s, e in children if e > start and s < end]
    return (end - start) - union_length(clipped)


def installed_wrappers() -> list[str]:
    """implalg bindings that currently point at a tracer wrapper."""
    found = []
    for module in _implalg_modules():
        found += [f"{module.__name__}.{a}" for a, v in vars(module).items() if hasattr(v, _MARK)]
    for cls in {cls for cls, _ in METHOD_LAYERS} | {props.Formula}:
        found += [f"{cls.__name__}.{a}" for a, v in vars(cls).items() if hasattr(v, _MARK)]
    return sorted(found)


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    holds_at_calls: int = 0
    holds_at_s: float = 0.0
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {fn: self._wrap(fn, layer) for fn, layer in FUNCTION_LAYERS.items()}
        for module in _implalg_modules():
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._rebind(module, attr, wrappers[value])
        for (cls, attr), layer in METHOD_LAYERS.items():
            self._rebind(cls, attr, self._wrap(vars(cls)[attr], layer))
        self._rebind(props.Formula, "holds_at", self._wrap_holds_at(props.Formula.holds_at))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _open(self, layer: str) -> Span:
        span = Span(layer, _perf(), 0.0, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = _perf()
        self._stack.pop()

    def _wrap(self, fn, layer: str):
        tracer = self

        def traced(*args, **kwargs):
            if layer == "search.dfs":
                args = tracer._with_traced_leaf(args)
            span = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if layer == "props.bulk":
                span.value = int(args[0].shape[0])
            elif layer == "search.compile":
                span.value = len(result)
            elif layer == "search.dfs":
                span.value = result
            elif layer == "corpus.regression":
                span.value = result.checks
            return result

        setattr(traced, _MARK, layer)
        traced.__name__ = fn.__name__
        return traced

    def _with_traced_leaf(self, args):
        """``_dfs(n, fixed, filter_props, leaf_fn, ...)`` with leaf_fn traced."""
        leaf_fn = args[3] if len(args) > 3 else None
        if leaf_fn is None:
            return args
        tracer = self

        def leaf(cells):
            span = tracer._open("search.leaf")
            try:
                return leaf_fn(cells)
            finally:
                tracer._close(span)

        return args[:3] + (leaf,) + args[4:]

    def _wrap_holds_at(self, fn):
        tracer = self

        def holds_at(formula, table, assignment, zero=None):
            t0 = _perf()
            try:
                return fn(formula, table, assignment, zero)
            finally:
                tracer.holds_at_s += _perf() - t0
                tracer.holds_at_calls += 1

        setattr(holds_at, _MARK, "props.holds_at")
        return holds_at

    # -- derived numbers ----------------------------------------------------

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("cannot reset inside an open span")
        self.spans = []
        self.holds_at_calls = 0
        self.holds_at_s = 0.0

    def layer_seconds(self, anc=None) -> dict[str, float]:
        """Inclusive seconds per layer; nested calls of one layer count once."""
        outer: dict[str, float] = {"props.holds_at": self.holds_at_s}
        for s, a in zip(self.spans, anc or self._ancestor_layers()):
            if s.layer not in a:
                outer[s.layer] = outer.get(s.layer, 0.0) + s.duration
        return outer

    def _ancestor_layers(self) -> list[tuple]:
        # A parent is always recorded before its children.
        anc: list[tuple] = []
        for s in self.spans:
            anc.append(() if s.parent < 0 else anc[s.parent] + (self.spans[s.parent].layer,))
        return anc

    def self_seconds(self, layer: str) -> float:
        spans = self.spans
        kids: dict[int, list] = {}
        for s in spans:
            if s.parent >= 0 and spans[s.parent].layer == layer:
                kids.setdefault(s.parent, []).append((s.start, s.end))
        return sum(self_time(s.start, s.end, kids.get(i, ()))
                   for i, s in enumerate(spans) if s.layer == layer)

    def layer_metrics(self, wall_s: float, scale: float) -> dict[str, float]:
        """The per-layer metrics of the spans recorded since ``reset``.
        Seconds are multiplied by ``scale``, the host-speed correction of
        the traced pass (normalised over raw pass time, see hostspeed.py);
        ``props.bulk.share`` is a share of the raw pass time ``wall_s``."""
        spans = self.spans
        anc = self._ancestor_layers()
        secs = self.layer_seconds(anc)

        def calls(layer):  # nested calls of one layer count once
            return sum(1 for s, a in zip(spans, anc) if s.layer == layer and layer not in a)

        def value(layer):
            return sum(s.value for s in spans if s.layer == layer)

        def seconds(layer):
            return secs.get(layer, 0.0) * scale

        claim_dfs = [s for s, a in zip(spans, anc)
                     if s.layer == "search.dfs" and any(x.startswith("claims.") for x in a)]
        outcome_s = [s.duration for s in spans if s.layer == "claims.verify_claim"]
        leaves = value("search.dfs")
        dfs_s = seconds("search.dfs")
        return {
            "props.bulk.calls": calls("props.bulk"),
            "props.bulk.tables": value("props.bulk"),
            "props.bulk.s": seconds("props.bulk"),
            "props.bulk.share": secs.get("props.bulk", 0.0) / wall_s,
            "props.scalar.calls": calls("props.scalar"),
            "props.scalar.s": seconds("props.scalar"),
            "props.holds_at.calls": self.holds_at_calls,
            "props.holds_at.s": seconds("props.holds_at"),
            "search.leaves": leaves,
            "search.leaves_per_s": leaves / dfs_s if dfs_s else 0.0,
            "search.dfs.self_s": self.self_seconds("search.dfs") * scale,
            "search.compile.calls": calls("search.compile"),
            "search.compile.instances": value("search.compile"),
            "search.compile.s": seconds("search.compile"),
            "search.leaf.calls": calls("search.leaf"),
            "search.leaf.s": seconds("search.leaf"),
            "search.materialise.s": self.self_seconds("search.census") * scale,
            "claims.outcomes": len(outcome_s),
            "claims.searches": len(claim_dfs),
            "claims.tables_examined": sum(s.value for s in claim_dfs),
            "claims.slowest_s": max(outcome_s, default=0.0) * scale,
            "classes.calls": calls("classes"),
            "classes.s": seconds("classes"),
            "io.parse.calls": calls("io.parse"),
            "io.parse.s": seconds("io.parse"),
            "corpus.load_s": seconds("corpus.load"),
            "corpus.regression_s": seconds("corpus.regression"),
            "corpus.checks": value("corpus.regression"),
        }
