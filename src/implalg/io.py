"""Parsing and serialization of tables, plus the isomorphism utility.

Text format::

    # optional comments
    elements: a b 1
    1 1 a
    1 1 1
    a b 1

Line 1 declares element names (the constant must be named "1"); each data row
i lists the values of ``row_i -> col_j`` in declaration order.  The structured
format is a JSON record ``{"elements": [...], "table": [[...]]}``; enumeration
streams are newline-delimited records of this shape.
"""

from __future__ import annotations

import json
import warnings
from typing import Optional

import numpy as np

from .core import Table
from .props import relabelings

__all__ = [
    "ParseError",
    "DuplicateName",
    "MissingOne",
    "BadCell",
    "SizeMismatch",
    "parse_table",
    "parse_table_record",
    "emit_table",
    "are_isomorphic",
]


class ParseError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(message + where)


class DuplicateName(ParseError):
    pass


class MissingOne(ParseError):
    pass


class BadCell(ParseError):
    pass


class SizeMismatch(ValueError):
    pass


def _build(names: list[str], rows: list[list[str]], lines: Optional[list[int]] = None) -> Table:
    if len(set(names)) != len(names):
        raise DuplicateName(f"duplicate element names in {names}")
    if "1" not in names:
        raise MissingOne('element list must contain "1"')
    if names[-1] != "1":
        warnings.warn('reordering elements so that "1" comes last', stacklevel=3)
        order = [i for i, s in enumerate(names) if s != "1"] + [names.index("1")]
    else:
        order = list(range(len(names)))
    n = len(names)
    index = {names[i]: pos for pos, i in enumerate(order)}
    cells = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        line = lines[i] if lines else None
        if len(row) != n:
            raise ParseError(f"expected {n} cells, got {len(row)}", line)
        for j, tok in enumerate(row):
            if tok not in index:
                raise BadCell(f"cell value {tok!r} is not a declared element", line)
            cells[index[names[i]]][index[names[j]]] = index[tok]
    return Table(tuple(tuple(r) for r in cells), tuple(names[i] for i in order))


def parse_table(text: str) -> Table:
    """Parse the text format; comments (#) and blank lines are ignored."""
    names: Optional[list[str]] = None
    rows: list[list[str]] = []
    lines: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if names is None:
            if not stripped.startswith("elements:"):
                raise ParseError('first line must start with "elements:"', lineno)
            names = stripped[len("elements:") :].split()
            if not names:
                raise ParseError("empty element list", lineno)
            continue
        rows.append(stripped.split())
        lines.append(lineno)
    if names is None:
        raise ParseError("no content")
    if len(rows) != len(names):
        raise ParseError(f"expected {len(names)} rows, got {len(rows)}")
    return _build(names, rows, lines)


def parse_table_record(record) -> Table:
    """Parse the structured format (a dict or a JSON string)."""
    if isinstance(record, str):
        try:
            record = json.loads(record)
        except json.JSONDecodeError as e:
            raise ParseError(f"bad JSON: {e}") from None
    try:
        names = [str(s) for s in record["elements"]]
        rows = [[str(tok) for tok in row] for row in record["table"]]
    except (KeyError, TypeError) as e:
        raise ParseError(f"record needs elements/table keys: {e}") from None
    if len(rows) != len(names):
        raise ParseError(f"expected {len(names)} rows, got {len(rows)}")
    return _build(names, rows)


def emit_table(table: Table, format: str = "text") -> str:
    """Canonical serialization; parse(emit(t)) == t for both formats."""
    if format == "text":
        out = ["elements: " + " ".join(table.names)]
        for x in range(table.size):
            out.append(" ".join(table.names[v] for v in table.cells[x]))
        return "\n".join(out) + "\n"
    if format in ("structured", "json"):
        record = {
            "elements": list(table.names),
            "table": [[table.names[v] for v in row] for row in table.cells],
        }
        return json.dumps(record)
    raise ValueError(f"unknown format {format!r}")


def are_isomorphic(t1: Table, t2: Table) -> bool:
    """True iff some bijection fixing 1 carries t1's operation onto t2's:
    t2 is one of the (n-1)! relabelings of t1, all built at once."""
    n = t1.size
    if t2.size != n:
        raise SizeMismatch(f"sizes differ: {n} vs {t2.size}")
    perms, src = relabelings(n)
    images = np.take_along_axis(perms, np.ravel(t1.cells)[src], axis=1)
    return bool((images == np.ravel(t2.cells)).all(axis=1).any())
