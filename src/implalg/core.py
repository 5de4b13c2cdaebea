"""Shared domain types for the implication-algebra workbench.

An algebra here is a finite Cayley table for a binary operation ``->`` on
elements ``0..n-1`` with a distinguished constant 1 pinned to index ``n-1``.
Everything downstream (property evaluation, classification, search) works on
these immutable tables; this module has no I/O and no search logic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

__all__ = [
    "PropertyId",
    "BOUNDED_PROPS",
    "CORE_PROPS",
    "SIGNATURE_PROPS",
    "Table",
    "Witness",
    "EvalResult",
    "PropertySignature",
    "ClassDef",
    "Claim",
    "default_names",
]


class PropertyId(enum.Enum):
    """ASCII tags for the axioms; ``Star``/``StarStar`` stand for (*)/(**),
    ``P1``/``P2`` for (p-1)/(p-2).  ``MP`` is an alias verdict of ``N``."""

    An = "An"
    B = "B"
    BB = "BB"
    Star = "Star"
    StarStar = "StarStar"
    C = "C"
    D = "D"
    Ex = "Ex"
    K = "K"
    L = "L"
    M = "M"
    N = "N"
    Re = "Re"
    S = "S"
    Tr = "Tr"
    U = "U"
    MP = "MP"
    Pi = "Pi"
    Pimpl = "Pimpl"
    P1 = "P1"
    P2 = "P2"
    DN = "DN"
    G1 = "G1"
    G2 = "G2"
    G3 = "G3"
    G4 = "G4"
    G5 = "G5"
    G6 = "G6"
    G7 = "G7"
    G8 = "G8"

    def __str__(self) -> str:
        return self.value

    @property
    def bounded_only(self) -> bool:
        return self in BOUNDED_PROPS

    @classmethod
    def parse(cls, token: str) -> "PropertyId":
        try:
            return cls(token)
        except ValueError:
            raise KeyError(f"unknown property name: {token!r}") from None


#: Properties defined only on bounded tables (need a unique zero and (L)).
BOUNDED_PROPS = frozenset(
    {
        PropertyId.DN,
        PropertyId.G1,
        PropertyId.G2,
        PropertyId.G3,
        PropertyId.G4,
        PropertyId.G5,
        PropertyId.G6,
        PropertyId.G7,
        PropertyId.G8,
    }
)

#: Independently evaluated non-bounded properties (MP excluded: alias of N).
CORE_PROPS = tuple(
    p for p in PropertyId if p not in BOUNDED_PROPS and p is not PropertyId.MP
)

#: Bit layout of PropertySignature: core properties first, bounded ones after.
SIGNATURE_PROPS = CORE_PROPS + tuple(sorted(BOUNDED_PROPS, key=lambda p: p.value))

_BIT_INDEX = {p: i for i, p in enumerate(SIGNATURE_PROPS)}
_BIT_INDEX[PropertyId.MP] = _BIT_INDEX[PropertyId.N]


def signature_bit(prop: PropertyId) -> int:
    """Bit position of ``prop`` in PropertySignature.bits (MP maps to N)."""
    return _BIT_INDEX[prop]


def signature_mask(props: Iterable[PropertyId]) -> int:
    """The PropertySignature.bits mask with the bits of ``props`` set."""
    return sum(1 << b for b in {_BIT_INDEX[p] for p in props})


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def default_names(n: int) -> tuple[str, ...]:
    """a, b, c, ... with the constant named "1" last."""
    if n < 1:
        raise ValueError("table size must be >= 1")
    if n - 1 > len(_LETTERS):
        raise ValueError(f"no default names for size {n}")
    return tuple(_LETTERS[: n - 1]) + ("1",)


@dataclass(frozen=True)
class Table:
    """A labeled Cayley table: ``cells[x][y]`` is the value of ``x -> y``.

    The constant 1 is always the element of index ``size - 1`` and its display
    name is always ``"1"``.  Names are cosmetic; semantics live in ``cells``.
    """

    cells: tuple[tuple[int, ...], ...]
    names: tuple[str, ...]

    @staticmethod
    def make(rows: Iterable[Iterable[int]], names: Optional[Sequence[str]] = None) -> "Table":
        cells = tuple(tuple(row) for row in rows)
        n = len(cells)
        if names is None:
            names = default_names(n)
        t = Table(cells, tuple(names))
        t.validate()
        return t

    @property
    def size(self) -> int:
        return len(self.cells)

    @property
    def one(self) -> int:
        return len(self.cells) - 1

    def arrow(self, x: int, y: int) -> int:
        return self.cells[x][y]

    def validate(self) -> None:
        n = self.size
        if n < 1:
            raise ValueError("empty table")
        if len(self.names) != n or len(set(self.names)) != n:
            raise ValueError("names must be distinct and match table size")
        if self.names[-1] != "1":
            raise ValueError('last element must be named "1"')
        for row in self.cells:
            if len(row) != n:
                raise ValueError("table is not square")
            for v in row:
                if not 0 <= v < n:
                    raise ValueError(f"cell value {v} out of range for size {n}")

    def format_assignment(self, assignment: Sequence[int]) -> str:
        return "(" + ",".join(self.names[e] for e in assignment) + ")"

    def __str__(self) -> str:
        width = max(len(s) for s in self.names)
        rows = []
        for x in range(self.size):
            rows.append(
                " ".join(self.names[self.cells[x][y]].rjust(width) for y in range(self.size))
            )
        return "\n".join(rows)


#: A violating assignment, in the property's printed variable order (x, y, z).
Witness = tuple[int, ...]


@dataclass(frozen=True)
class EvalResult:
    """Verdict of one property on one table.

    ``applicable`` is False only for bounded-only properties on tables that
    are not bounded; in that case ``satisfied`` carries no meaning.
    """

    property: PropertyId
    satisfied: bool
    witness: Optional[Witness] = None
    applicable: bool = True

    def __post_init__(self):
        if self.satisfied and self.witness is not None:
            raise ValueError("satisfied verdicts carry no witness")


@dataclass(frozen=True)
class PropertySignature:
    """One bit per independently evaluated property (see SIGNATURE_PROPS).

    Bits of bounded-only properties are meaningful only when ``bounded`` is
    True.  ``zero`` is the unique least element when one exists (regardless of
    boundedness, which additionally requires (L)).
    """

    bits: int
    bounded: bool
    zero: Optional[int]

    def has(self, prop: PropertyId) -> bool:
        if prop.bounded_only and not self.bounded:
            raise ValueError(f"{prop} bit is meaningless on a non-bounded table")
        return bool(self.bits >> signature_bit(prop) & 1)


@dataclass(frozen=True)
class ClassDef:
    """A named algebra class: membership = required properties all satisfied.

    ``proper_forbidden`` lists the properties that must in addition FAIL for
    the class's proper variant; None when no proper variant is defined.
    ``is_member`` and ``is_proper`` test signature bits against the class's
    masks; they take an int (``PropertySignature.bits``) or a uint64 array.
    """

    id: str
    required: frozenset[PropertyId]
    proper_forbidden: Optional[frozenset[PropertyId]] = None
    doc: str = ""

    def __post_init__(self):
        if not self.required:
            raise ValueError(f"class {self.id} has an empty required set")
        if self.proper_forbidden and self.required & self.proper_forbidden:
            raise ValueError(f"class {self.id}: required and forbidden sets overlap")

    @cached_property
    def required_mask(self) -> int:
        return signature_mask(self.required)

    @cached_property
    def forbidden_mask(self) -> int:
        return signature_mask(self.proper_forbidden or ())

    def is_member(self, bits):
        return (bits & self.required_mask) == self.required_mask

    def is_proper(self, bits):
        """Member with every forbidden property failing (the caller checks
        that a proper variant is defined); the two sets are disjoint."""
        return (bits & (self.required_mask | self.forbidden_mask)) == self.required_mask


class ClaimStatus(enum.Enum):
    THEOREM = "theorem"
    NON_IMPLICATION = "non-implication"


@dataclass(frozen=True)
class Claim:
    """A checkable statement: hypotheses entail (or fail to entail) conclusions.

    ``kind``:
      * ``implies``     - every table satisfying ``hypotheses`` satisfies all
                          of ``conclusions``;
      * ``equiv``       - under ``hypotheses`` the two ``conclusions`` are
                          equivalent (checked in both directions);
      * ``proper_empty``- no table is a proper member of ``proper_class`` while
                          satisfying all of ``conclusions``.
    ``bounded_only`` restricts the quantification to bounded tables.
    For NON_IMPLICATION claims a counterexample (hypotheses hold, some
    conclusion fails) must exist at size <= ``paper_size``.
    """

    id: str
    hypotheses: frozenset[PropertyId]
    conclusions: tuple[PropertyId, ...]
    kind: str = "implies"
    status: ClaimStatus = ClaimStatus.THEOREM
    bounded_only: bool = False
    proper_class: Optional[str] = None
    paper_size: Optional[int] = None
    citation: str = ""

    def __post_init__(self):
        if self.kind not in ("implies", "equiv", "proper_empty"):
            raise ValueError(f"bad claim kind {self.kind}")
        if self.kind == "equiv" and len(self.conclusions) != 2:
            raise ValueError("equiv claims take exactly two conclusions")
        if self.kind == "proper_empty" and not self.proper_class:
            raise ValueError("proper_empty claims need a class id")
