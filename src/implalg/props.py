"""Property evaluation on Cayley tables.

Every axiom is stored once as a small term tree (variables, the constant 1,
the zero of a bounded table, and the arrow operation) plus a formula shape:
an equation, a Horn conditional, or a biconditional.  The same definition
drives three consumers:

  * scalar verdicts with lexicographically least violating witnesses,
  * batch evaluation over many tables at once (numpy, used by the census
    and by every search leaf check),
  * instance compilation for the pruned enumerator (see search module).

Witnesses are reported in the property's printed variable order (x, y, z),
scanning x outermost, and elements in index order (the constant 1 last).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    BOUNDED_PROPS,
    CORE_PROPS,
    EvalResult,
    PropertyId,
    PropertySignature,
    Table,
    Witness,
    signature_bit,
)

__all__ = [
    "Formula",
    "FORMULAS",
    "eval_property",
    "eval_bounded_property",
    "eval_all",
    "find_zero",
    "find_zero_bulk",
    "signature_bits_bulk",
    "needed_props",
]

# Term trees: ("var", k) with k in 0..2 for x,y,z; ("one",); ("zero",);
# ("arrow", t1, t2).  Kept as plain tuples so they hash and compare cheaply.
X = ("var", 0)
Y = ("var", 1)
Z = ("var", 2)
ONE = ("one",)
ZERO = ("zero",)


def arr(a, b):
    return ("arrow", a, b)


@dataclass(frozen=True)
class Formula:
    """One axiom: universally quantified over ``arity`` variables.

    kind:
      * ``eq``   - conclusion equation must hold for every assignment;
      * ``horn`` - conclusion must hold whenever all premises hold;
      * ``iff``  - the two conclusion terms must be =1-equivalent.
    Premises and conclusion are pairs of terms compared for equality
    (an "=1" condition is just comparison against the ONE term).
    """

    prop: PropertyId
    arity: int
    kind: str
    premises: tuple
    conclusion: tuple

    @property
    def uses_zero(self) -> bool:
        def walk(t):
            if t[0] == "zero":
                return True
            if t[0] == "arrow":
                return walk(t[1]) or walk(t[2])
            return False

        terms = [t for pair in self.premises for t in pair]
        terms += list(self.conclusion)
        return any(walk(t) for t in terms)

    def holds_at(self, table: Table, assignment: Sequence[int], zero: Optional[int] = None) -> bool:
        """Evaluate this formula at one concrete assignment (total)."""
        cells = table.cells

        def ev(t):
            k = t[0]
            if k == "var":
                return assignment[t[1]]
            if k == "one":
                return table.one
            if k == "zero":
                if zero is None:
                    raise ValueError(f"{self.prop} needs a zero element")
                return zero
            return cells[ev(t[1])][ev(t[2])]

        if self.kind == "iff":
            (ta, tb) = self.conclusion
            return (ev(ta) == table.one) == (ev(tb) == table.one)
        for (ta, tb) in self.premises:
            if ev(ta) != ev(tb):
                return True  # vacuously satisfied
        ta, tb = self.conclusion
        return ev(ta) == ev(tb)


def _eq(prop, arity, term):
    return Formula(prop, arity, "eq", (), (term, ONE))


def _eqt(prop, arity, t1, t2):
    return Formula(prop, arity, "eq", (), (t1, t2))


def _horn(prop, arity, premises, conclusion):
    return Formula(prop, arity, "horn", tuple(premises), conclusion)


NEG_X = arr(X, ZERO)
NEG_Y = arr(Y, ZERO)

FORMULAS: dict[PropertyId, Formula] = {
    f.prop: f
    for f in [
        _horn(PropertyId.An, 2, [(arr(X, Y), ONE), (arr(Y, X), ONE)], (X, Y)),
        _eq(PropertyId.B, 3, arr(arr(Y, Z), arr(arr(X, Y), arr(X, Z)))),
        _eq(PropertyId.BB, 3, arr(arr(Y, Z), arr(arr(Z, X), arr(Y, X)))),
        _horn(PropertyId.Star, 3, [(arr(Y, Z), ONE)], (arr(arr(X, Y), arr(X, Z)), ONE)),
        _horn(PropertyId.StarStar, 3, [(arr(Y, Z), ONE)], (arr(arr(Z, X), arr(Y, X)), ONE)),
        _eq(PropertyId.C, 3, arr(arr(X, arr(Y, Z)), arr(Y, arr(X, Z)))),
        _eq(PropertyId.D, 2, arr(Y, arr(arr(Y, X), X))),
        _eqt(PropertyId.Ex, 3, arr(X, arr(Y, Z)), arr(Y, arr(X, Z))),
        _eq(PropertyId.K, 2, arr(X, arr(Y, X))),
        _eq(PropertyId.L, 1, arr(X, ONE)),
        _eqt(PropertyId.M, 1, arr(ONE, X), X),
        _horn(PropertyId.N, 1, [(arr(ONE, X), ONE)], (X, ONE)),
        _eq(PropertyId.Re, 1, arr(X, X)),
        _horn(PropertyId.S, 2, [(X, Y)], (arr(X, Y), ONE)),
        _horn(PropertyId.Tr, 3, [(arr(X, Y), ONE), (arr(Y, Z), ONE)], (arr(X, Z), ONE)),
        _eqt(PropertyId.U, 2, arr(arr(arr(Y, X), X), X), arr(Y, X)),
        _eqt(PropertyId.Pi, 2, arr(Y, arr(Y, X)), arr(Y, X)),
        _eqt(PropertyId.Pimpl, 3, arr(X, arr(Y, Z)), arr(arr(X, Y), arr(X, Z))),
        _eq(PropertyId.P1, 3, arr(arr(X, arr(Y, Z)), arr(arr(X, Y), arr(X, Z)))),
        _eq(PropertyId.P2, 3, arr(arr(arr(X, Y), arr(X, Z)), arr(X, arr(Y, Z)))),
        _eqt(PropertyId.DN, 1, arr(NEG_X, ZERO), X),
        _eqt(PropertyId.G1, 2, arr(X, NEG_Y), arr(Y, NEG_X)),
        _eqt(PropertyId.G2, 2, arr(X, Y), arr(NEG_Y, NEG_X)),
        _eqt(PropertyId.G3, 2, arr(NEG_Y, X), arr(NEG_X, Y)),
        _eq(PropertyId.G4, 1, arr(X, arr(NEG_X, ZERO))),
        _eq(PropertyId.G5, 2, arr(arr(X, Y), arr(NEG_Y, NEG_X))),
        _horn(PropertyId.G6, 2, [(arr(X, Y), ONE)], (arr(NEG_Y, NEG_X), ONE)),
        Formula(PropertyId.G7, 2, "iff", (), (arr(X, Y), arr(NEG_Y, NEG_X))),
        _eqt(PropertyId.G8, 1, arr(arr(NEG_X, ZERO), ZERO), NEG_X),
    ]
}
FORMULAS[PropertyId.MP] = FORMULAS[PropertyId.N]


# ---------------------------------------------------------------------------
# Batch evaluation engine.
#
# Tables come in as an int array of shape (B, n, n); every formula is
# evaluated for all B tables and all n^arity assignments in one broadcasted
# pass.  Assignment axes are (x, y, z) after the batch axis, so C-order over
# the violation mask is exactly the lexicographic witness order.
# ---------------------------------------------------------------------------


def _term_values(term, T, axes, batch_idx, one, zero_arr):
    k = term[0]
    if k == "var":
        return axes[term[1]]
    if k == "one":
        return one
    if k == "zero":
        if zero_arr is None:
            raise ValueError("formula needs a zero element")
        return zero_arr
    a = _term_values(term[1], T, axes, batch_idx, one, zero_arr)
    b = _term_values(term[2], T, axes, batch_idx, one, zero_arr)
    return T[batch_idx, a, b]


def _violation_mask(formula: Formula, T: np.ndarray, zero_arr=None) -> np.ndarray:
    """Boolean array (B, n, ..n) of assignments violating ``formula``."""
    B, n, _ = T.shape
    arity = formula.arity
    axes = []
    for k in range(arity):
        shape = [1] * (arity + 1)
        shape[k + 1] = n
        axes.append(np.arange(n).reshape(shape))
    batch_idx = np.arange(B).reshape((B,) + (1,) * arity)
    if zero_arr is not None:
        zero_arr = np.asarray(zero_arr).reshape((B,) + (1,) * arity)
    one = n - 1

    def ev(t):
        return _term_values(t, T, axes, batch_idx, one, zero_arr)

    if formula.kind == "iff":
        ta, tb = formula.conclusion
        viol = (ev(ta) == one) != (ev(tb) == one)
    else:
        ta, tb = formula.conclusion
        viol = ev(ta) != ev(tb)
        for (pa, pb) in formula.premises:
            viol = viol & (ev(pa) == ev(pb))
    # Broadcast up in case no term touched some axis (constant formulas).
    full = np.broadcast_to(viol, (B,) + (n,) * arity)
    return full


def _first_witness(viol_row: np.ndarray, arity: int, n: int) -> Optional[Witness]:
    flat = np.flatnonzero(viol_row)
    if flat.size == 0:
        return None
    return tuple(int(v) for v in np.unravel_index(flat[0], (n,) * arity))


def find_zero(table: Table) -> Optional[tuple[int, bool]]:
    """Unique element whose row is all 1, with the boundedness flag.

    Returns None when no zero exists or several rows qualify; bounded means
    a zero exists and (L) holds.
    """
    n = table.size
    one = table.one
    zeros = [z for z in range(n) if all(v == one for v in table.cells[z])]
    if len(zeros) != 1:
        return None
    l_holds = all(table.cells[x][one] == one for x in range(n))
    return zeros[0], l_holds


def find_zero_bulk(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``find_zero`` over a (B, n, n) batch: ``(zero, bounded)`` arrays.

    ``bounded[b]`` holds when table b has exactly one all-1 row and (L)
    holds; ``zero[b]`` is then that row's index (elsewhere it is a valid
    index with no meaning).
    """
    one = T.shape[1] - 1
    full = (T == one).all(axis=2)
    bounded = (full.sum(axis=1) == 1) & (T[:, :, one] == one).all(axis=1)
    return full.argmax(axis=1), bounded


def eval_property(table: Table, prop: PropertyId) -> EvalResult:
    """Verdict of a non-bounded property with the least violating witness."""
    if prop in BOUNDED_PROPS:
        raise ValueError(f"{prop} is defined on bounded tables only; use eval_bounded_property")
    formula = FORMULAS[prop]
    T = np.asarray([table.cells], dtype=np.int64)
    viol = _violation_mask(formula, T)[0]
    witness = _first_witness(viol, formula.arity, table.size)
    if witness is None:
        return EvalResult(prop, True)
    return EvalResult(prop, False, witness)


def eval_bounded_property(table: Table, prop: PropertyId) -> EvalResult:
    """Verdict of DN or G1..G8; inapplicable on non-bounded tables."""
    if prop not in BOUNDED_PROPS:
        raise ValueError(f"{prop} is not a bounded-only property")
    zb = find_zero(table)
    if zb is None or not zb[1]:
        return EvalResult(prop, False, None, applicable=False)
    zero = zb[0]
    formula = FORMULAS[prop]
    T = np.asarray([table.cells], dtype=np.int64)
    viol = _violation_mask(formula, T, zero_arr=[zero])[0]
    witness = _first_witness(viol, formula.arity, table.size)
    if witness is None:
        return EvalResult(prop, True)
    return EvalResult(prop, False, witness)


def eval_all(table: Table) -> PropertySignature:
    """Full signature: one bit per core property, plus the bounded block."""
    T = np.asarray([table.cells], dtype=np.int64)
    bits = 0
    for prop in CORE_PROPS:
        viol = _violation_mask(FORMULAS[prop], T)
        if not viol.any():
            bits |= 1 << signature_bit(prop)
    zb = find_zero(table)
    zero = zb[0] if zb else None
    bounded = bool(zb and zb[1])
    if bounded:
        for prop in BOUNDED_PROPS:
            viol = _violation_mask(FORMULAS[prop], T, zero_arr=[zero])
            if not viol.any():
                bits |= 1 << signature_bit(prop)
    return PropertySignature(bits=bits, bounded=bounded, zero=zero)


def needed_props(*prop_sets) -> tuple[PropertyId, ...]:
    """Deduplicated core properties drawn from the given sets, in bit order."""
    wanted = set()
    for s in prop_sets:
        wanted.update(s)
    return tuple(p for p in CORE_PROPS if p in wanted)


def signature_bits_bulk(T: np.ndarray, props: Sequence[PropertyId]) -> np.ndarray:
    """Signature bits of many tables at once (core properties only).

    ``T`` is (B, n, n) int; the result is a uint64 bit array laid out exactly
    like PropertySignature.bits so class masks apply directly.
    """
    B = T.shape[0]
    bits = np.zeros(B, dtype=np.uint64)
    for prop in props:
        if prop in BOUNDED_PROPS:
            raise ValueError("bulk evaluation covers core properties only")
        formula = FORMULAS[prop]
        viol = _violation_mask(formula, T)
        ok = ~viol.reshape(B, -1).any(axis=1)
        bits |= ok.astype(np.uint64) << np.uint64(signature_bit(prop))
    return bits
