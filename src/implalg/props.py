"""Property evaluation on Cayley tables.

Every axiom is stored once as a small term tree (variables, the constant 1,
the zero of a bounded table, and the arrow operation) plus a formula shape:
an equation, a Horn conditional, or a biconditional.  The same definition
drives two consumers:

  * the batch kernel ``_violation_mask``, which evaluates a formula over many
    tables and all assignments at once (numpy).  The census, every search
    leaf check and every scalar verdict go through it; a verdict on one table
    (``eval_property``, ``eval_all``, ``Formula.holds_at``, ``find_zero``) is
    a one-table batch;
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
        viol = _violation_mask(self, _one_batch(table), zero)
        return not viol[(0, *assignment)]


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
    """Boolean array (B, n, ..n) of assignments violating ``formula``.

    ``zero_arr`` gives each table's zero, for formulas that use it (a
    scalar when B is 1)."""
    B, n, _ = T.shape
    arity = formula.arity
    shape = (B,) + (n,) * arity
    batch_idx, *axes = np.indices(shape, sparse=True)
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
    return viol if viol.shape == shape else np.broadcast_to(viol, shape)


def _holds(formula: Formula, T: np.ndarray, zero_arr=None) -> np.ndarray:
    """Per table of the (B, n, n) batch: does ``formula`` hold at every
    assignment?"""
    return ~_violation_mask(formula, T, zero_arr).reshape(len(T), -1).any(axis=1)


def _first_witness(viol_row: np.ndarray, arity: int, n: int) -> Optional[Witness]:
    flat = np.flatnonzero(viol_row)
    if flat.size == 0:
        return None
    return tuple(int(v) for v in np.unravel_index(flat[0], (n,) * arity))


def _one_batch(table: Table) -> np.ndarray:
    return np.asarray([table.cells], dtype=np.int64)


def _zero_rows(T: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per table of the (B, n, n) batch: the index of its first all-1 row,
    whether that row is the only one, and whether (L) holds."""
    one = T.shape[1] - 1
    full = (T == one).all(axis=2)
    return full.argmax(axis=1), full.sum(axis=1) == 1, (T[:, :, one] == one).all(axis=1)


def find_zero(table: Table) -> Optional[tuple[int, bool]]:
    """Unique element whose row is all 1, with the boundedness flag.

    Returns None when no zero exists or several rows qualify; bounded means
    a zero exists and (L) holds.
    """
    zero, unique, l_holds = _zero_rows(_one_batch(table))
    return (int(zero[0]), bool(l_holds[0])) if unique[0] else None


def find_zero_bulk(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``find_zero`` over a (B, n, n) batch: ``(zero, bounded)`` arrays.

    ``bounded[b]`` holds when table b has exactly one all-1 row and (L)
    holds; ``zero[b]`` is then that row's index (elsewhere it is a valid
    index with no meaning).
    """
    zero, unique, l_holds = _zero_rows(T)
    return zero, unique & l_holds


def _verdict(table: Table, prop: PropertyId, zero: Optional[int] = None) -> EvalResult:
    formula = FORMULAS[prop]
    viol = _violation_mask(formula, _one_batch(table), zero)
    witness = _first_witness(viol[0], formula.arity, table.size)
    return EvalResult(prop, witness is None, witness)


def eval_property(table: Table, prop: PropertyId) -> EvalResult:
    """Verdict of a non-bounded property with the least violating witness."""
    if prop in BOUNDED_PROPS:
        raise ValueError(f"{prop} is defined on bounded tables only; use eval_bounded_property")
    return _verdict(table, prop)


def eval_bounded_property(table: Table, prop: PropertyId) -> EvalResult:
    """Verdict of DN or G1..G8; inapplicable on non-bounded tables."""
    if prop not in BOUNDED_PROPS:
        raise ValueError(f"{prop} is not a bounded-only property")
    zb = find_zero(table)
    if zb is None or not zb[1]:
        return EvalResult(prop, False, None, applicable=False)
    return _verdict(table, prop, zb[0])


def eval_all(table: Table) -> PropertySignature:
    """Full signature: one bit per core property, plus the bounded block."""
    T = _one_batch(table)
    bits = int(signature_bits_bulk(T, CORE_PROPS)[0])
    zb = find_zero(table)
    bounded = bool(zb and zb[1])
    if bounded:
        for prop in BOUNDED_PROPS:
            if _holds(FORMULAS[prop], T, zb[0])[0]:
                bits |= 1 << signature_bit(prop)
    return PropertySignature(bits=bits, bounded=bounded, zero=zb[0] if zb else None)


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
    bits = np.zeros(len(T), dtype=np.uint64)
    for prop in props:
        if prop in BOUNDED_PROPS:
            raise ValueError("bulk evaluation covers core properties only")
        ok = _holds(FORMULAS[prop], T)
        bits |= ok.astype(np.uint64) << np.uint64(signature_bit(prop))
    return bits
