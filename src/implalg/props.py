"""Property evaluation on Cayley tables.

Every axiom is stored once as a small term tree (variables, the constant 1,
the zero of a bounded table, and the arrow operation) plus a formula shape:
an equation, a Horn conditional, or a biconditional.  One batch kernel
evaluates the formulas over many tables and all assignments at once (numpy):
a formula tuple is lowered once into a plan that computes each shared arrow
subterm once, over flat uint8 cells, and frees it after its last reader.

  * On complete tables it decides the census, every search leaf check and
    every scalar verdict; a verdict on one table (``eval_property``,
    ``eval_all``, ``Formula.holds_at``, ``find_zero``) is a one-table batch.
  * On partial tables it is three-valued and prunes the search (see search
    module): an unassigned cell holds the value n, and ``_dead_rows`` flags
    the tables whose assigned cells already violate a formula.

Witnesses are reported in the property's printed variable order (x, y, z),
scanning x outermost, and elements in index order (the constant 1 last).

Every axiom is invariant under the relabelings of the elements that fix 1;
``relabelings`` builds them once per size for the census's orbit leaders and
``io.are_isomorphic``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .core import (
    BOUNDED_PROPS,
    CORE_PROPS,
    EvalResult,
    PropertyId,
    PropertySignature,
    SIGNATURE_PROPS,
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
    "relabelings",
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


@dataclass(frozen=True, eq=False)
class Formula:
    """One axiom: universally quantified over ``arity`` variables.  Each
    axiom is one object, so formulas hash and compare by identity.

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
        return _LEAVES.index(ZERO) in _plan((self,))[1]

    @property
    def variables(self) -> tuple[int, ...]:
        """Variable indices in first-occurrence order of the formula text,
        premises first (the plan references of x, y and z are 0, 1, 2)."""
        return tuple(r for r in _plan((self,))[1] if r < 3)

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
_BOUNDED_FORMULAS = tuple(FORMULAS[p] for p in SIGNATURE_PROPS if p in BOUNDED_PROPS)


# ---------------------------------------------------------------------------
# Batch evaluation engine.  Every value lives in one (B, n, n, n) frame whose
# x, y and z axes are sparse, so C order over a mask is the witness order.
# ---------------------------------------------------------------------------

#: The operand references 0..4 of a plan; each arrow subterm gets the next.
_LEAVES = (X, Y, Z, ONE, ZERO)


@lru_cache(maxsize=256)
def _plan(formulas: tuple) -> tuple[tuple, tuple[int, ...]]:
    """One step per formula: the ops ``(ref, left, right)`` that first
    compute its subterms (ref = left -> right), its kind, its premise and
    conclusion reference pairs, and the subterm refs it reads last.  Also
    every reference, in the order first read: the text order of the terms."""
    ref = {leaf: k for k, leaf in enumerate(_LEAVES)}
    last_read: dict[int, int] = {}
    steps = []

    def lower(term, ops):
        if term not in ref:
            left, right = lower(term[1], ops), lower(term[2], ops)
            ref[term] = len(ref)
            ops.append((ref[term], left, right))
        last_read[ref[term]] = i
        return ref[term]

    for i, f in enumerate(formulas):
        ops: list = []
        premises = tuple((lower(a, ops), lower(b, ops)) for a, b in f.premises)
        conclusion = (lower(f.conclusion[0], ops), lower(f.conclusion[1], ops))
        steps.append((tuple(ops), f.kind, premises, conclusion))
    steps = tuple(
        (*step, tuple(r for r, k in last_read.items() if k == i and r >= len(_LEAVES)))
        for i, step in enumerate(steps)
    )
    return steps, tuple(last_read)


@lru_cache(maxsize=32)
def _axes(n: int) -> tuple:
    """The sparse x, y and z axes of the (B, n, n, n) frame."""
    x = np.arange(n).reshape(n, 1, 1)
    x.flags.writeable = False
    return x, x.reshape(n, 1), x.reshape(n)


def _masks(formulas: tuple, T: np.ndarray, zero_arr=None):
    """The one evaluation loop over ``_plan(formulas)``: yield each formula's
    violation mask over the batch ``T`` in the (B, n, n, n) frame, whose axes
    past the formula's arity have size 1.  A subterm's values are dropped
    once its last reader has been yielded.

    ``T`` holds complete tables, (B, n, n), or partial ones in the padded
    layout of ``_dead_rows``, (B, (n+1)**2); a partial table's premise and
    conclusion sides count only where they are known.  ``zero_arr`` is as
    for ``_violation_mask``."""
    steps, reads = _plan(formulas)
    if zero_arr is None and _LEAVES.index(ZERO) in reads:
        raise ValueError("formula needs a zero element")
    B = len(T)
    partial = T.ndim == 2
    stride = math.isqrt(T.shape[1]) if partial else T.shape[1]
    n = stride - 1 if partial else stride
    one = n - 1
    # cells in the narrowest type that holds them; flat indices in intp
    flat = T.astype(np.min_scalar_type(n)).ravel()
    rows = np.arange(0, B * stride, stride).reshape(B, 1, 1, 1)
    zero = None if zero_arr is None else np.asarray(zero_arr).reshape(-1, 1, 1, 1)
    env = dict(enumerate((*_axes(n), one, zero)))
    for ops, kind, premises, (ca, cb), last_read in steps:
        for r, left, right in ops:
            env[r] = flat.take((rows + env[left]) * stride + env[right])
        if kind == "iff":
            viol = (env[ca] == one) != (env[cb] == one)
        else:
            viol = env[ca] != env[cb]
            if partial:  # the value n is unknown
                viol = viol & (env[ca] != n) & (env[cb] != n)
            for pa, pb in premises:
                viol = viol & (env[pa] == env[pb])
                if partial:
                    viol = viol & (env[pa] != n)
        yield viol
        for r in last_read:
            del env[r]


def _dead_rows(formulas: tuple, P: np.ndarray) -> np.ndarray:
    """Per partial table of the (B, (n+1)**2) uint8 batch ``P``: is it dead,
    that is, do its assigned cells already violate one of ``formulas``, so
    that no completion satisfies them all?

    A partial size-n table is padded to (n+1) x (n+1) cells, row-major, where
    the value n means "unassigned" and row n and column n hold n, so an
    unknown operand reads an unknown value.  A table is dead when, at some
    assignment, every premise has both sides known and equal and the
    conclusion has both sides known and different."""
    dead = np.zeros(len(P), dtype=bool)
    for viol in _masks(formulas, P):
        dead |= _any_per_table(viol)
    return dead


def _violation_mask(formula: Formula, T: np.ndarray, zero_arr=None) -> np.ndarray:
    """Boolean array (B, n, ..n) of assignments violating ``formula``.

    ``zero_arr`` gives each table's zero, for formulas that use it (a
    scalar when B is 1)."""
    (viol,) = _masks((formula,), T, zero_arr)
    return viol.reshape(T.shape[:1] + T.shape[1:2] * formula.arity)


def _holds(formula: Formula, T: np.ndarray, zero_arr=None) -> np.ndarray:
    """Per table of the (B, n, n) batch: does ``formula`` hold at every
    assignment?"""
    return ~_any_per_table(_violation_mask(formula, T, zero_arr))


def _any_per_table(mask: np.ndarray) -> np.ndarray:
    """Per table of a (B, ...) mask: is any entry set?  Also for B = 0."""
    return mask.any(axis=tuple(range(1, mask.ndim)))


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


@lru_cache(maxsize=64)
def find_zero(table: Table) -> Optional[tuple[int, bool]]:
    """Unique element whose row is all 1, with the boundedness flag.

    Returns None when no zero exists or several rows qualify; bounded means
    a zero exists and (L) holds.  Cached per table, since every bounded
    verdict on a table needs it.
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
        for formula, viol in zip(_BOUNDED_FORMULAS, _masks(_BOUNDED_FORMULAS, T, zb[0])):
            if not viol.any():
                bits |= 1 << signature_bit(formula.prop)
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
    if any(prop in BOUNDED_PROPS for prop in props):
        raise ValueError("bulk evaluation covers core properties only")
    bits = np.zeros(len(T), dtype=np.uint64)
    for prop, viol in zip(props, _masks(tuple(FORMULAS[p] for p in props), T)):
        ok = ~_any_per_table(viol)
        bits |= ok.astype(np.uint64) << np.uint64(signature_bit(prop))
    return bits


@lru_cache(maxsize=8)
def relabelings(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (n-1)! relabelings of the size-n tables: the permutations p of
    0..n-1 that fix the constant 1 (index n-1), the identity first.

    Returns ``(perms, src)``, read-only, of shapes ((n-1)!, n) and
    ((n-1)!, n*n).  The relabeled table p(T), with p(T)[p(x)][p(y)] =
    p(T[x][y]), has the flat cells ``perms[k][flat[src[k]]]``: cell c of the
    image reads the source cell ``src[k][c]``.
    """
    perms = np.array(
        [(*p, n - 1) for p in itertools.permutations(range(n - 1))], dtype=np.intp
    ).reshape(-1, n)
    inv = np.argsort(perms, axis=1)
    src = (inv[:, :, None] * n + inv[:, None, :]).reshape(len(perms), n * n)
    perms.flags.writeable = src.flags.writeable = False
    return perms, src
