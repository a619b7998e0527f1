"""Connections on free complexes, Atiyah cocycles, and contractions.

The basis connection sends every basis element to zero, which makes the
degree-1 Atiyah cocycle the negated entrywise exterior derivative of the
differential matrices.  Higher powers are compositions with wedged
coefficients; contraction against a derivation replaces the leftmost
form slot.

Both are computed once and shared: a complex keeps its basis-connection
cocycle, and a cocycle keeps the powers At^2, At^3, ... composed so far,
each as compose(At, At^{k-1}).  The Chern character and every component
of the semiregularity map read the same powers.  Each kept map holds one
object per distinct entry value (on K(f), At^k has at most 2 C(q, k)), so
a contraction contracts, and the local trace adds, each object once.
Nothing shared is ever mutated; only new powers are added.
"""
from __future__ import annotations

from .chaincore import (
    ChainMap,
    FreeComplex,
    ShapeError,
    compose,
    hom_bracket,
    identity_map,
    zero_map,
)
from .koszul import KoszulComplex
from .polyforms import ArityError, Form, Poly, Record, contract_form, exterior_derivative


class ConnectionSpec:
    """Values of a connection on the basis; defaults to the basis connection.

    columns[i] is a matrix, given as ChainMap takes one: its entry (t, s)
    is the coefficient of target basis t in the image of source basis s
    of homological degree i, a degree-1 form.  The connection minus the
    basis connection is kept as the degree-0 map `perturbation`.
    """

    __slots__ = ("complex", "perturbation")

    def __init__(self, complex: FreeComplex, columns: dict | None = None):
        self.complex = complex
        self.perturbation = ChainMap(complex, complex, 0, 1, columns or {})


class AtiyahCocycle:
    """A cocycle and its powers: `_powers[k]` is the k-fold composition of
    chain_map for 2 <= k <= the largest power asked for so far."""

    __slots__ = ("chain_map", "_powers")

    def __init__(self, chain_map: ChainMap):
        self.chain_map = chain_map
        self._powers: dict[int, ChainMap] = {}


class DerivationSpec(Record):
    """A derivation given by its values on the ring variables."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[Poly, ...]):
        self.values = values


def atiyah_cocycle(p: FreeComplex, connection: ConnectionSpec | None = None) -> AtiyahCocycle:
    """[d, nabla] for the given connection.

    The basis connection's cocycle -dF is built on the first call and the
    same object, with its powers, is returned afterwards.  An explicit
    connection gets a new cocycle: that shared one plus the bracket of its
    perturbation.
    """
    if p._basis_atiyah is None:
        p._basis_atiyah = AtiyahCocycle(_interned(ChainMap._raw(
            p, p, 1, 1, p.entrywise(lambda entry: -exterior_derivative(entry)))))
    if connection is None:
        return p._basis_atiyah
    if connection.complex != p:
        raise ShapeError("connection is for a different complex")
    return AtiyahCocycle(p._basis_atiyah.chain_map + hom_bracket(connection.perturbation))


def atiyah_power(at: AtiyahCocycle, k: int) -> AtiyahCocycle:
    """k-fold composition of the degree-1 cocycle; k = 0 is the identity.

    The power is zero without composing once k exceeds the length of the
    complex (no degree i with i + k in it) or the number of variables (a
    wedge of k one-forms); its form degree is then capped at n, as in
    `compose`.  Other powers come from at's own powers, each composed
    once as compose(at, previous power); the identity and the zero powers
    are not kept.
    """
    if k < 0:
        raise ValueError("power must be nonnegative")
    if at.chain_map.degree != 1:
        raise ShapeError("powers are taken of the degree-1 cocycle")
    cx = at.chain_map.source
    if k == 0:
        return AtiyahCocycle(identity_map(cx))
    support = cx.support()
    length = support[-1] - support[0] if support else 0
    if k > min(length, cx.n):
        return AtiyahCocycle(zero_map(cx, cx, k, min(k, cx.n)))
    acc = at.chain_map
    for j in range(2, k + 1):
        if j not in at._powers:
            at._powers[j] = _interned(compose(at.chain_map, acc))
        acc = at._powers[j]
    return AtiyahCocycle(acc)


def _interned(u: ChainMap) -> ChainMap:
    """u with one object per distinct entry value; a Form hashes and compares
    by its terms whatever their order."""
    seen: dict[Form, Form] = {}
    return ChainMap._raw(u.source, u.target, u.degree, u.form_degree,
                         u.entrywise(lambda f: seen.setdefault(f, f)))


def contract_derivation(xi: DerivationSpec, a: AtiyahCocycle | ChainMap) -> ChainMap:
    """Interior product of every matrix entry against the derivation; the
    input is checked here, once, for the trusted kernel contract_form,
    which runs once per distinct entry object (u keeps each id alive)."""
    u = a.chain_map if isinstance(a, AtiyahCocycle) else a
    if u.form_degree < 1:
        raise ShapeError("cannot contract a form-degree-0 map")
    n = u.source.n
    if len(xi.values) != n:
        raise ShapeError("derivation arity mismatch")
    if any(v.n != n for v in xi.values):
        raise ArityError("derivation values must share the form's arity")
    done: dict[int, Form] = {}
    mats = u.entrywise(lambda f: done.get(id(f)) or done.setdefault(id(f), contract_form(xi.values, f)))
    return ChainMap._raw(u.source, u.target, u.degree, u.form_degree - 1, mats)


def obstruction_cocycle(k: KoszulComplex, delta: DerivationSpec) -> ChainMap:
    """[d, delta~] for the extension of delta killing every gamma generator.

    The extension acts on coefficients only, so the bracket applies delta
    entrywise to the differential and negates.
    """
    cx = k.complex
    if len(delta.values) != cx.n:
        raise ShapeError("derivation arity mismatch")
    return ChainMap._raw(cx, cx, 1, 0, cx.entrywise(
        lambda entry: Form.from_poly(-entry.apply_derivation(delta.values))))
