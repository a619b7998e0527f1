"""Connections on free complexes, Atiyah cocycles, and contractions.

The basis connection sends every basis element to zero, which makes the
degree-1 Atiyah cocycle the negated entrywise exterior derivative of the
differential matrices.  Higher powers are compositions with wedged
coefficients; contraction against a derivation replaces the leftmost
form slot.
"""
from __future__ import annotations

from typing import Sequence

from .chaincore import (
    ChainMap,
    FreeComplex,
    ShapeError,
    compose,
    hom_bracket,
    identity_map,
    zero_map,
)
from .koszul import KoszulComplex, RegularSequenceIdeal, build_koszul
from .polyforms import Form, Poly, Record, contract_form, exterior_derivative


class ConnectionSpec:
    """Values of a connection on the basis; defaults to the basis connection.

    columns[i][t][s] is the coefficient of target basis t in the image of
    source basis s of homological degree i, a degree-1 form.
    """

    __slots__ = ("complex", "columns")

    def __init__(
        self, complex: FreeComplex, columns: dict[int, Sequence[Sequence[Form]]] | None = None
    ):
        self.complex = complex
        self.columns = {} if columns is None else columns

    def perturbation_map(self) -> ChainMap:
        return ChainMap(self.complex, self.complex, 0, 1, dict(self.columns))


class AtiyahCocycle:
    __slots__ = ("chain_map", "power", "connection")

    def __init__(self, chain_map: ChainMap, power: int, connection: ConnectionSpec):
        self.chain_map = chain_map
        self.power = power
        self.connection = connection


class DerivationSpec(Record):
    """A derivation given by its values on the ring variables."""

    __slots__ = ("values", "degree")

    def __init__(self, values: tuple[Poly, ...], degree: int = 0):
        self.values = values
        self.degree = degree

    def apply(self, p: Poly) -> Poly:
        return p.apply_derivation(self.values)


def atiyah_cocycle(p: FreeComplex, connection: ConnectionSpec | None = None) -> AtiyahCocycle:
    """[d, nabla] for the given connection (basis connection by default)."""
    conn = connection or ConnectionSpec(p)
    if conn.complex != p:
        raise ShapeError("connection is for a different complex")
    zero = Form.zero(p.n, 1)
    mats = {}
    for i, dmat in p.diff.items():
        mats[i] = tuple(
            tuple(-exterior_derivative(entry) if entry.terms else zero for entry in row)
            for row in dmat
        )
    base = ChainMap(p, p, 1, 1, mats)
    if conn.columns:
        base = base + hom_bracket(conn.perturbation_map())
    return AtiyahCocycle(base, 1, conn)


def atiyah_power(at: AtiyahCocycle, k: int) -> AtiyahCocycle:
    """k-fold composition of the degree-1 cocycle; k = 0 is the identity.

    The power is zero without composing once k exceeds the length of the
    complex (no degree i with i + k in it) or the number of variables (a
    wedge of k one-forms); its form degree is then capped at n, as in
    `compose`.
    """
    if k < 0:
        raise ValueError("power must be nonnegative")
    cx = at.chain_map.source
    if k == 0:
        return AtiyahCocycle(identity_map(cx), 0, at.connection)
    support = cx.support()
    length = support[-1] - support[0] if support else 0
    if k > min(length, cx.n):
        return AtiyahCocycle(zero_map(cx, cx, k, min(k, cx.n)), k, at.connection)
    acc = at.chain_map
    for _ in range(k - 1):
        acc = compose(at.chain_map, acc)
    return AtiyahCocycle(acc, k, at.connection)


def contract_derivation(xi: DerivationSpec, a: AtiyahCocycle | ChainMap) -> ChainMap:
    """Interior product of every matrix entry against the derivation."""
    u = a.chain_map if isinstance(a, AtiyahCocycle) else a
    if u.form_degree < 1:
        raise ShapeError("cannot contract a form-degree-0 map")
    if len(xi.values) != u.source.n:
        raise ShapeError("derivation arity mismatch")
    zero = Form.zero(u.source.n, u.form_degree - 1)
    mats = {
        i: tuple(
            tuple(contract_form(xi.values, f) if f.terms else zero for f in row) for row in mat
        )
        for i, mat in u.mats.items()
    }
    return ChainMap(u.source, u.target, u.degree, u.form_degree - 1, mats)


def obstruction_cocycle(
    ideal_or_koszul: RegularSequenceIdeal | KoszulComplex, delta: DerivationSpec
) -> ChainMap:
    """[d, delta~] for the extension of delta killing every gamma generator.

    The extension acts on coefficients only, so the bracket applies delta
    entrywise to the differential and negates.
    """
    k = (
        ideal_or_koszul
        if isinstance(ideal_or_koszul, KoszulComplex)
        else build_koszul(ideal_or_koszul)
    )
    cx = k.complex
    if len(delta.values) != cx.n:
        raise ShapeError("derivation arity mismatch")
    mats = {}
    for i, dmat in cx.diff.items():
        mats[i] = tuple(
            tuple(Form.from_poly(-delta.apply(entry)) for entry in row) for row in dmat
        )
    return ChainMap(cx, cx, 1, 0, mats)
