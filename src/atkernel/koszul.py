"""Koszul complexes of regular sequences with explicit gamma/dual bases.

The complex K(f_1..f_q) sits in degrees -q..0 with basis gf_{a_1.._a_p}
in degree -p, ordered lexicographically on index sets.  The differential
extends d(gf_j) = f_j as a degree-1 derivation, D(ab) = D(a)b +
(-1)^{|a|} a D(b).  K resolves Q[x]/(f) only when the sequence is regular;
verify_regular decides that exactly, from a Groebner basis.
"""
from __future__ import annotations

import itertools
from collections.abc import Sequence
from functools import lru_cache
from math import comb

from .chaincore import BasisElement, ChainMap, FreeComplex, GradingError, ShapeError
from .polyforms import Form, Poly, Record, _merge_indices


class RegularSequenceIdeal(Record):
    """A sequence f_1..f_q in Q[x_1..x_n], optionally with weights.

    `_koszul` holds the sequence's Koszul complex once build_koszul has
    built it; equality, hash and repr ignore it.
    """

    __slots__ = ("n", "polys", "var_weights", "_koszul")

    def __init__(self, n: int, polys: tuple[Poly, ...], var_weights: tuple[int, ...] | None = None):
        if not polys:
            raise ValueError("sequence must be nonempty")
        if len(polys) > n:
            raise ValueError("sequence longer than ring arity")
        for f in polys:
            if f.n != n:
                raise ValueError("sequence entry arity mismatch")
            if f.is_zero():
                raise ValueError("zero entry in sequence")
            if f.constant_term() != 0:
                raise ValueError("sequence entries must have zero constant term")
        if var_weights is not None:
            for f in polys:
                if f.homogeneous_degree(var_weights) is None:
                    raise GradingError("sequence entry not homogeneous for given weights")
        self.n = n
        self.polys = polys
        self.var_weights = var_weights
        self._koszul = None

    @property
    def q(self) -> int:
        return len(self.polys)


class NormalHom(Record):
    """A normal-module section, given by its values on the sequence.

    Values are representatives in the ambient ring; changing one by an
    ideal element moves every output by an ideal-numerator term.
    """

    __slots__ = ("ideal", "values")

    def __init__(self, ideal: RegularSequenceIdeal, values: tuple[Poly, ...]):
        if len(values) != ideal.q:
            raise ShapeError("need one value per sequence entry")
        for v in values:
            if v.n != ideal.n:
                raise ShapeError("value arity mismatch")
        self.ideal = ideal
        self.values = values


def gamma_label(alpha: Sequence[int]) -> str:
    return "e" if not alpha else "gf" + "_".join(str(i) for i in alpha)


@lru_cache(maxsize=None)
def index_sets(q: int, p: int) -> tuple[tuple[int, ...], ...]:
    """All 1-based increasing index sets of size p, lexicographic order.

    Memoised: the local trace looks up one set per stored entry."""
    return tuple(itertools.combinations(range(1, q + 1), p))


class KoszulComplex:
    """FreeComplex wrapper that remembers the sequence and subset bases."""

    def __init__(self, ideal: RegularSequenceIdeal, cx: FreeComplex):
        self.ideal = ideal
        self.complex = cx

    @property
    def q(self) -> int:
        return self.ideal.q

    @property
    def n(self) -> int:
        return self.ideal.n

    def basis_position(self, alpha: Sequence[int]) -> tuple[int, int]:
        """(homological degree, column index) of gf_alpha."""
        alpha = tuple(alpha)
        p = len(alpha)
        return -p, index_sets(self.q, p).index(alpha)


def _derivation_matrices(values: Sequence[Poly]) -> dict[int, dict]:
    """The degree-1 derivation gf_j -> values[j-1] of the wedge algebra on
    gf_1..gf_q, as {-p: {row: {col: coefficient}}} with nonzero entries
    only, in the Koszul bases.

    The factor at position pos of gf_alpha contributes sign (-1)^pos.
    Dropping distinct entries of alpha leaves distinct index sets, so each
    entry is written once.
    """
    q = len(values)
    out: dict[int, dict] = {}
    for p in range(1, q + 1):
        tpos = {a: i for i, a in enumerate(index_sets(q, p - 1))}
        mat = out[-p] = {}
        for s, alpha in enumerate(index_sets(q, p)):
            for pos, j in enumerate(alpha):
                if values[j - 1].terms:
                    row = mat.setdefault(tpos[alpha[:pos] + alpha[pos + 1 :]], {})
                    row[s] = values[j - 1].scale((-1) ** pos)
    return out


def build_koszul(ideal: RegularSequenceIdeal) -> KoszulComplex:
    """The ideal's own Koszul complex: built and validated (d o d = 0 and
    homogeneity) on the first call, the same object on every later one."""
    if ideal._koszul is None:
        ideal._koszul = _build_koszul(ideal)
    return ideal._koszul


def _build_koszul(ideal: RegularSequenceIdeal) -> KoszulComplex:
    q, n = ideal.q, ideal.n
    weights = ideal.var_weights
    fdegs = None
    if weights is not None:
        fdegs = [f.homogeneous_degree(weights) for f in ideal.polys]
    degrees: dict[int, list[BasisElement]] = {}
    for p in range(q + 1):
        basis = []
        for alpha in index_sets(q, p):
            w = sum(fdegs[i - 1] for i in alpha) if fdegs is not None else 0
            basis.append(BasisElement(gamma_label(alpha), w))
        degrees[-p] = basis
    # d extends d(gf_j) = f_j as a derivation
    cx = FreeComplex(n, degrees, _derivation_matrices(ideal.polys), weights)
    for p in range(q + 1):
        if cx.rank(-p) != comb(q, p):
            raise ShapeError("koszul rank mismatch")
    return KoszulComplex(ideal, cx)


def _koszul_of(ideal: RegularSequenceIdeal, kz: KoszulComplex | None) -> KoszulComplex:
    """kz, which must resolve `ideal`, or a fresh build when it is None."""
    if kz is None:
        return build_koszul(ideal)
    if kz.ideal != ideal:
        raise ShapeError("Koszul complex resolves a different sequence")
    return kz


def dual_basis_map(k: KoszulComplex, alpha: Sequence[int]) -> ChainMap:
    """The wedge of dual functionals for alpha as a map K^{-p} -> K^0.

    Normalized so that the value on gf_alpha is (-1)^{binom(p,2)}, making
    (-1)^{binom(p,2)} times this map the honest dual basis element.
    """
    alpha = tuple(sorted(alpha))
    if any(not 1 <= i <= k.q for i in alpha) or len(set(alpha)) != len(alpha):
        raise ValueError(f"bad index set {alpha}")
    p = len(alpha)
    deg, col = k.basis_position(alpha)
    sign = Form.from_poly(Poly.const(k.n, (-1) ** comb(p, 2)))
    return ChainMap(k.complex, k.complex, p, 0, {deg: {0: {col: sign}}})


def dual_left_multiplication(k: KoszulComplex, alpha: Sequence[int]) -> ChainMap:
    """The functional -sum_i f_i . (dual wedge of {i} u alpha).

    This is what the bracket of dual_basis_map(alpha) must reproduce; the
    wedge gf^_i ^ gf^_alpha sorts with the usual alternating sign and dies
    on repeated indices.
    """
    alpha = tuple(sorted(alpha))
    total = None
    for i in range(1, k.q + 1):
        merged = _merge_indices((i,), alpha)
        if merged is None:
            continue
        sign, bigger = merged
        term = dual_basis_map(k, bigger).scale(-sign)
        term = _scale_by_poly(term, k.ideal.polys[i - 1])
        total = term if total is None else total + term
    if total is None:
        return ChainMap(k.complex, k.complex, len(alpha) + 1, 0, {})
    return total


def _scale_by_poly(u: ChainMap, p: Poly) -> ChainMap:
    mats = u.entrywise(lambda f: f.mul_poly(p))
    return ChainMap(u.source, u.target, u.degree, u.form_degree, mats)


def verify_regular(ideal: RegularSequenceIdeal) -> bool:
    """Whether K(f_1..f_q) is acyclic, graded or not: exactly when grade
    I = q (Bruns-Herzog, Thm 1.6.17), that is, as Q[x] is Cohen-Macaulay,
    when dim Q[x]/LT(I) = n - q (Cox-Little-O'Shea, ch. 9 section 3).
    Raises ValueError after groebner.MAX_TERM_OPS term operations.
    """
    from .groebner import groebner_basis, monomial_quotient_dimension

    leads = [g.leading_term()[0] for g in groebner_basis(ideal.polys)]
    return monomial_quotient_dimension(ideal.n, leads) == ideal.n - ideal.q
