"""Koszul complexes of regular sequences with explicit gamma bases.

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

from .chaincore import BasisElement, FreeComplex, GradingError, ShapeError
from .polyforms import Poly, Record


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

    Memoised: Koszul bases and the local trace's plans read the same sets."""
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
    signed = [(v, -v) for v in values]
    out: dict[int, dict] = {}
    for p in range(1, q + 1):
        tpos = {a: i for i, a in enumerate(index_sets(q, p - 1))}
        mat = out[-p] = {}
        for s, alpha in enumerate(index_sets(q, p)):
            for pos, j in enumerate(alpha):
                if values[j - 1].terms:
                    row = mat.setdefault(tpos[alpha[:pos] + alpha[pos + 1 :]], {})
                    row[s] = signed[j - 1][pos % 2]
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
    return KoszulComplex(ideal, cx)


def verify_regular(ideal: RegularSequenceIdeal) -> bool:
    """Whether K(f_1..f_q) is acyclic, graded or not: exactly when grade
    I = q (Bruns-Herzog, Thm 1.6.17), that is, as Q[x] is Cohen-Macaulay,
    when dim Q[x]/LT(I) = n - q (Cox-Little-O'Shea, ch. 9 section 3).
    Raises ValueError after groebner.MAX_TERM_OPS term operations.
    """
    from .groebner import Basis, monomial_quotient_dimension

    leads = Basis(ideal.polys, "regularity guard").leads
    return monomial_quotient_dimension(ideal.n, leads) == ideal.n - ideal.q
