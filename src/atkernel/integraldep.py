"""Integral-closure membership for monomial ideals and the dimension
invariants built from it.

Membership in the integral closure of a monomial ideal is membership of
the exponent vector in the Newton polyhedron conv(generators) + R_+^n,
decided by exact rational linear programming with certificates attached
either way: a convex-combination witness on YES, a separating linear
functional on NO.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import lcm

from . import linalg
from .polyforms import Record


class MonomialIdealError(ValueError):
    pass


class MonomialIdeal(Record):
    """Monomial ideal by its minimal generating exponent vectors."""

    __slots__ = ("n", "gens")

    def __init__(self, n: int, gens: tuple[tuple[int, ...], ...]):
        self.n = n
        self.gens = gens

    @staticmethod
    def from_exponents(n: int, exponents: Iterable[Sequence[int]]) -> "MonomialIdeal":
        vecs = sorted({tuple(int(e) for e in v) for v in exponents})
        if not vecs:
            raise MonomialIdealError("zero ideal")
        for v in vecs:
            if len(v) != n or any(e < 0 for e in v):
                raise MonomialIdealError(f"bad exponent vector {v}")
        if (0,) * n in vecs:
            raise MonomialIdealError("unit ideal")
        minimal = [
            v
            for v in vecs
            if not any(w != v and all(a <= b for a, b in zip(w, v)) for w in vecs)
        ]
        return MonomialIdeal(n, tuple(sorted(minimal)))

    def multiply_by_maximal_ideal(self) -> "MonomialIdeal":
        bumped = []
        for g in self.gens:
            for i in range(self.n):
                e = list(g)
                e[i] += 1
                bumped.append(tuple(e))
        return MonomialIdeal.from_exponents(self.n, bumped)


Vector = tuple[Fraction, ...]


class ClosureCertificate:
    """Verdict plus an exactly checkable witness or separator."""

    __slots__ = ("query", "verdict", "lambdas", "slack", "separator", "threshold")

    def __init__(self, query: tuple[int, ...], verdict: bool, lambdas: Vector | None = None,
                 slack: Vector | None = None, separator: Vector | None = None,
                 threshold: Fraction | None = None):
        self.query = query
        self.verdict = verdict
        self.lambdas = lambdas
        self.slack = slack
        self.separator = separator
        self.threshold = threshold

    def verify(self, ideal: MonomialIdeal) -> bool:
        a = self.query
        if self.verdict:
            lam = self.lambdas
            if lam is None or len(lam) != len(ideal.gens):
                return False
            if any(v < 0 for v in lam) or sum(lam) != 1:
                return False
            for i in range(ideal.n):
                lhs = sum(v * g[i] for v, g in zip(lam, ideal.gens))
                if lhs > a[i]:
                    return False
                if self.slack is not None and lhs + self.slack[i] != a[i]:
                    return False
            return True
        c, mu = self.separator, self.threshold
        if c is None or mu is None or len(c) != ideal.n:
            return False
        if any(v < 0 for v in c):
            return False
        dot_a = sum(ci * ai for ci, ai in zip(c, a))
        if dot_a >= mu:
            return False
        return all(sum(ci * gi for ci, gi in zip(c, g)) >= mu for g in ideal.gens)


def _phase1_lp(a_eq: list[list[Fraction]], b: list[Fraction]):
    """Phase-1 simplex for {x >= 0 : A x = b}; returns ("x", x) or ("y", y).

    On infeasibility the dual vector y from the final basis satisfies
    y.A_j <= 0 for every column and y.b > 0 (a Farkas certificate).

    The tableau is fraction-free: the simplex tableau is T / D for an int
    matrix T and the previous pivot D > 0, and each row update
    (pv*T[i] - f*T[r]) // D divides exactly (Edmonds, Bareiss).  Bland's
    rule picks the first improving column and the minimum ratio, ties
    broken by basis index.
    """
    rows = len(a_eq)
    cols = len(a_eq[0]) if rows else 0
    a_eq = [[Fraction(v) for v in row] for row in a_eq]
    b = [Fraction(v) for v in b]
    for i in range(rows):
        if b[i] < 0:
            a_eq[i] = [-v for v in a_eq[i]]
            b[i] = -b[i]
    # [s*A | I | s*b] for the lcm s of the denominators takes s times each
    # artificial as a variable and s times the phase-1 objective, which keeps
    # every reduced-cost sign and ratio order, so every pivot is the same
    s = lcm(*(v.denominator for row in a_eq for v in row), *(v.denominator for v in b))
    tab = [[v.numerator * (s // v.denominator) for v in a_eq[i] + [b[i]]] for i in range(rows)]
    tab = [row[:-1] + [int(j == i) for j in range(rows)] + row[-1:] for i, row in enumerate(tab)]
    total = cols + rows
    basis = [cols + i for i in range(rows)]
    d = 1

    while True:
        # sign of the reduced cost z_j - c_j, times D
        artificial = [row for row, bv in zip(tab, basis) if bv >= cols]
        entering = -1
        for j in range(total):
            if j in basis:
                continue
            if sum(row[j] for row in artificial) > (d if j >= cols else 0):
                entering = j
                break
        if entering < 0:
            break
        pivot_row = -1
        for i in range(rows):
            t = tab[i][entering]
            if t > 0:
                if pivot_row < 0:
                    pivot_row = i
                    continue
                # T[i][rhs] / t against the best ratio, cross-multiplied
                here = tab[i][total] * tab[pivot_row][entering]
                best = tab[pivot_row][total] * t
                if here < best or (here == best and basis[i] < basis[pivot_row]):
                    pivot_row = i
        if pivot_row < 0:
            raise AssertionError("phase-1 objective unbounded")
        prow = tab[pivot_row]
        pv = prow[entering]
        for i in range(rows):
            if i != pivot_row:
                f = tab[i][entering]
                tab[i] = [(pv * u - f * v) // d for u, v in zip(tab[i], prow)]
        d = pv
        basis[pivot_row] = entering

    if sum(row[total] for row, bv in zip(tab, basis) if bv >= cols) == 0:
        x = [Fraction(0)] * cols
        for i, bv in enumerate(basis):
            if bv < cols:
                x[bv] = Fraction(tab[i][total], d)
        return "x", x
    # duals: solve B^T y = c_B; row k of B^T is basic column basis[k] of [A | I]
    bt = [
        {i: a_eq[i][j] for i in range(rows) if a_eq[i][j]} if j < cols else {j - cols: Fraction(1)}
        for j in basis
    ]
    y = linalg.solve(bt, [Fraction(int(j >= cols)) for j in basis], rows)
    if y is None:
        raise AssertionError("singular basis in dual extraction")
    return "y", y


def closure_member(ideal: MonomialIdeal, query: Sequence[int]) -> ClosureCertificate:
    """Is x^query integral over the ideal (Newton-polyhedron membership)?"""
    a = tuple(int(e) for e in query)
    if len(a) != ideal.n:
        raise MonomialIdealError("query arity mismatch")
    if any(e < 0 for e in a):
        raise MonomialIdealError("negative exponent in query")
    m = len(ideal.gens)
    n = ideal.n
    # columns: lambda_1..lambda_m, s_1..s_n
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i in range(n):
        row = [Fraction(g[i]) for g in ideal.gens] + [
            Fraction(1 if j == i else 0) for j in range(n)
        ]
        rows.append(row)
        rhs.append(Fraction(a[i]))
    rows.append([Fraction(1)] * m + [Fraction(0)] * n)
    rhs.append(Fraction(1))
    kind, vec = _phase1_lp(rows, rhs)
    if kind == "x":
        lam = tuple(vec[:m])
        slack = tuple(vec[m : m + n])
        cert = ClosureCertificate(a, True, lambdas=lam, slack=slack)
    else:
        # y.col_lambda_j <= 0 gives c.g_j >= y_last; y.b > 0 gives c.a < y_last
        c = tuple(-v for v in vec[:n])
        mu = vec[n]
        cert = ClosureCertificate(a, False, separator=c, threshold=mu)
    if not cert.verify(ideal):
        raise AssertionError("certificate failed exact verification")
    return cert


def curvilinear_dim(ideal: MonomialIdeal) -> int:
    """Number of minimal generators not integral over m*I.

    This is dim of I modulo (closure of m*I inside I) + m*I, since the
    minimal generators present a basis of I/mI.
    """
    bumped = ideal.multiply_by_maximal_ideal()
    count = 0
    for g in ideal.gens:
        if not closure_member(bumped, g).verdict:
            count += 1
    return count


def quotient_dimension(ideal: MonomialIdeal) -> int:
    """Krull dimension of R/I for monomial I, from the smallest vertex
    cover of the supports of the minimal generators."""
    from .groebner import monomial_quotient_dimension

    return monomial_quotient_dimension(ideal.n, ideal.gens)


class DimBoundReport:
    __slots__ = ("dim_quotient", "bound", "curv_dim", "holds")

    def __init__(self, dim_quotient: int, bound: int, curv_dim: int, holds: bool):
        self.dim_quotient = dim_quotient
        self.bound = bound
        self.curv_dim = curv_dim
        self.holds = holds


def dim_bound_check(ideal: MonomialIdeal) -> DimBoundReport:
    """dim R/I against the curvilinear bound dim R - dim I/(J + mI)."""
    dim_a = quotient_dimension(ideal)
    curv = curvilinear_dim(ideal)
    bound = ideal.n - curv
    return DimBoundReport(dim_a, bound, curv, bound <= dim_a)
