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
from operator import mul

from .polyforms import Record, parse_poly, unpack, variable_names


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
        return MonomialIdeal.from_exponents(self.n, _products(self))


def _products(ideal: MonomialIdeal) -> list[tuple[int, ...]]:
    """The generators g + e_i of m*I, each once, sorted; not minimal."""
    return sorted({g[:i] + (g[i] + 1,) + g[i + 1:] for g in ideal.gens for i in range(ideal.n)})


def monomial_ideal_from_text(text: str) -> tuple[MonomialIdeal, tuple[str, ...]]:
    """The ideal of comma-separated monomials, over the variables they name, sorted."""
    chunks = [c.strip() for c in text.split(",")]
    if not any(chunks):
        raise MonomialIdealError("empty ideal")
    if not all(chunks):
        raise MonomialIdealError(f"empty generator in ideal {text!r}")
    names = tuple(sorted({name for c in chunks for name in variable_names(c)}))
    if not names:
        raise MonomialIdealError("no variables found in ideal")
    exps = [monomial_exponent(c, names) for c in chunks]
    return MonomialIdeal.from_exponents(len(names), exps), names


def monomial_exponent(text: str, names: tuple[str, ...]) -> tuple[int, ...]:
    """Exponent vector of a monomial with coefficient 1."""
    p = parse_poly(text, names)
    if len(p.terms) != 1 or next(iter(p.terms.values())) != 1:
        raise MonomialIdealError(f"not a monomial: {text!r}")
    return unpack(next(iter(p.terms)), p.n)


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
        # times the lcm of the denominators, a positive scale, which keeps
        # every inequality: the dot products are then of ints
        scale = lcm(*(Fraction(v).denominator for v in (*c, mu)))
        c, mu = [int(v * scale) for v in c], int(mu * scale)
        if sum(map(mul, c, a)) >= mu:
            return False
        return all(sum(map(mul, c, g)) >= mu for g in ideal.gens)


def _phase1_lp(a_eq: list[list[int]], b: list[int]):
    """Phase-1 simplex for {x >= 0 : A x = b} with A and b nonnegative
    integers; returns ("x", x) or ("y", y).

    On infeasibility the dual vector y = c_B B^-1 of the final basis
    satisfies y.A_j <= 0 for every column and y.b > 0 (a Farkas
    certificate).  The artificial columns of T hold D B^-1 and c_B is 1
    exactly on the rows whose basic variable is artificial, so y_j is the
    sum of those rows' entries in artificial column j, over D.

    The tableau [A | I | b] is fraction-free: the simplex tableau is T / D
    for an int matrix T and the previous pivot D > 0, and each row update
    (pv*T[i] - f*T[r]) // D divides exactly (Edmonds, Bareiss).  Bland's
    rule picks the first improving column and the minimum ratio, ties
    broken by basis index.
    """
    rows = len(a_eq)
    cols = len(a_eq[0]) if rows else 0
    tab = [a_eq[i] + [int(j == i) for j in range(rows)] + [b[i]] for i in range(rows)]
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

    # `artificial` holds the final basis' artificial rows: no pivot follows the break
    if sum(row[total] for row in artificial) == 0:
        x = [Fraction(0)] * cols
        for i, bv in enumerate(basis):
            if bv < cols:
                x[bv] = Fraction(tab[i][total], d)
        return "x", x
    return "y", [Fraction(sum(row[cols + j] for row in artificial), d) for j in range(rows)]


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
    rows = [[g[i] for g in ideal.gens] + [int(j == i) for j in range(n)] for i in range(n)]
    rows.append([1] * m + [0] * n)
    rhs = [*a, 1]
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
    minimal generators present a basis of I/mI.  Each generator's
    certificate is verified against the generators g_j + e_i of m*I, which
    `verify` reads as it reads any generating set, before it is counted.
    """
    bumped = _products(ideal)
    products = MonomialIdeal(ideal.n, tuple(bumped))  # generates m*I, not minimally
    position = {h: k for k, h in enumerate(bumped)}
    count = 0
    for g in ideal.gens:
        cert = _curvilinear_certificate(ideal, g, position)
        if not cert.verify(products):
            raise AssertionError("certificate failed exact verification")
        count += not cert.verdict
    return count


def _curvilinear_certificate(ideal: MonomialIdeal, g: tuple[int, ...],
                             position: dict[tuple[int, ...], int]) -> ClosureCertificate:
    """Is x^g integral over m*I?  One LP over I's own generators g_j.

    NP(m*I) = conv(g_j) + conv(e_1..e_n) + R_+^n, and the last two sum to
    the v >= 0 with |v| >= 1.  So g is integral exactly when convex weights
    lam have sum lam_j g_j + s = g and sum lam_j |g_j| + t = |g| - 1 for
    some s, t >= 0: n + 2 rows.  The certificate is lifted to the
    generators of m*I, whose positions `position` gives: on YES the weight
    lam_j s_i / |s| goes to g_j + e_i; on NO the Farkas vector gives c, w
    >= 0 and mu with c.g_j + w|g_j| >= mu > c.g + w(|g| - 1), so c + w(1..1)
    and mu + w separate g from every g_j + e_i.  When I is generated in one
    degree d nothing is integral, and |.| >= d + 1 separates, with no LP.
    """
    n, m, d = ideal.n, len(ideal.gens), sum(g)
    if all(sum(h) == d for h in ideal.gens):  # int entries keep verify's n*|m*I| products cheap
        return ClosureCertificate(g, False, separator=(1,) * n, threshold=d + 1)
    # columns: lam_1..lam_m, s_1..s_n, t
    rows = [[h[i] for h in ideal.gens] + [int(j == i) for j in range(n + 1)] for i in range(n)]
    rows.append([sum(h) for h in ideal.gens] + [0] * n + [1])
    rows.append([1] * m + [0] * (n + 1))
    kind, vec = _phase1_lp(rows, [*g, d - 1, 1])
    if kind == "y":
        w = -vec[n]
        return ClosureCertificate(g, False, separator=tuple(w - v for v in vec[:n]),
                                  threshold=vec[n + 1] + w)
    lam, s = vec[:m], vec[m:m + n]
    size = sum(s)
    weights = [Fraction(0)] * len(position)
    for lam_j, h in zip(lam, ideal.gens):
        for i in range(n):
            if lam_j and s[i]:
                weights[position[h[:i] + (h[i] + 1,) + h[i + 1:]]] += lam_j * s[i] / size
    return ClosureCertificate(g, True, lambdas=tuple(weights))


class DimBoundReport:
    __slots__ = ("dim_quotient", "bound", "curv_dim", "holds")

    def __init__(self, dim_quotient: int, bound: int, curv_dim: int, holds: bool):
        self.dim_quotient = dim_quotient
        self.bound = bound
        self.curv_dim = curv_dim
        self.holds = holds


def dim_bound_check(ideal: MonomialIdeal) -> DimBoundReport:
    """dim R/I against the curvilinear bound dim R - dim I/(J + mI); dim R/I
    comes from the smallest vertex cover of the generators' supports."""
    from .groebner import monomial_quotient_dimension

    dim_a = monomial_quotient_dimension(ideal.n, ideal.gens)
    curv = curvilinear_dim(ideal)
    bound = ideal.n - curv
    return DimBoundReport(dim_a, bound, curv, bound <= dim_a)
