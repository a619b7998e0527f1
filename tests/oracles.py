"""Independent oracles used by the test suite.

These deliberately avoid the library's own algorithms: the Koszul
differential is expanded by a recursive Leibniz evaluator, Newton
polyhedron membership is decided by brute-force enumeration of candidate
LP bases, matrix products are sums of the public binary operations,
regularity is read off Koszul homology ranks, not off a Groebner basis, and
division by a list of polynomials runs over Fractions on Poly.leading_term.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from atkernel.chaincore import homology_rank
from atkernel.koszul import build_koszul
from atkernel.polyforms import Form, Poly, wedge


def koszul_differential_oracle(polys, alpha):
    """d(gamma_alpha) by recursion: d(g_a ^ rest) = f_a rest - g_a ^ d(rest).

    Returns {smaller index set: coefficient Poly}.
    """
    n = polys[0].n
    alpha = tuple(alpha)
    if len(alpha) == 1:
        return {(): polys[alpha[0] - 1]}
    head, rest = alpha[0], alpha[1:]
    out: dict[tuple, Poly] = {rest: polys[head - 1]}
    for sub, coeff in koszul_differential_oracle(polys, rest).items():
        key = (head,) + sub
        prev = out.get(key, Poly.zero(n))
        out[key] = prev - coeff
    return {k: v for k, v in out.items() if not v.is_zero()}


def newton_membership_oracle(gens, query):
    """Brute-force LP: enumerate candidate supports and tight coordinates.

    a is in conv(gens) + R_+^n iff some basic feasible combination works:
    choose a support S of generators and a set T of tight coordinates with
    |S| <= |T| + 1, solve the square-ish linear system exactly, and test
    feasibility.  Complete at the scale of the probe sets used in tests.
    """
    gens = [tuple(g) for g in gens]
    a = tuple(query)
    n = len(a)
    m = len(gens)
    for size in range(1, m + 1):
        for support in itertools.combinations(range(m), size):
            # unknowns: lambda_j (j in support); constraints: sum lambda = 1,
            # and for tight coordinates sum lambda g[i] = a[i]
            for tight in _subsets(range(n), size - 1):
                rows = [[Fraction(1)] * size]
                rhs = [Fraction(1)]
                for i in tight:
                    rows.append([Fraction(gens[j][i]) for j in support])
                    rhs.append(Fraction(a[i]))
                sol = _solve_exact(rows, rhs)
                if sol is None:
                    continue
                if any(v < 0 for v in sol):
                    continue
                feasible = True
                for i in range(n):
                    total = sum(v * gens[j][i] for v, j in zip(sol, support))
                    if total > a[i]:
                        feasible = False
                        break
                if feasible:
                    return True
    return False


def _subsets(items, max_size):
    items = list(items)
    for size in range(0, max_size + 1):
        yield from itertools.combinations(items, size)


def _solve_exact(rows, rhs):
    """Solve a small linear system exactly; None when inconsistent or
    underdetermined in a way that leaves no pivot solution."""
    if not rows:
        return None
    return dense_gauss_jordan(rows, rhs, len(rows[0]))[1]


def dense_gauss_jordan(rows, rhs, cols):
    """Dense Gauss-Jordan over Fraction: (rank, solution or None).

    The reference for the sparse solver: pivots are taken column by
    column and free variables are set to zero.
    """
    m = len(rows)
    work = [[Fraction(v) for v in rows[i]] + [Fraction(rhs[i])] for i in range(m)]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, m) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = 1 / work[r][c]
        work[r] = [v * inv for v in work[r]]
        for i in range(m):
            if i != r and work[i][c] != 0:
                factor = work[i][c]
                work[i] = [x - factor * y for x, y in zip(work[i], work[r])]
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    if any(work[i][cols] != 0 for i in range(r, m)):
        return r, None
    sol = [Fraction(0)] * cols
    for prow, pcol in pivots:
        sol[pcol] = work[prow][cols]
    return r, sol


def poly_matmul_oracle(a, b):
    """Entry (i, j) is the running sum of a[i][m] * b[m][j]."""
    n = a[0][0].n
    cols = len(b[0]) if b else 0
    out = []
    for arow in a:
        row = []
        for j in range(cols):
            acc = Poly.zero(n)
            for m in range(len(b)):
                acc = acc + arow[m] * b[m][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def wedge_matmul_oracle(a, b, n, out_deg, shape=None):
    """Entry (i, j) is the running sum of wedge(a[i][m], b[m][j])."""
    rows, mid, cols = shape or (len(a), len(b), len(b[0]) if b else 0)
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = Form.zero(n, out_deg)
            for m in range(mid):
                acc = acc + wedge(a[i][m], b[m][j])
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def contract_form_oracle(values, w):
    """Running sum of one public Form per contracted slot j, sign (-1)^j."""
    out = Form.zero(w.n, w.degree - 1)
    for idx, coeff in w.terms.items():
        for j, slot in enumerate(idx):
            rest = idx[:j] + idx[j + 1 :]
            term = (coeff * values[slot]).scale(-1 if j % 2 else 1)
            out = out + Form(w.n, w.degree - 1, {rest: term})
    return out


def component_matrix_oracle(c, i, src, tgt):
    """Matrix of d(i) on the component bases src -> tgt, accumulated naively.

    Column j is d applied to src[j] = (basis index, exponent): each target
    entry is the public product d[t][s] * x^exponent, and its coefficients
    are added into the matrix one by one, dropping zeros at the end.
    """
    tgt_index = {key: pos for pos, key in enumerate(tgt)}
    mat = [{} for _ in tgt]
    dmat = c.d_matrix(i)
    for col, (s_idx, expt) in enumerate(src):
        for t_idx in range(c.rank(i + 1)):
            image = dmat[t_idx][s_idx] * Poly.monomial(c.n, expt)
            for e, coeff in image.terms.items():
                row = mat[tgt_index[(t_idx, e)]]
                row[col] = row.get(col, 0) + coeff
    return [{col: v for col, v in row.items() if v} for row in mat]


def phase1_lp_oracle(a_eq, b):
    """Phase-1 simplex for {x >= 0 : A x = b} on a dense Fraction tableau.

    The reference for the library's fraction-free tableau: the same Bland
    rule (first improving column; minimum ratio, ties broken by basis
    index), every pivot and ratio a Fraction division, and the Farkas dual
    y of the final basis by dense Gauss-Jordan.  Returns ("x", x) or
    ("y", y).
    """
    rows = len(a_eq)
    cols = len(a_eq[0]) if rows else 0
    a_eq = [[Fraction(v) for v in row] for row in a_eq]
    b = [Fraction(v) for v in b]
    for i in range(rows):
        if b[i] < 0:
            a_eq[i] = [-v for v in a_eq[i]]
            b[i] = -b[i]
    # tableau [A | I | b]
    tab = [a_eq[i] + [Fraction(int(j == i)) for j in range(rows)] + [b[i]] for i in range(rows)]
    total = cols + rows
    basis = [cols + i for i in range(rows)]
    cost = [Fraction(0)] * cols + [Fraction(1)] * rows
    while True:
        entering = -1
        for j in range(total):
            if j in basis:
                continue
            z = sum(cost[basis[i]] * tab[i][j] for i in range(rows))
            if z - cost[j] > 0:
                entering = j
                break
        if entering < 0:
            break
        best = None
        for i in range(rows):
            if tab[i][entering] > 0:
                key = (tab[i][total] / tab[i][entering], basis[i])
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            raise AssertionError("phase-1 objective unbounded")
        r = best[1]
        pv = tab[r][entering]
        tab[r] = [v / pv for v in tab[r]]
        for i in range(rows):
            if i != r and tab[i][entering] != 0:
                factor = tab[i][entering]
                tab[i] = [u - factor * v for u, v in zip(tab[i], tab[r])]
        basis[r] = entering
    if sum(cost[basis[i]] * tab[i][total] for i in range(rows)) == 0:
        x = [Fraction(0)] * cols
        for i, bv in enumerate(basis):
            if bv < cols:
                x[bv] = tab[i][total]
        return "x", x
    # B^T y = c_B; row k of B^T is basic column basis[k] of [A | I]
    bt = [[a_eq[i][j] if j < cols else Fraction(int(i == j - cols)) for i in range(rows)] for j in basis]
    return "y", dense_gauss_jordan(bt, [cost[j] for j in basis], rows)[1]


def regularity_scan_oracle(ideal, bound):
    """Whether H^{-1} of the Koszul complex vanishes in every internal
    degree up to bound, ranked degree by degree.

    The truncated certificate that the regularity guard used to give: a
    False answer proves that the graded sequence is not regular, a True
    one holds only up to the bound.  A bound below the lowest degree in
    K^{-1} would check no degree, so it is refused.
    """
    cx = build_koszul(ideal).complex
    low = min(b.weight for b in cx.basis(-1))
    if bound < low:
        raise ValueError(f"degree bound {bound} is below the lowest degree {low} to check")
    return all(homology_rank(cx, -1, d) == 0 for d in range(low, bound + 1))


def normal_form_oracle(f, basis):
    """The remainder of f on full division by the basis in the order of
    Poly.leading_term (Cox-Little-O'Shea, ch. 2 section 3), with rational
    arithmetic and the public Poly operations only."""
    rem, p = Poly.zero(f.n), f
    while not p.is_zero():
        e, c = p.leading_term()
        for g in basis:
            lt, lc = g.leading_term()
            if all(a >= b for a, b in zip(e, lt)):
                p = p - Poly.monomial(f.n, [a - b for a, b in zip(e, lt)], Fraction(c) / lc) * g
                break
        else:
            rem = rem + Poly.monomial(f.n, e, c)
            p = p - Poly.monomial(f.n, e, c)
    return rem
