"""Independent oracles used by the test suite.

These deliberately avoid the library's own algorithms: the Koszul
differential is expanded by a recursive Leibniz evaluator, Newton
polyhedron membership is decided by brute-force enumeration of candidate
LP bases, matrix products are sums of the public binary operations,
regularity is read off Koszul homology ranks, not off a Groebner basis,
division by a list of polynomials, and by one polynomial to its
remainder, runs over Fractions on Poly.leading_term,
Cousin coboundaries are searched for under bounded denominators and
degrees, not decided by ideal membership, powers of an Atiyah cocycle
are composed from scratch, not read from the powers the cocycle keeps,
the local trace tests the index sets of every stored entry and sums
one signed public Form per entry, with no cached plan and no raw
accumulator,
the Hom-complex bracket wedges the differentials wrapped as degree-0
forms, not multiplied by their Poly entries, Hom-complex coboundaries
are solved from equations assembled one target entry at a time, not
from the differentials' stored nonzeros, the products behind both
coboundary decisions are assembled afresh for each call and solved as one
system over all wedge indices, not replayed on a factored block per
distinct wedge-index block that the complex or the sequence keeps,
and the extension ladder's sigma, delta'' and verdict are summed entry
by entry over dense rows, not composed as chain maps.

Some functions are not oracles but constructions that only the tests use:
the graded component matrices and homology ranks of a complex (the
regularity scan and the cone checks rank them), and, at the end, the
differential as a chain map, a matrix as dense rows (of polynomials for
a polynomial map) and dense rows in the stored sparse form, the split ladder of free modules, the
contraction of a Cousin element against a derivation, the x_i^2 ladder
and seeded maps with non-integral Fraction coefficients.
"""
from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import partial
from math import comb

from atkernel import linalg
from atkernel.atiyah import atiyah_cocycle
from atkernel.chaincore import (
    ChainMap,
    GradingError,
    ShapeError,
    _entrywise,
    _product,
    _settle,
    compose,
    hom_bracket,
    identity_map,
    is_cocycle,
    monomials_of_weighted_degree,
    zero_map,
)
from atkernel.coboundary import GradedSolveReport, _form_of_terms, internal_degree_layers
from atkernel.cousin import CousinElement, LocalizedForm, cousin_differential, cousin_zero
from atkernel.groebner import membership_excess
from atkernel.koszul import KoszulComplex, RegularSequenceIdeal, build_koszul, index_sets
from atkernel.ladder import ExtensionLadder, _free_module, _poly_map
from atkernel.polyforms import (
    ArityError,
    Form,
    Poly,
    _canon,
    _form_from_acc,
    _merge_indices,
    _wedge_into,
    contract_form,
    exterior_derivative,
    wedge,
)


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


def wedge_matmul_oracle(a, b, n, out_deg):
    """Entry (i, j) is the running sum of wedge(a[i][m], b[m][j])."""
    rows, mid, cols = len(a), len(b), len(b[0])
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


def component_basis(c, i, d):
    """Q-basis of the degree-i part in internal degree d: (basis idx, monomial)."""
    if not c.graded:
        raise GradingError("component basis needs a graded complex")
    out = []
    for idx, b in enumerate(c.basis(i)):
        for expt in monomials_of_weighted_degree(c.n, c.var_weights, d - b.weight):
            out.append((idx, expt))
    return out


def component_matrix(c, i, d, src=None, tgt=None):
    """Sparse matrix of d(i) on the internal-degree-d component over Q.

    src and tgt, when given, are the component bases in degrees i and i+1.
    """
    src = component_basis(c, i, d) if src is None else src
    tgt = component_basis(c, i + 1, d) if tgt is None else tgt
    tgt_index = {key: pos for pos, key in enumerate(tgt)}
    mat = [{} for _ in tgt]
    for col, (s_idx, expt) in enumerate(src):
        for t_idx in range(c.rank(i + 1)):
            entry = c.entry(i, t_idx, s_idx)
            for e2, coeff in entry.terms.items():
                key = (t_idx, tuple(a + b for a, b in zip(expt, e2)))
                row = tgt_index.get(key)
                if row is None:
                    raise GradingError("inhomogeneous differential entry")
                # distinct (t_idx, e2) give distinct keys: one write per entry
                mat[row][col] = coeff
    return src, tgt, mat


def homology_rank(c, i, d):
    """dim_Q H^i(C)_d for a graded complex."""
    basis = component_basis(c, i, d)
    src, tgt, mat_out = component_matrix(c, i, d, src=basis)
    rank_out = linalg.rank(mat_out) if src and tgt else 0
    src_in, tgt_in, mat_in = component_matrix(c, i - 1, d, tgt=basis)
    rank_in = linalg.rank(mat_in) if src_in and tgt_in else 0
    return len(src) - rank_out - rank_in


def component_matrix_oracle(c, i, src, tgt):
    """Matrix of d(i) on the component bases src -> tgt, accumulated naively.

    Column j is d applied to src[j] = (basis index, exponent): each target
    entry is the public product d[t][s] * x^exponent, and its coefficients
    are added into the matrix one by one, dropping zeros at the end.
    """
    tgt_index = {key: pos for pos, key in enumerate(tgt)}
    mat = [{} for _ in tgt]
    for col, (s_idx, expt) in enumerate(src):
        for t_idx in range(c.rank(i + 1)):
            image = c.entry(i, t_idx, s_idx) * Poly.monomial(c.n, expt)
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


def divmod_single_oracle(f, divisor):
    """(quotient, remainder) of graded-lex division of f by one polynomial,
    the remainder canonical, rebuilt with the public Poly operations at
    every step and run to the end.  A single divisor generates its ideal
    as its own Groebner basis, so the remainder vanishes exactly when
    divisor | f."""
    if f.n != divisor.n:
        raise ArityError(f"arity mismatch: {f.n} vs {divisor.n}")
    if divisor.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    lt_e, lt_c = divisor.leading_term()
    quot = Poly.zero(f.n)
    rem = Poly.zero(f.n)
    work = f
    while not work.is_zero():
        e, c = work.leading_term()
        if all(a >= b for a, b in zip(e, lt_e)):
            q = Poly.monomial(f.n, tuple(a - b for a, b in zip(e, lt_e)), Fraction(c, lt_c))
            quot = quot + q
            work = work - q * divisor
        else:
            t = Poly.monomial(f.n, e, c)
            rem = rem + t
            work = work - t
    return quot, rem


def cousin_search_oracle(
    target: CousinElement, m_bound: int = 4, extra_degree: int = 2
) -> CousinElement | None:
    """Search for b of degree q-1 with d(b) = target, bounded denominators.

    Unknown numerators run over monomials up to a degree bound derived
    from the cleared target; returns the witness or None.  The bounded
    search the Cousin decision replaced: a witness proves a coboundary,
    None holds only within the bounds.
    """
    q = target.q
    if target.degree != q or q == 0:
        return None
    n = target.n
    full = tuple(range(1, q + 1))
    fdeg = target.entries.get(full)
    form_degree = fdeg.num.degree if fdeg else 0
    for m in range(1, m_bound + 1):
        lifted = target.entries.get(full)
        t_m = lifted.m if lifted else 0
        if lifted and t_m > m:
            continue
        target_num = (
            lifted.num.mul_poly(target.f_alpha(full) ** (m - t_m))
            if lifted
            else Form.zero(n, form_degree)
        )
        target_deg = max(
            (c.total_degree() for c in target_num.terms.values()), default=0
        )
        # unknowns: coefficients of num_i, i = missing index, over monomials
        idx_tuples = list(itertools.combinations(range(n), form_degree))
        var_index: dict[tuple, int] = {}
        for i in range(1, q + 1):
            fdeg_i = target.seq[i - 1].total_degree()
            deg_bound = max(target_deg - m * fdeg_i + extra_degree, 0)
            monos = []
            for total in range(deg_bound + 1):
                monos.extend(
                    e
                    for e in itertools.product(range(total + 1), repeat=n)
                    if sum(e) == total
                )
            for idx in idx_tuples:
                for e in monos:
                    var_index[(i, idx, e)] = len(var_index)
        # d(b) at full = sum_i -(-1)^{i-1} num_i * f_i^m; the terms of f_i^m
        # give distinct keys, so each entry is set once
        rows: dict[tuple, linalg.Row] = {}
        rhs: dict[tuple, Fraction] = {}
        for idx, coeff in target_num.terms.items():
            for e, c in coeff.terms.items():
                rhs[(idx, e)] = c
        fpows = [f ** m for f in target.seq]
        for (i, idx, e), vi in var_index.items():
            sign = -((-1) ** (i - 1))
            for e2, c2 in fpows[i - 1].terms.items():
                key = (idx, tuple(a + b for a, b in zip(e, e2)))
                rows.setdefault(key, {})[vi] = sign * c2
        keys = list(set(rows) | set(rhs))
        solved = linalg.solve(
            [rows.get(key, {}) for key in keys],
            [[rhs.get(key, Fraction(0)) for key in keys]],
            len(var_index),
        )
        if solved is None:
            continue
        solution = solved[0]
        entries: dict[tuple[int, ...], LocalizedForm] = {}
        for (i, idx, e), vi in var_index.items():
            value = solution[vi]
            if value == 0:
                continue
            alpha = tuple(j for j in full if j != i)
            add = Form(n, form_degree, {idx: Poly.monomial(n, e, value)})
            lf = LocalizedForm(add, m)
            if alpha in entries:
                prev = entries[alpha]
                entries[alpha] = LocalizedForm(prev.num + add, m)
            else:
                entries[alpha] = lf
        witness = CousinElement(n, target.seq, q - 1, entries)
        if cousin_differential(witness) == target:
            return witness
    return None


def atiyah_power_oracle(at, k):
    """At^k as k - 1 fresh compositions compose(At, acc), with no zero
    short cut; k = 0 is the identity."""
    if k == 0:
        return identity_map(at.chain_map.source)
    acc = at.chain_map
    for _ in range(k - 1):
        acc = compose(at.chain_map, acc)
    return acc


def local_trace_oracle(u: ChainMap, k: KoszulComplex) -> CousinElement:
    """Trace a Koszul endomorphism into a Cousin representative, entry by
    entry: index-set algebra and a signed public Form sum per entry.

    Expands u in the dual-gamma basis, pairs against the canonical
    section, whose sign at alpha is (-1)^{binom(|alpha|,2)}, and applies
    the supertrace.  The entry from gf_alpha to gf_beta contributes only
    when beta is contained in alpha, landing on delta f_{alpha minus beta}.
    """
    if u.source != k.complex or u.target != k.complex:
        raise ShapeError("local_trace needs an endomorphism of the Koszul complex")
    d = u.degree
    if d < 0 or d > k.q:
        return cousin_zero(k.n, k.ideal.polys, min(max(d, 0), k.q))
    acc: dict[tuple[int, ...], Form] = {}
    for i, t, s, entry in u.nonzeros():
        p_beta = -i - d
        alpha, beta = index_sets(k.q, -i)[s], index_sets(k.q, p_beta)[t]
        aset = set(alpha)
        if not aset.issuperset(beta):
            continue
        alpha_prime = tuple(sorted(aset - set(beta)))
        shuffle, _ = _merge_indices(beta, alpha_prime)
        p_prime = len(alpha_prime)
        sign = (-1) ** comb(p_prime, 2) * shuffle * (-1) ** (p_beta * (1 + p_prime))
        add = entry.scale(sign)
        acc[alpha_prime] = acc.get(alpha_prime, Form.zero(k.n, u.form_degree)) + add
    entries = {
        alpha: LocalizedForm(num, 1 if alpha else 0)
        for alpha, num in acc.items()
        if not num.is_zero()
    }
    return CousinElement(k.n, k.ideal.polys, d, entries)


def hom_bracket_oracle(h: ChainMap) -> ChainMap:
    """[d,h] = d h - (-1)^{|h|} h d with both differentials wrapped as
    degree-0 Forms and every product a wedge, not a polynomial times a form."""
    r = h.degree
    src, tgt = h.source, h.target
    build = partial(_form_from_acc, src.n, h.form_degree)
    dt = tgt.entrywise(Form.from_poly)
    ds = dt if src is tgt else src.entrywise(Form.from_poly)
    mats = {}
    for i in sorted(set(h.mats) | {j - 1 for j in h.mats}):
        acc = _product({}, dt.get(i + r, {}), h.mats.get(i, {}), _wedge_into)
        _product(acc, h.mats.get(i + 1, {}), ds.get(i, {}), _wedge_into, negate=r % 2 == 0)
        mat = _settle(acc, build)
        if mat:
            mats[i] = mat
    return ChainMap._raw(src, tgt, r + 1, h.form_degree, mats)


def solve_coboundary_oracle(c: ChainMap) -> GradedSolveReport:
    """Hom-complex coboundaries with the equations assembled one target
    entry at a time, over every (t, s) pair and every row of the source
    differential; chaincore.solve_coboundary must give the same witness.

    Decide exactly whether c = [d,h] for some graded h; witness on success.

    Both complexes must be graded over matching weights; c must be a
    cocycle.  The solve runs once per internal degree appearing in c,
    where the space of candidate entries is finite-dimensional.
    """
    src, tgt = c.source, c.target
    if not (src.graded and tgt.graded) or src.var_weights != tgt.var_weights:
        raise GradingError("solve_coboundary requires graded complexes")
    if not is_cocycle(c):
        raise ShapeError("solve_coboundary requires a cocycle input")
    r_h = c.degree - 1
    k = c.form_degree
    n = src.n
    weights = src.var_weights
    if c.is_zero():
        return GradedSolveReport(True, zero_map(src, tgt, r_h, k))
    layers = internal_degree_layers(c)
    total_witness = zero_map(src, tgt, r_h, k)
    for d_internal, layer in sorted(layers.items()):
        # unknown entries h_i[t][s]; blocks[(i, t, s)] lists (idx, expt, var)
        blocks: dict[tuple[int, int, int], list[tuple]] = {}
        num_vars = 0
        for i in src.support():
            tb = tgt.basis(i + r_h)
            sb = src.basis(i)
            for t, tbe in enumerate(tb):
                for s, sbe in enumerate(sb):
                    entry_deg = sbe.weight - tbe.weight + d_internal
                    block = []
                    for idx in itertools.combinations(range(n), k):
                        mono_deg = entry_deg - sum(weights[j] for j in idx)
                        for expt in monomials_of_weighted_degree(n, weights, mono_deg):
                            block.append((idx, expt, num_vars))
                            num_vars += 1
                    if block:
                        blocks[(i, t, s)] = block
        rows_eq: list[linalg.Row] = []
        rhs_eq: list[Fraction] = []
        sign = (-1) ** (r_h % 2)
        lo = min(src.support() + tgt.support()) - 1
        hi = max(src.support() + tgt.support()) + 1
        for i in range(lo, hi):
            rows = tgt.rank(i + r_h + 1)
            cols = src.rank(i)
            if rows == 0 or cols == 0:
                continue
            dt = tgt.diff.get(i + r_h, {})
            ds = src.diff.get(i, {})
            for t in range(rows):
                for s in range(cols):
                    rows_by_key: dict[tuple, dict[int, Fraction]] = {}
                    rhs_by_key: dict[tuple, Fraction] = {}
                    for idx, coeff in layer.entry(i, t, s).terms.items():
                        for expt, q in coeff.terms.items():
                            rhs_by_key[(idx, expt)] = q
                    # d o h contribution; its unknowns and those of h o d are disjoint,
                    # and one unknown's terms give distinct keys: each entry is set once
                    for m, dpoly in dt.get(t, {}).items():
                        for idx, expt, vi in blocks.get((i, m, s), ()):
                            for e2, q2 in dpoly.terms.items():
                                tot = tuple(a + b for a, b in zip(expt, e2))
                                row = rows_by_key.setdefault((idx, tot), {})
                                row[vi] = q2
                    # h o d contribution with sign -(-1)^{r_h}
                    for m in range(src.rank(i + 1)):
                        spoly = ds.get(m, {}).get(s)
                        if spoly is None:
                            continue
                        for idx, expt, vi in blocks.get((i + 1, t, m), ()):
                            for e2, q2 in spoly.terms.items():
                                tot = tuple(a + b for a, b in zip(expt, e2))
                                row = rows_by_key.setdefault((idx, tot), {})
                                row[vi] = -sign * q2
                    for key in set(rows_by_key) | set(rhs_by_key):
                        rows_eq.append(rows_by_key.get(key, {}))
                        rhs_eq.append(rhs_by_key.get(key, Fraction(0)))
        solved = linalg.solve(rows_eq, [rhs_eq], num_vars)
        if solved is None:
            return GradedSolveReport(False, None)
        solution = solved[0]
        # mats[i][t][s][idx] holds the terms {expt: value} of one witness entry
        mats: dict[int, dict] = {}
        for (i, t, s), block in blocks.items():
            for idx, expt, vi in block:
                if solution[vi]:
                    entry = mats.setdefault(i, {}).setdefault(t, {}).setdefault(s, {})
                    entry.setdefault(idx, {})[expt] = _canon(solution[vi])
        witness = _entrywise(mats, partial(_form_of_terms, n, k))
        total_witness = total_witness + ChainMap._raw(src, tgt, r_h, k, witness)
    if hom_bracket(total_witness) != c:
        raise AssertionError("solver produced an unsound witness")
    return GradedSolveReport(True, total_witness)


def solve_products_oracle(supports: dict, products, rhs: dict, n: int, k: int) -> dict | None:
    """coboundary._solve_products as one system over every wedge index and
    one right-hand side, not a factored block replayed per wedge index;
    both must return the same forms.

    Unknown k-forms u_key with sum(sign * poly * u_key) = rhs[slot] in
    every slot, summed over the products (slot, key, poly, sign); each
    (slot, key) pair occurs at most once.  supports maps a key to the
    (idx, expt) terms its form may have, which number the unknowns in
    order; rhs maps slots to forms.  Returns {key: form} for the nonzero
    unknowns of the one particular solution, or None when there is none.
    """
    first = {}
    num_vars = 0
    for key, terms in supports.items():
        first[key] = num_vars
        num_vars += len(terms)
    # one Q-linear equation per (slot, idx, expt); one product's terms give
    # distinct equations, so each entry is set once
    rows: dict[tuple, linalg.Row] = {}
    for slot, key, poly, sign in products:
        for vi, (idx, expt) in enumerate(supports[key], first[key]):
            for e2, q in poly.terms.items():
                rows.setdefault((slot, idx, tuple(map(operator.add, expt, e2))), {})[vi] = sign * q
    values = {
        (slot, idx, expt): q
        for slot, form in rhs.items()
        for idx, coeff in form.terms.items()
        for expt, q in coeff.terms.items()
    }
    keys = list(rows.keys() | values.keys())
    solved = linalg.solve([rows.get(e, {}) for e in keys], [[values.get(e, 0) for e in keys]],
                          num_vars)
    if solved is None:
        return None
    solution = solved[0]
    out = {}
    for key, terms in supports.items():
        acc: dict = {}
        for vi, (idx, expt) in enumerate(terms, first[key]):
            if solution[vi]:
                acc.setdefault(idx, {})[expt] = solution[vi]
        if acc:
            out[key] = _form_of_terms(n, k, acc)
    return out


def graded_products_oracle(c: ChainMap) -> list:
    """coboundary._solve_coboundary's per-layer answers, from the systems
    that the solver assembled afresh on every call before it kept factored
    blocks: the supports of every (i, t, s) over every wedge index of form
    degree k, and the products of both differentials, solved by
    solve_products_oracle.  One answer per internal degree, in increasing
    order, up to the first None."""
    src, tgt = c.source, c.target
    r_h, k, n, weights = c.degree - 1, c.form_degree, src.n, src.var_weights
    columns: dict[tuple, list] = {}
    for j, t, m, p in tgt.nonzeros():
        columns.setdefault((j - r_h, m), []).append((t, p))
    sign = -((-1) ** (r_h % 2))
    idx_weights = [(idx, sum(weights[j] for j in idx))
                   for idx in itertools.combinations(range(n), k)]
    answers = []
    for d_internal, layer in sorted(internal_degree_layers(c).items()):
        supports = {}
        for i in src.support():
            for t, tbe in enumerate(tgt.basis(i + r_h)):
                for s, sbe in enumerate(src.basis(i)):
                    entry_deg = sbe.weight - tbe.weight + d_internal
                    terms = [(idx, expt) for idx, w in idx_weights
                             for expt in monomials_of_weighted_degree(n, weights, entry_deg - w)]
                    if terms:
                        supports[(i, t, s)] = terms
        products = []
        for key in supports:
            i, t, s = key
            for row, p in columns.get((i, t), ()):
                products.append(((i, row, s), key, p, 1))
            for col, p in src.diff.get(i - 1, {}).get(s, {}).items():
                products.append(((i - 1, t, col), key, p, sign))
        rhs = {(i, t, s): f for i, t, s, f in layer.nonzeros()}
        answers.append(solve_products_oracle(supports, products, rhs, n, k))
        if answers[-1] is None:
            break
    return answers


def cousin_products_oracle(target: CousinElement) -> dict | None:
    """coboundary._solve_cousin_coboundary's cofactors {i: num_i} of a
    member target, from the system that the decision assembled afresh on
    every call before it kept factored blocks: supports over the wedge
    indices of the target's numerator only, solved by
    solve_products_oracle."""
    q, n = target.q, target.n
    full = tuple(range(1, q + 1))
    num, m = target.entries[full].num, target.entries[full].m
    fpows = [f ** m for f in target.seq]
    top = (max(c.total_degree() for c in num.terms.values())
           + membership_excess(fpows, num.terms.values()))
    units = (1,) * n
    supports = {
        i: [(idx, e)
            for d in range(top - fpow.total_degree() + 1)
            for e in monomials_of_weighted_degree(n, units, d)
            for idx in num.terms]
        for i, fpow in enumerate(fpows, 1)
    }
    products = [(full, i, fpow, -((-1) ** (i - 1))) for i, fpow in enumerate(fpows, 1)]
    return solve_products_oracle(supports, products, {full: num}, n, num.degree)


def differential_map(c):
    """The differential itself as a degree-1, form-degree-0 chain map."""
    return ChainMap(c, c, 1, 0, c.entrywise(Form.from_poly))


def dense(m, i):
    """Matrix i of a complex's differential or of a chain map as a list of
    rows, zero entries included."""
    if isinstance(m, ChainMap):
        rows, cols = m.target.rank(i + m.degree), m.source.rank(i)
    else:
        rows, cols = m.rank(i + 1), m.rank(i)
    return [[m.entry(i, t, s) for s in range(cols)] for t in range(rows)]


def sparse(rows):
    """Dense rows in the stored form {row: {col: entry}}: nonzero entries
    only, no empty row."""
    out = {t: {s: x for s, x in enumerate(row) if x.terms} for t, row in enumerate(rows)}
    return {t: row for t, row in out.items() if row}


def split_free_ladder(rank_prime: int, rank_dprime: int, n: int) -> ExtensionLadder:
    """Trivial split sequence of free modules (everything is its own resolution)."""
    rank = rank_prime + rank_dprime
    p_prime = _free_module(n, [f"q{i}" for i in range(rank_prime)])
    p_dprime = _free_module(n, [f"r{i}" for i in range(rank_dprime)])
    f_prime = _free_module(n, [f"w{s}" for s in range(rank_prime)])
    middle = _free_module(n, [f"e{i}" for i in range(rank)])
    f_dprime = _free_module(n, [f"v{t}" for t in range(rank_dprime)])
    total = _free_module(n, [f"t{i}" for i in range(rank)])
    one = Poly.one(n)

    def unit_rows(rows, cols, offset):
        # row t has its one in column t - offset
        return [[one if t == s + offset else Poly.zero(n) for s in range(cols)]
                for t in range(rows)]

    return ExtensionLadder(
        n=n,
        j=_poly_map(f_prime, middle, unit_rows(rank, rank_prime, 0)),
        p=_poly_map(middle, f_dprime, unit_rows(rank_dprime, rank, -rank_prime)),
        p_prime=p_prime,
        p_dprime=p_dprime,
        total=total,
        iota=_poly_map(p_dprime, total, unit_rows(rank, rank_dprime, rank_prime)),
        pi=_poly_map(total, middle, unit_rows(rank, rank, 0)),
        pi_dprime=_poly_map(p_dprime, f_dprime, unit_rows(rank_dprime, rank_dprime, 0)),
    )


# -- the extension ladder by dense loops ------------------------------------


def poly_rows(u, i):
    """Matrix i of a polynomial (form-degree-0) map as dense Poly rows."""
    return [[x.to_poly() for x in row] for row in dense(u, i)]


def second_fundamental_form_oracle(j_matrix, p_matrix, middle, relation=None):
    """sigma = p . d(j) from dense rows, one entry product at a time, after
    refusing a nonzero entry of p . j that the relation, if any, does not
    divide."""
    n = middle.n
    mid_rank = middle.rank(0)
    if middle.support() != [0] or mid_rank == 0:
        raise ShapeError("middle term must be a free module in degree 0")
    cols_j = len(j_matrix[0]) if j_matrix else 0
    rows_p = len(p_matrix)
    if len(j_matrix) != mid_rank or any(len(r) != cols_j for r in j_matrix):
        raise ShapeError("j matrix shape mismatch")
    if any(len(r) != mid_rank for r in p_matrix):
        raise ShapeError("p matrix shape mismatch")
    for t in range(rows_p):
        for s in range(cols_j):
            acc = Poly.zero(n)
            for m in range(mid_rank):
                acc = acc + p_matrix[t][m] * j_matrix[m][s]
            if relation is not None:
                acc = divmod_single_oracle(acc, relation)[1]
            if not acc.is_zero():
                raise ShapeError("p o j != 0")
    source = _free_module(n, [f"w{s}" for s in range(cols_j)])
    target = _free_module(n, [f"v{t}" for t in range(rows_p)])
    mat = []
    for t in range(rows_p):
        row = []
        for s in range(cols_j):
            acc = Form.zero(n, 1)
            for m in range(mid_rank):
                acc = acc + exterior_derivative(j_matrix[m][s]).mul_poly(p_matrix[t][m])
            row.append(acc)
        mat.append(tuple(row))
    return ChainMap(source, target, 0, 1, {0: tuple(mat)})


def connecting_delta_oracle(p_matrix, pi, total, split, p_dprime):
    """delta'' = -(sigma~ o d) on the P''-columns of the total resolution,
    where sigma~ = p . d(pi) on its degree-0 basis; pi and p are dense
    rows and split[i] counts the P'-columns of total in degree i."""
    n = total.n
    fpp_rank = len(p_matrix)
    cols = total.rank(0)
    st = [[Form.zero(n, 1) for _ in range(cols)] for _ in range(fpp_rank)]
    for b in range(cols):
        for m in range(len(pi)):
            coeff = pi[m][b]
            if coeff.is_zero():
                continue
            for t in range(fpp_rank):
                st[t][b] = st[t][b] + exterior_derivative(coeff).mul_poly(p_matrix[t][m])
    split_m1 = split.get(-1, 0)
    mat = []
    for t in range(fpp_rank):
        row = []
        for s in range(p_dprime.rank(-1)):
            acc = Form.zero(n, 1)
            for m in range(cols):
                acc = acc + st[t][m].mul_poly(total.entry(-1, m, split_m1 + s))
            row.append(-acc)
        mat.append(row)
    target = _free_module(n, [f"v{t}" for t in range(fpp_rank)])
    return ChainMap(p_dprime, target, 1, 1, {-1: mat})


def ladder_verdict_oracle(delta, pi_dprime, p_dprime):
    """exact when delta'' + pi'' . At of p_dprime, projected entry by
    entry from degree -1 onto the F'' generators, is zero, else FAIL."""
    at = atiyah_cocycle(p_dprime).chain_map
    mat = []
    for pi_row in pi_dprime:
        row = []
        for s in range(p_dprime.rank(-1)):
            acc = Form.zero(p_dprime.n, 1)
            for m, coeff in enumerate(pi_row):
                acc = acc + at.entry(-1, m, s).mul_poly(coeff)
            row.append(acc)
        mat.append(row)
    projected = ChainMap(p_dprime, delta.target, 1, 1, {-1: mat})
    return "exact" if (delta + projected).is_zero() else "FAIL"


def contract_cousin(values, c):
    """Contract each numerator form against a derivation; degree-0
    numerators are killed."""
    entries = {}
    for alpha, lf in c.entries.items():
        if lf.num.degree == 0:
            continue
        num = contract_form(values, lf.num)
        if not num.is_zero():
            entries[alpha] = LocalizedForm(num, lf.m)
    return CousinElement(c.n, c.seq, c.degree, entries)


def square_ladder(q):
    """The sequence x_1^2, ..., x_q^2 in q variables."""
    polys = tuple(Poly.monomial(q, tuple(2 * (j == i) for j in range(q))) for i in range(q))
    return RegularSequenceIdeal(q, polys, (1,) * q)


def fraction_poly(rng, ideal):
    """A poly with non-integral Fraction coefficients, sometimes a multiple
    of a sequence element, so that lowest terms divide something out."""
    n = ideal.n
    terms = {
        tuple(rng.randint(0, 2) for _ in range(n)): Fraction(rng.choice([-5, -3, -1, 1, 2, 7]),
                                                             rng.randint(1, 4))
        for _ in range(rng.randint(1, 2))
    }
    p = Poly(n, terms)
    return p * rng.choice(ideal.polys) if rng.random() < 0.3 else p


def fraction_form(rng, ideal, k):
    idxs = list(itertools.combinations(range(ideal.n), k))
    chosen = rng.sample(idxs, min(2, len(idxs)))
    return Form(ideal.n, k, {idx: fraction_poly(rng, ideal) for idx in chosen})


def fraction_map(rng, kz, d, k, per_matrix=24, target=None):
    """A map from kz's complex to target's (kz's when None) of degree d and
    form degree k with up to per_matrix entries in each matrix, drawn from
    all its positions, whether or not the local trace reads them."""
    cx = kz.complex
    tgt = cx if target is None else target.complex
    mats = {}
    for i in cx.support():
        pairs = list(itertools.product(range(tgt.rank(i + d)), range(cx.rank(i))))
        mat = mats[i] = {}
        for t, s in rng.sample(pairs, min(per_matrix, len(pairs))):
            mat.setdefault(t, {})[s] = fraction_form(rng, kz.ideal, k)
    return ChainMap(cx, tgt, d, k, mats)
