"""Independent oracles used by the test suite.

These deliberately avoid the library's own algorithms: the Koszul
differential is expanded by a recursive Leibniz evaluator, Newton
polyhedron membership is decided by brute-force enumeration of candidate
LP bases, matrix products are sums of the public binary operations,
regularity is read off Koszul homology ranks, not off a Groebner basis,
division by a list of polynomials, and by one polynomial to its
remainder, runs over Fractions on Poly.leading_term (read through tuple_terms),
Cousin coboundaries are searched for under bounded denominators and
degrees, not decided by ideal membership, powers of an Atiyah cocycle
are composed from scratch, not read from the powers the cocycle keeps,
or, on a Koszul complex, written down entry by entry from the closed
form (-1)^k k! sum df_I ^ iota_I, with no composition,
the local trace tests the index sets of every stored entry and sums
one signed public Form per entry, with no cached plan, no raw
accumulator and no grouping of entries that share one object, a
contraction contracts every stored entry on its own,
the Hom-complex bracket wedges the differentials wrapped as degree-0
forms, not multiplied by their Poly entries,
and the extension ladder's sigma, delta'' and verdict are summed entry
by entry over dense rows, not composed as chain maps.

Each coboundary decision has one reference, which assembles its whole
system afresh on every call and solves it once with gauss_jordan, a
Gauss-Jordan elimination over Q that shares no code with linalg's
fraction-free reduced echelon form and the solution columns it reads
off, as every exact solve here:

- coboundary_reference, for [d,h] = c, reads both differentials entry by
  entry at every position, with none of coboundary's term stream, kept
  blocks or _solve_products;
- cousin_reference, for d(b) = target in top degree, multiplies the
  public powers f_i^m, with no block kept by (sequence, m, top).  It
  takes the decision's Groebner bound top as given, so it checks the
  solve, not the bound.

Some functions are not oracles but constructions that only the tests use:
the graded component matrices and homology ranks of a complex (the
regularity scan and the cone checks rank each as the number of pivots
of its linalg.Factorization, so the scan is independent of the Groebner
guard, not of elimination), and, at the end, the differential as a chain
map, a matrix as dense rows (of polynomials for a polynomial map) and
dense rows in the stored sparse form, the split ladder of free modules,
the contraction of a Cousin element against a derivation, the x_i^2
ladder and seeded maps with non-integral Fraction coefficients.
"""
from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import partial
from math import comb, factorial

from atkernel import linalg
from atkernel.atiyah import atiyah_cocycle
from atkernel.chaincore import (
    ChainMap,
    GradingError,
    ShapeError,
    _product,
    _settle,
    compose,
    identity_map,
    monomials_of_weighted_degree,
)
from atkernel.cousin import CousinElement, LocalizedForm, cousin_differential
from atkernel.koszul import KoszulComplex, RegularSequenceIdeal, build_koszul, index_sets
from atkernel.ladder import ExtensionLadder, _free_module, _poly_map
from atkernel.polyforms import (
    ArityError,
    Form,
    Poly,
    _form_from_acc,
    _merge_indices,
    _wedge_into,
    contract_form,
    exterior_derivative,
    unpack,
    wedge,
)


def tuple_terms(p: Poly) -> dict:
    """p's terms keyed by exponent tuple, leading term first and then down
    in Poly's order: the one place the tests read Poly's packed keys.  The
    first item is Poly.leading_term, unpacked."""
    items = p.sorted_terms()
    assert not items or items[0] == p.leading_term()
    return {unpack(e, p.n): c for e, c in items}


def lead(p: Poly) -> tuple:
    """(exponent tuple, coefficient) of p's leading term, from tuple_terms."""
    return next(iter(tuple_terms(p).items()))


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
                rows = [dict.fromkeys(range(size), 1)]
                rhs = [1]
                for i in tight:
                    rows.append({col: gens[j][i] for col, j in enumerate(support)})
                    rhs.append(a[i])
                sol = gauss_jordan(rows, rhs, size)[1]
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


def gauss_jordan(rows, rhs, ncols):
    """Gauss-Jordan over Q (ints and Fractions) on sparse rows {col:
    value}: (rank, solution or None).

    The reference for the library's fraction-free elimination: pivots are
    taken column by column, leftmost first, each pivot row is scaled to a
    leading 1 and its column is cleared from every other row, and free
    variables are zero.  The right-hand side rides along as column ncols.
    """
    work = [{c: v for c, v in row.items() if v} for row in rows]
    holders: dict[int, set] = {}  # column -> the rows with an entry there
    for r, (row, b) in enumerate(zip(work, rhs)):
        if b:
            row[ncols] = b
        for c in row:
            holders.setdefault(c, set()).add(r)
    pivots = {}  # column -> its pivot row
    taken = set()  # the pivot rows
    for c in range(ncols):
        free = holders.get(c, set()) - taken
        if not free:
            continue
        p = pivots[c] = min(free)
        taken.add(p)
        prow, pc = work[p], work[p][c]
        if pc != 1:
            for j, v in prow.items():
                prow[j] = Fraction(v, pc)
        for r in holders[c] - {p}:
            row, factor = work[r], work[r][c]
            for j, v in prow.items():
                w = row.get(j, 0) - factor * v
                if w:
                    if j not in row:
                        holders.setdefault(j, set()).add(r)
                    row[j] = w
                else:
                    del row[j]
                    holders[j].discard(r)
    # a row with no pivot has no entry left but its right-hand side: 0 = b
    if holders.get(ncols, set()) - taken:
        return len(pivots), None
    solution = [Fraction(0)] * ncols
    for c, p in pivots.items():
        solution[c] = work[p].get(ncols, Fraction(0))
    return len(pivots), solution


def solve_keyed(rows, rhs, ncols):
    """gauss_jordan's solution, or None, for equations keyed alike in rows
    {key: {col: value}} and rhs {key: value}; a key missing from either
    side is an empty row or a zero right-hand side."""
    keys = list(rows.keys() | rhs.keys())
    return gauss_jordan([rows.get(key, {}) for key in keys],
                        [rhs.get(key, 0) for key in keys], ncols)[1]


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


def homology_rank(c, i, d):
    """dim_Q H^i(C)_d for a graded complex."""
    basis, below = component_basis(c, i, d), component_basis(c, i - 1, d)
    out = component_matrix_oracle(c, i, basis, component_basis(c, i + 1, d))
    into = component_matrix_oracle(c, i - 1, below, basis)
    return (len(basis) - len(linalg.Factorization(out, len(basis)).pivots)
            - len(linalg.Factorization(into, len(below)).pivots))


def component_matrix_oracle(c, i, src, tgt):
    """Matrix of d(i) on the component bases src -> tgt, accumulated naively.

    Column j is d applied to src[j] = (basis index, exponent): each target
    entry is the public product d[t][s] * x^exponent, and its coefficients
    are added into the matrix one by one, dropping zeros at the end.
    """
    tgt_index = {key: pos for pos, key in enumerate(tgt)}
    mat = [{} for _ in tgt]
    for col, (s_idx, expt) in enumerate(src):
        mono = Poly.monomial(c.n, expt)
        for t_idx in range(c.rank(i + 1)):
            entry = c.entry(i, t_idx, s_idx)
            if entry.is_zero():
                continue
            for e, coeff in tuple_terms(entry * mono).items():
                row = mat[tgt_index[(t_idx, e)]]
                row[col] = row.get(col, 0) + coeff
    return [{col: v for col, v in row.items() if v} for row in mat]


def phase1_lp_oracle(a_eq, b):
    """Phase-1 simplex for {x >= 0 : A x = b} on a dense Fraction tableau.

    The reference for the library's fraction-free tableau: the same Bland
    rule (first improving column; minimum ratio, ties broken by basis
    index), every pivot and ratio a Fraction division, and the Farkas dual
    y of the final basis by Gauss-Jordan.  Returns ("x", x) or
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
    bt = [{i: a_eq[i][j] for i in range(rows)} if j < cols else {j - cols: 1} for j in basis]
    return "y", gauss_jordan(bt, [cost[j] for j in basis], rows)[1]


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
        e, c = lead(p)
        for g in basis:
            lt, lc = lead(g)
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
    lt_e, lt_c = lead(divisor)
    quot = Poly.zero(f.n)
    rem = Poly.zero(f.n)
    work = f
    while not work.is_zero():
        e, c = lead(work)
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
        rows: dict[tuple, dict] = {}
        rhs: dict[tuple, Fraction] = {}
        for idx, coeff in target_num.terms.items():
            for e, c in tuple_terms(coeff).items():
                rhs[(idx, e)] = c
        fpows = [f ** m for f in target.seq]
        for (i, idx, e), vi in var_index.items():
            sign = -((-1) ** (i - 1))
            for e2, c2 in tuple_terms(fpows[i - 1]).items():
                key = (idx, tuple(a + b for a, b in zip(e, e2)))
                rows.setdefault(key, {})[vi] = sign * c2
        solution = solve_keyed(rows, rhs, len(var_index))
        if solution is None:
            continue
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


def atiyah_power_closed_form(kz: KoszulComplex, k: int) -> ChainMap:
    """At^k on K(f) as (-1)^k k! sum_{|I|=k} df_I ^ iota_I, I sorted, built
    entry by entry with no composition: iota_I = iota_{i_1} o .. o iota_{i_k},
    and iota_i(gf_alpha) = (-1)^pos gf_{alpha minus i} for i at position pos
    of alpha, so that d = sum_i f_i iota_i.  On K(f) each factor of At is a
    sum of contractions, At = -sum_i df_i iota_i, whence the formula."""
    q, n = kz.q, kz.n
    dfs = [exterior_derivative(f) for f in kz.ideal.polys]
    mats = {}
    for p in range(k, q + 1):
        position = {beta: t for t, beta in enumerate(index_sets(q, p - k))}
        mat = mats[-p] = {}
        for s, alpha in enumerate(index_sets(q, p)):
            for subset in itertools.combinations(alpha, k):
                rest, sign = list(alpha), (-1) ** k * factorial(k)
                for i in reversed(subset):  # iota_{i_k} acts first
                    sign *= (-1) ** rest.index(i)
                    rest.remove(i)
                form = Form.from_poly(Poly.const(n, sign))
                for i in subset:
                    form = wedge(form, dfs[i - 1])
                if not form.is_zero():
                    mat.setdefault(position[tuple(rest)], {})[s] = form
    return ChainMap(kz.complex, kz.complex, k, min(k, n), mats)


def contract_derivation_oracle(values, u: ChainMap) -> ChainMap:
    """u with every stored entry contracted on its own, by
    contract_form_oracle, whether or not entries share one object."""
    mats = {}
    for i, t, s, entry in u.nonzeros():
        x = contract_form_oracle(values, entry)
        if not x.is_zero():
            mats.setdefault(i, {}).setdefault(t, {})[s] = x
    return ChainMap(u.source, u.target, u.degree, u.form_degree - 1, mats)


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
        return CousinElement(k.n, k.ideal.polys, min(max(d, 0), k.q))
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


def coboundary_reference(c: ChainMap) -> ChainMap | None:
    """The witness h with [d,h] = c that the graded decision must give, or
    None when c is no coboundary.

    One system over every internal degree and wedge index of c: an unknown
    per coefficient of h_i[t][s] in wedge index idx and exponent e, ordered
    by (i, t, s), then idx, then e in monomials_of_weighted_degree order,
    and an equation per coefficient of [d,h], read off both differentials
    entry by entry.  Its one leftmost-pivot solution, by gauss_jordan, is
    the witness.  The unknowns of one internal degree and wedge index meet
    no others, so this is the solution of every block the library keeps.
    """
    src, tgt = c.source, c.target
    r_h, k, n, weights = c.degree - 1, c.form_degree, src.n, src.var_weights
    rhs = {(i, t, s, idx, e): q
           for i, t, s, f in c.nonzeros()
           for idx, coeff in f.terms.items()
           for e, q in tuple_terms(coeff).items()}
    # internal degree: the weight of x^e dx_idx, plus weight(t) - weight(s)
    degrees = {sum(map(operator.mul, weights, e)) + sum(weights[j] for j in idx)
               + tgt.basis(i + c.degree)[t].weight - src.basis(i)[s].weight
               for i, t, s, idx, e in rhs}
    unknowns = [(i, t, s, idx, e)
                for i in src.support()
                for t, tb in enumerate(tgt.basis(i + r_h))
                for s, sb in enumerate(src.basis(i))
                for idx in itertools.combinations(range(n), k)
                for d in sorted(degrees)
                for e in monomials_of_weighted_degree(
                    n, weights, sb.weight - tb.weight + d - sum(weights[j] for j in idx))]
    # [d,h]_j = d h_j - (-1)^{r_h} h_{j+1} d_j: h_i[t][s] meets column t of
    # the target's d(i + r_h) in degree i, and row s of the source's d(i - 1)
    # in degree i - 1, so each entry of a row is set once
    sign = -((-1) ** (r_h % 2))
    rows: dict[tuple, dict] = {}
    for col, (i, t, s, idx, e) in enumerate(unknowns):
        for row in range(tgt.rank(i + r_h + 1)):
            for e2, q in tuple_terms(tgt.entry(i + r_h, row, t)).items():
                rows.setdefault((i, row, s, idx, tuple(map(operator.add, e, e2))), {})[col] = q
        for m in range(src.rank(i - 1)):
            for e2, q in tuple_terms(src.entry(i - 1, s, m)).items():
                rows.setdefault((i - 1, t, m, idx, tuple(map(operator.add, e, e2))), {})[col] = (
                    sign * q)
    solution = solve_keyed(rows, rhs, len(unknowns))
    if solution is None:
        return None
    mats: dict = {}  # mats[i][t][s][idx] holds the terms {e: value} of one entry
    for (i, t, s, idx, e), v in zip(unknowns, solution):
        if v:
            mats.setdefault(i, {}).setdefault(t, {}).setdefault(s, {}).setdefault(idx, {})[e] = v
    return ChainMap(src, tgt, r_h, k, {
        i: {t: {s: Form(n, k, {idx: Poly(n, terms) for idx, terms in entry.items()})
                for s, entry in row.items()}
            for t, row in mat.items()}
        for i, mat in mats.items()})


def cousin_reference(target: CousinElement, top: int) -> CousinElement | None:
    """The witness b with d(b) = target that the Cousin decision must give
    for a top-degree target num / f_full^m, or None when num has no
    cofactors of degree at most top.

    top is the decision's Groebner bound: the degree of num plus the
    excess of the groebner.Basis of the f_i^m.  One system over
    every wedge index of num, sum_i -(-1)^(i-1) num_i * f_i^m = num: an
    unknown per coefficient of num_i in wedge index idx and exponent e, of
    degree at most top - deg(f_i^m), ordered by i, then idx, then degree,
    then e in monomials_of_weighted_degree order, solved by gauss_jordan.
    b has num_i / f^m at full minus i.
    """
    q, n = target.q, target.n
    full = tuple(range(1, q + 1))
    num, m = target.entries[full].num, target.entries[full].m
    fpows = [f ** m for f in target.seq]
    unknowns = [(i, idx, e)
                for i, fpow in enumerate(fpows, 1)
                for idx in num.terms
                for d in range(top - fpow.total_degree() + 1)
                for e in monomials_of_weighted_degree(n, (1,) * n, d)]
    rows: dict[tuple, dict] = {}
    for col, (i, idx, e) in enumerate(unknowns):
        sign = -((-1) ** (i - 1))
        for e2, c in tuple_terms(fpows[i - 1]).items():
            rows.setdefault((idx, tuple(map(operator.add, e, e2))), {})[col] = sign * c
    rhs = {(idx, e): c
           for idx, coeff in num.terms.items() for e, c in tuple_terms(coeff).items()}
    solution = solve_keyed(rows, rhs, len(unknowns))
    if solution is None:
        return None
    nums: dict = {}  # nums[i][idx] holds the terms {e: value} of num_i
    for (i, idx, e), v in zip(unknowns, solution):
        if v:
            nums.setdefault(i, {}).setdefault(idx, {})[e] = v
    return CousinElement(n, target.seq, q - 1, {
        full[: i - 1] + full[i:]: LocalizedForm(
            Form(n, num.degree, {idx: Poly(n, terms) for idx, terms in form.items()}), m)
        for i, form in nums.items()})


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


def stored_invariant(mats):
    """No zero entry, empty row or empty matrix is stored."""
    return all(mat and all(row and all(x.terms for x in row.values()) for row in mat.values())
               for mat in mats.values())


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
