"""The two exact coboundary decisions, behind chaincore.solve_coboundary
and cousin.cousin_coboundary_solve, and the only module that imports
linalg.  Both load it on their first call, so a command that decides no
coboundary does not.  Each internal degree of a graded map is one
exact solve over Q, and so is a Cousin class's ideal-membership cofactors.
"""
from __future__ import annotations

import itertools
from functools import partial
from operator import add

from . import linalg
from .chaincore import (ChainMap, GradingError, ShapeError, _entrywise, hom_bracket, is_cocycle,
                        monomials_of_weighted_degree, zero_map)
from .cousin import CousinElement, LocalizedForm, cousin_differential, cousin_zero
from .groebner import membership_excess
from .polyforms import Form, Poly


class GradedSolveReport:
    __slots__ = ("solvable", "witness")

    def __init__(self, solvable: bool, witness: ChainMap | None):
        self.solvable = solvable
        self.witness = witness


def _form_of_terms(n: int, k: int, terms: dict) -> Form:
    """The form {idx: {expt: coefficient}}, every coefficient canonical and nonzero."""
    return Form._raw(n, k, {idx: Poly._raw(n, poly) for idx, poly in terms.items()})


def internal_degree_layers(h: ChainMap) -> dict[int, ChainMap]:
    """Split a graded chain map into homogeneous internal-degree layers."""
    src, tgt = h.source, h.target
    if not (src.graded and tgt.graded) or src.var_weights != tgt.var_weights:
        raise GradingError("internal degrees need matching gradings")
    weights = src.var_weights
    n, k = src.n, h.form_degree
    # layers[d][i][t][s][idx] holds the terms {expt: q} of one layer's entry
    layers: dict[int, dict] = {}
    for i, t, s, f in h.nonzeros():
        # shift of internal degree: output minus input
        base = tgt.basis(i + h.degree)[t].weight - src.basis(i)[s].weight
        for idx, coeff in f.terms.items():
            widx = sum(weights[j] for j in idx)
            for expt, q in coeff.terms.items():
                d_internal = sum(w * e for w, e in zip(weights, expt)) + widx + base
                layer = layers.setdefault(d_internal, {}).setdefault(i, {}).setdefault(t, {})
                layer.setdefault(s, {}).setdefault(idx, {})[expt] = q
    build = partial(_form_of_terms, n, k)
    return {
        d: ChainMap._raw(src, tgt, h.degree, k, _entrywise(mats, build))
        for d, mats in layers.items()
    }


def _solve_products(supports: dict, products, rhs: dict, n: int, k: int) -> dict | None:
    """Unknown k-forms u_key with sum(sign * poly * u_key) = rhs[slot] in
    every slot, summed over the products (slot, key, poly, sign); each
    (slot, key) pair occurs at most once.  supports maps a key to the
    (idx, expt) terms its form may have; rhs maps slots to forms.  Returns
    {key: form} for the nonzero unknowns of the one particular solution,
    or None when there is none.

    A product multiplies a form by a polynomial, so the system is
    block-diagonal by wedge index.  Wedge indices whose unknowns run over
    the same (key, expt) sequence share one matrix, eliminated once with a
    right-hand side per index.  The pivots of a block-diagonal matrix are
    its blocks' pivots, so the solution is that of the whole system.
    """
    unknowns: dict[tuple, list] = {}  # wedge index -> its (key, expt), in supports order
    for key, terms in supports.items():
        for idx, expt in terms:
            unknowns.setdefault(idx, []).append((key, expt))
    values: dict[tuple, dict] = {}  # wedge index -> {(slot, expt): q}
    for slot, form in rhs.items():
        for idx, coeff in form.terms.items():
            if idx not in unknowns:
                return None
            values.setdefault(idx, {}).update(((slot, e), q) for e, q in coeff.terms.items())
    blocks: dict[tuple, list] = {}
    for idx in values:
        blocks.setdefault(tuple(unknowns[idx]), []).append(idx)
    factors: dict = {}  # key -> [(slot, signed terms of poly)]
    for slot, key, poly, sign in products:
        factors.setdefault(key, []).append((slot, [(e, sign * q) for e, q in poly.terms.items()]))
    solved = {}
    for block, idxs in blocks.items():
        # one Q-linear equation per (slot, expt); one product's terms give
        # distinct equations, so each entry is set once
        rows: dict[tuple, linalg.Row] = {}
        for vi, (key, expt) in enumerate(block):
            for slot, terms in factors.get(key, ()):
                for e2, q in terms:
                    rows.setdefault((slot, tuple(map(add, expt, e2))), {})[vi] = q
        if any(e not in rows for idx in idxs for e in values[idx]):
            return None  # an equation that no unknown reaches: 0 = q
        solution = linalg.solve(list(rows.values()),
                                [[values[idx].get(e, 0) for e in rows] for idx in idxs], len(block))
        if solution is None:
            return None
        solved.update(zip(idxs, map(iter, solution)))
    out = {}
    for key, terms in supports.items():
        acc: dict = {}
        for idx, expt in terms:
            if idx in solved and (v := next(solved[idx])):
                acc.setdefault(idx, {})[expt] = v
        if acc:
            out[key] = _form_of_terms(n, k, acc)
    return out


def _solve_coboundary(c: ChainMap) -> GradedSolveReport:
    """chaincore.solve_coboundary: one _solve_products per internal degree of c."""
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
    # [d,h]_i = d h_i - (-1)^{r_h} h_{i+1} d, so the unknown h_i[m][s] meets
    # column m of the target differential and row s of the source one
    columns: dict[tuple, list] = {}
    for j, t, m, p in tgt.nonzeros():
        columns.setdefault((j - r_h, m), []).append((t, p))
    sign = -((-1) ** (r_h % 2))
    idx_weights = [(idx, sum(weights[j] for j in idx))
                   for idx in itertools.combinations(range(n), k)]
    mats: dict[int, dict] = {}
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
        solved = _solve_products(supports, products, rhs, n, k)
        if solved is None:
            return GradedSolveReport(False, None)
        # layers have distinct internal degrees, so their terms never cancel
        for (i, t, s), form in solved.items():
            row = mats.setdefault(i, {}).setdefault(t, {})
            row[s] = row[s] + form if s in row else form
    witness = ChainMap._raw(src, tgt, r_h, k, mats)
    if hom_bracket(witness) != c:
        raise AssertionError("solver produced an unsound witness")
    return GradedSolveReport(True, witness)


def _solve_cousin_coboundary(target: CousinElement) -> CousinElement | None:
    """cousin.cousin_coboundary_solve.  The sequence must be regular, as the
    regularity guard proves before every command.  Then num / f_full^m is a
    coboundary exactly when every coefficient of num lies in
    (f_1^m, ..., f_q^m), for the target's own m: the transition maps of
    H^q_I = lim H^q(f^m) are injective (Bruns-Herzog 3.5).  A member's
    cofactors num_i, the numerators of b at full-minus-i, come from one
    linear solve in the degrees that the Groebner basis bounds.
    """
    q, n = target.q, target.n
    if target.degree != q or q == 0:
        raise ValueError("the Cousin decision needs a top-degree element of a nonempty sequence")
    full = tuple(range(1, q + 1))
    lf = target.entries.get(full)
    if lf is None:
        return cousin_zero(n, target.seq, q - 1)
    num, m = lf.num, lf.m
    fpows = [f ** m for f in target.seq]
    excess = membership_excess(fpows, num.terms.values())
    if excess is None:
        return None
    top = max(c.total_degree() for c in num.terms.values()) + excess
    units = (1,) * n
    supports = {
        i: [(idx, e)
            for d in range(top - fpow.total_degree() + 1)
            for e in monomials_of_weighted_degree(n, units, d)
            for idx in num.terms]
        for i, fpow in enumerate(fpows, 1)
    }
    # d(b) at full = sum_i -(-1)^{i-1} num_i * f_i^m
    products = [(full, i, fpow, -((-1) ** (i - 1))) for i, fpow in enumerate(fpows, 1)]
    nums = _solve_products(supports, products, {full: num}, n, num.degree)
    if nums is None:
        raise AssertionError("an ideal member has no cofactors within the Groebner degree bound")
    witness = CousinElement(n, target.seq, q - 1, {
        full[: i - 1] + full[i:]: LocalizedForm(form, m) for i, form in nums.items()
    })
    if cousin_differential(witness) != target:
        raise AssertionError("Cousin witness fails d(b) = target")
    return witness
