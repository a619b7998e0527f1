"""The two exact coboundary decisions, behind chaincore.solve_coboundary
and cousin.cousin_coboundary_solve, and the only module that imports
linalg.  Both load it on their first call, so a command that decides no
coboundary does not.  Each decision is one exact solve over Q, fed in
one pass over the terms of the graded map, or of the Cousin class's
numerator whose ideal-membership cofactors it finds.

Both solves are sums of products sign * poly * u_key, block-diagonal by
wedge index and by the degree e that picks a block.  A block's matrix
depends only on the complexes, or the sequence, and a few degrees; the
cocycle is only its right-hand side.  So each block is assembled and
factored (linalg.Factorization) once and kept, with the solution column
of every equation, for every later decision, one (e, wedge index) at a time:

- graded blocks on the source FreeComplex, in _coboundary_blocks, keyed
  by the target complex by identity (equal but distinct complexes share
  nothing), then by r_h and the degree e of the coefficients, for as long
  as the complex lives;
- Cousin blocks in a bounded lru_cache keyed by (sequence, m, top).

A block keeps only what a solve reads: its unknowns, the row of each
equation and the factorization, not the supports, product tables or
assembled rows.  Pivot columns are the leftmost independent columns and
free variables are zero, in any row order, so every solution and witness
is the one that assembling and eliminating afresh gives.

Both decisions are witness-first: they solve before they check, and a
check runs only where it decides something.  A solvable answer rests on
its witness, checked exactly ([d,h] = c, or d(b) = target).  An
unsolvable graded c is bracketed once more, to tell a non-cocycle from a
cocycle that is no coboundary.  A Cousin decision builds one
groebner.Basis: its excess bounds the system, and only when that system
is inconsistent does it reduce the numerator, so a non-member rests on
an inconsistent bounded system and a nonzero normal form, both.
"""
from __future__ import annotations

import itertools
from functools import lru_cache, partial

from . import linalg
from .chaincore import (ChainMap, FreeComplex, GradingError, ShapeError, hom_bracket, is_cocycle,
                        monomials_of_weighted_degree)
from .cousin import CousinElement, LocalizedForm, cousin_differential
from .groebner import Basis
from .polyforms import FIELD, MASK, Form, Poly, pack


class GradedSolveReport:
    __slots__ = ("solvable", "witness")

    def __init__(self, solvable: bool, witness: ChainMap | None):
        self.solvable = solvable
        self.witness = witness


class _Block:
    """One factored block of a products system, one wedge index's: one
    column per unknown, column v the packed exponent expts[v] of
    u_keys[v], the row of each equation (slot, packed exponent), and the
    factored matrix.  products maps a key to its (slot, poly, sign)."""

    __slots__ = ("keys", "expts", "rows", "factored")

    def __init__(self, keys: list, expts: list, products: dict):
        # one Q-linear equation per (slot, expt); one product's terms give
        # distinct equations, so each entry is set once
        rows: dict[tuple, linalg.Row] = {}
        for v, (key, expt) in enumerate(zip(keys, expts)):
            for slot, poly, sign in products.get(key, ()):
                for e2, q in poly.terms.items():
                    rows.setdefault((slot, expt + e2), {})[v] = sign * q
        self.keys, self.expts = tuple(keys), tuple(expts)
        self.rows = dict(zip(rows, itertools.count()))
        self.factored = linalg.Factorization(list(rows.values()), len(keys))


def _solve_products(block_of, terms, n: int, k: int) -> dict | None:
    """Unknown k-forms u_key with sum(sign * poly * u_key) = rhs[slot] in
    every slot, summed over products (slot, key, poly, sign).  The
    right-hand side comes as terms (e, slot, mask, expt, q): q times the
    monomial expt in wedge mask `mask` of rhs[slot], whose equation lies in
    the factored block block_of(e).  Returns {key: form} for the nonzero
    unknowns of the one particular solution, keys in sorted order, or None
    when there is none.

    A product multiplies a form by a polynomial, so the system is
    block-diagonal by (e, mask).  Each (e, mask) that the
    terms meet is solved on its block's factorization with its own
    right-hand side, one solve each; those the terms do not meet have the
    zero solution.  The pivots of a block-diagonal matrix are its blocks'
    pivots, so the solution is that of the whole system.  A term in an
    equation that no unknown reaches is 0 = q, and the answer is None
    with nothing solved.
    """
    vectors: dict[tuple, tuple] = {}  # (e, mask) -> (its block, right-hand side)
    for e, slot, mask, expt, q in terms:
        if (entry := vectors.get((e, mask))) is None:
            entry = vectors[e, mask] = (block_of(e), {})
        r = entry[0].rows.get((slot, expt))
        if r is None:
            return None
        entry[1][r] = q
    acc: dict = {}  # key -> the terms of its form
    for (_, mask), (block, b) in vectors.items():
        x = block.factored.solve(b)
        if x is None:
            return None
        # one key's unknowns in distinct e run over distinct exponents
        keys, expts, top = block.keys, block.expts, mask << FIELD * (n + 1)
        for v, q in x.items():
            acc.setdefault(keys[v], {})[top | expts[v]] = q
    return {key: Form._raw(n, k, acc[key]) for key in sorted(acc)}


def _graded_block(blocks: dict, src: FreeComplex, tgt: FreeComplex, r_h: int, e: int) -> _Block:
    """The factored block of the degree-r_h maps h from src to tgt whose
    entries from basis element s to t have coefficients of weighted degree
    weight(s) - weight(t) + e, and whose bracket [d,h] is the right-hand
    side.  A k-form entry of internal degree d in wedge index idx has
    e = d - weight(idx), so every form degree and internal degree with the
    same e shares it.  blocks is src's cache for tgt, keyed (r_h, e)."""
    block = blocks.get((r_h, e))
    if block is not None:
        return block
    n, weights = src.n, src.var_weights
    # [d,h]_i = d h_i - (-1)^{r_h} h_{i+1} d, so the unknown h_i[m][s] meets
    # column m of the target differential and row s of the source one
    columns: dict[tuple, list] = {}
    for j, t, m, p in tgt.nonzeros():
        columns.setdefault((j - r_h, m), []).append((t, p))
    sign = -((-1) ** (r_h % 2))
    keys, expts, products = [], [], {}
    for i in src.support():
        for t, tbe in enumerate(tgt.basis(i + r_h)):
            for s, sbe in enumerate(src.basis(i)):
                key = (i, t, s)
                basis = monomials_of_weighted_degree(n, weights, sbe.weight - tbe.weight + e)
                keys += [key] * len(basis)
                expts += map(pack, basis)
                products[key] = [((i, row, s), p, 1) for row, p in columns.get((i, t), ())]
                for col, p in src.diff.get(i - 1, {}).get(s, {}).items():
                    products[key].append(((i - 1, t, col), p, sign))
    block = blocks[r_h, e] = _Block(keys, expts, products)
    return block


def _solve_coboundary(c: ChainMap) -> GradedSolveReport:
    """chaincore.solve_coboundary: one _solve_products over c's terms, on
    the blocks that src keeps for tgt.  A witness h with [d,h] = c proves c
    a cocycle, as d o d = 0 on both complexes, so only an unsolvable c is
    checked for being one.  A zero c has no terms and the empty witness."""
    src, tgt = c.source, c.target
    if not (src.graded and tgt.graded) or src.var_weights != tgt.var_weights:
        raise GradingError("solve_coboundary requires graded complexes")
    r_h = c.degree - 1
    k = c.form_degree
    # (weight, shift) per field of a packed exponent, for its weighted degree
    fields = [(w, FIELD * (src.n - 1 - v)) for v, w in enumerate(src.var_weights)]
    # holding tgt keeps its id from being reused while src lives
    blocks = src._coboundary_blocks.setdefault(id(tgt), (tgt, {}))[1]
    # a term q * x^expt dx_mask of c's entry from s to t has internal degree
    # wdeg(expt) + weight(mask) + weight(t) - weight(s); its block's e is
    # that less weight(mask), and the fields hold expt's exponents alone
    mask_shift = FIELD * (src.n + 1)
    terms = ((base + sum(w * (key >> shift & MASK) for w, shift in fields), (i, t, s),
              key >> mask_shift, key & (1 << mask_shift) - 1, q)
             for i, t, s, f in c.nonzeros()
             for base in (tgt.basis(i + c.degree)[t].weight - src.basis(i)[s].weight,)
             for key, q in f.terms.items())
    solved = _solve_products(partial(_graded_block, blocks, src, tgt, r_h), terms, src.n, k)
    if solved is None:
        if not is_cocycle(c):
            raise ShapeError("solve_coboundary requires a cocycle input")
        return GradedSolveReport(False, None)
    mats: dict[int, dict] = {}
    for (i, t, s), form in solved.items():
        mats.setdefault(i, {}).setdefault(t, {})[s] = form
    witness = ChainMap._raw(src, tgt, r_h, k, mats)
    if hom_bracket(witness) != c:
        raise AssertionError("solver produced an unsound witness")
    return GradedSolveReport(True, witness)


@lru_cache(maxsize=64)
def _cousin_block(seq: tuple[Poly, ...], m: int, top: int) -> _Block:
    """The factored block of the cofactors num_i of degree at most top with
    sum_i -(-1)^{i-1} num_i * f_i^m = num, for f = seq.  Every wedge index
    of every form degree has these unknowns, so the one block serves every
    num.  The last 64 distinct (seq, m, top) are kept."""
    n = seq[0].n
    fpows = [f ** m for f in seq]
    units = (1,) * n
    keys, expts = [], []
    for i, fpow in enumerate(fpows, 1):
        for d in range(top - fpow.total_degree() + 1):
            basis = monomials_of_weighted_degree(n, units, d)
            keys += [i] * len(basis)
            expts += map(pack, basis)
    full = tuple(range(1, len(seq) + 1))
    # d(b) at full = sum_i -(-1)^{i-1} num_i * f_i^m
    return _Block(keys, expts, {i: [(full, fpow, -((-1) ** (i - 1)))]
                                for i, fpow in enumerate(fpows, 1)})


def _solve_cousin_coboundary(target: CousinElement) -> CousinElement | None:
    """cousin.cousin_coboundary_solve.  The sequence must be regular, as the
    regularity guard proves before every command.  Then num / f_full^m is a
    coboundary exactly when every coefficient of num lies in
    (f_1^m, ..., f_q^m), for the target's own m: the transition maps of
    H^q_I = lim H^q(f^m) are injective (Bruns-Herzog 3.5).  A member's
    cofactors num_i, the numerators of b at full-minus-i, come from one
    linear solve in the degrees that the Groebner basis bounds, on the
    block that _cousin_block keeps, and the checked d(b) = target proves
    the answer.  Only when that system is inconsistent are num's
    coefficients reduced by that same basis, under the same work bound: a
    nonzero normal form gives None, and a zero one means the bound failed
    a member, an AssertionError.
    """
    q, n = target.q, target.n
    if target.degree != q or q == 0:
        raise ValueError("the Cousin decision needs a top-degree element of a nonempty sequence")
    full = tuple(range(1, q + 1))
    lf = target.entries.get(full)
    if lf is None:
        return CousinElement(n, target.seq, q - 1)
    num, m = lf.num, lf.m
    basis = Basis([f ** m for f in target.seq], "Cousin decision")
    coeffs: dict[int, dict] = {}  # mask -> the terms of its coefficient
    shift = FIELD * (n + 1)
    for key, c in num.terms.items():
        coeffs.setdefault(key >> shift, {})[key & (1 << shift) - 1] = c
    top = max(key >> FIELD * n & MASK for key in num.terms) + basis.excess
    block = _cousin_block(target.seq, m, top)
    terms = ((0, full, mask, expt, q) for mask, coeff in coeffs.items() for expt, q in coeff.items())
    nums = _solve_products(lambda e: block, terms, n, num.degree)
    if nums is None:
        if not basis.contains(Poly._raw(n, coeff) for coeff in coeffs.values()):
            return None
        raise AssertionError("an ideal member has no cofactors within the Groebner degree bound")
    witness = CousinElement(n, target.seq, q - 1, {
        full[: i - 1] + full[i:]: LocalizedForm(form, m) for i, form in nums.items()
    })
    if cousin_differential(witness) != target:
        raise AssertionError("Cousin witness fails d(b) = target")
    return witness
