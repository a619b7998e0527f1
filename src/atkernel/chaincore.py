"""Bounded complexes of finite free modules and graded Hom-complex algebra.

A FreeComplex stores, per homological degree, a labeled basis with
internal Z-grading weights and a polynomial differential matrix to the
next degree.  A ChainMap is a degree-r collection of Form-valued
matrices; the bracket [d,h] = d h - (-1)^{|h|} h d makes these the
Hom-complex.  Coefficients always sit to the right of basis symbols, and
composition wedges the left factor's form coefficient onto the left; all
other signs flow from these two conventions.

Coboundary questions are decided exactly by splitting a graded map into
its internal degrees, where each layer is finite-dimensional linear
algebra over Q.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from . import linalg
from .polyforms import (
    ArityError,
    Form,
    ParseError,
    Poly,
    Record,
    _form_from_acc,
    _mul_into,
    _poly_from_acc,
    _wedge_into,
    form_to_text,
    poly_to_text,
)

MAX_TOTAL_RANK = 64


class GradingError(ValueError):
    """Raised when an operation needs a graded complex but got none."""


class ShapeError(ValueError):
    """Raised on incompatible complexes, matrices, or map degrees."""


class BasisElement(Record):
    __slots__ = ("label", "weight")

    def __init__(self, label: str, weight: int = 0):
        self.label = label
        self.weight = weight


PolyMatrix = tuple[tuple[Poly, ...], ...]
FormMatrix = tuple[tuple[Form, ...], ...]


def _poly_matmul(a: Sequence[Sequence[Poly]], b: Sequence[Sequence[Poly]]) -> PolyMatrix:
    """a . b, row by row; products with a zero factor are skipped, after
    every entry of both factors has been checked for arity."""
    if not a or not b:
        return ()
    n = a[0][0].n
    mid, cols = len(b), len(b[0])
    if any(len(r) != mid for r in a) or any(len(r) != cols for r in b):
        raise ShapeError("matrix shape mismatch")
    if any(p.n != n for mat in (a, b) for row in mat for p in row):
        raise ArityError("matrix entry arity mismatch")
    out = []
    for arow in a:
        # every product of an entry goes into one raw accumulator
        acc: list[dict] = [{} for _ in range(cols)]
        for x, brow in zip(arow, b):
            if not x.terms:
                continue
            for acc_j, y in zip(acc, brow):
                if y.terms:
                    _mul_into(acc_j, x, y)
        out.append(tuple(_poly_from_acc(n, acc_j) for acc_j in acc))
    return tuple(out)


class FreeComplex:
    """Bounded complex of free modules with labeled, weighted bases."""

    def __init__(
        self,
        n: int,
        degrees: dict[int, Sequence[BasisElement]],
        diff: dict[int, Sequence[Sequence[Poly]]],
        var_weights: Sequence[int] | None = None,
        check: bool = True,
    ):
        self.n = n
        self.degrees = {i: tuple(b) for i, b in degrees.items() if b}
        self.diff = {}
        for i, mat in diff.items():
            mat = tuple(tuple(p for p in row) for row in mat)
            if mat and any(any(not p.is_zero() for p in row) for row in mat):
                self.diff[i] = mat
        self.var_weights = tuple(var_weights) if var_weights is not None else None
        if self.var_weights is not None:
            if len(self.var_weights) != n or any(w < 1 for w in self.var_weights):
                raise GradingError("variable weights must be positive, one per variable")
        if check:
            self._validate()

    # -- queries ----------------------------------------------------------

    @property
    def graded(self) -> bool:
        return self.var_weights is not None

    def support(self) -> list[int]:
        return sorted(self.degrees)

    def rank(self, i: int) -> int:
        return len(self.degrees.get(i, ()))

    def basis(self, i: int) -> tuple[BasisElement, ...]:
        return self.degrees.get(i, ())

    def total_rank(self) -> int:
        return sum(len(b) for b in self.degrees.values())

    def d_matrix(self, i: int) -> PolyMatrix:
        mat = self.diff.get(i)
        if mat is not None:
            return mat
        rows, cols = self.rank(i + 1), self.rank(i)
        zero = Poly.zero(self.n)
        return tuple(tuple(zero for _ in range(cols)) for _ in range(rows))

    # -- validation ---------------------------------------------------------

    def _validate(self) -> None:
        if self.total_rank() > MAX_TOTAL_RANK:
            raise ShapeError(f"complex exceeds {MAX_TOTAL_RANK} total basis elements")
        labels = [b.label for bs in self.degrees.values() for b in bs]
        if len(labels) != len(set(labels)):
            raise ShapeError("basis labels must be globally unique")
        for i, mat in self.diff.items():
            if len(mat) != self.rank(i + 1) or any(len(row) != self.rank(i) for row in mat):
                raise ShapeError(f"differential d({i}) has wrong shape")
            for row in mat:
                for p in row:
                    if p.n != self.n:
                        raise ArityError("differential entry arity mismatch")
        for i in self.diff:
            if self.rank(i + 2) and self.rank(i):
                square = _poly_matmul(self.d_matrix(i + 1), self.d_matrix(i))
                if any(not p.is_zero() for row in square for p in row):
                    raise ShapeError(f"d o d != 0 between degrees {i} and {i + 2}")
        if self.graded:
            # a graded differential preserves internal degree, so each
            # entry is homogeneous of degree weight(source) - weight(target)
            for i, mat in self.diff.items():
                src, tgt = self.basis(i), self.basis(i + 1)
                for t, row in enumerate(mat):
                    for s, p in enumerate(row):
                        if not p.terms:
                            continue
                        want = src[s].weight - tgt[t].weight
                        got = p.homogeneous_degree(self.var_weights)
                        if got != want:
                            raise GradingError(
                                f"entry d({i})[{t}][{s}] not homogeneous of degree {want}"
                            )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FreeComplex)
            and self.n == other.n
            and self.var_weights == other.var_weights
            and self.degrees == other.degrees
            and self.diff == other.diff
        )

    def __repr__(self):
        ranks = {i: self.rank(i) for i in self.support()}
        return f"FreeComplex(ranks={ranks})"


class ChainMap:
    """Degree-r map of complexes with Form-valued matrices.

    mats[i] has shape rank_target(i + degree) x rank_source(i); the
    form-degree is uniform across every entry.
    """

    def __init__(
        self,
        source: FreeComplex,
        target: FreeComplex,
        degree: int,
        form_degree: int,
        mats: dict[int, Sequence[Sequence[Form]]],
        check: bool = True,
    ):
        if source.n != target.n:
            raise ArityError("source and target live over different rings")
        self.source = source
        self.target = target
        self.degree = degree
        self.form_degree = form_degree
        self.mats = {}
        for i, mat in mats.items():
            mat = tuple(tuple(f for f in row) for row in mat)
            if mat and any(any(not f.is_zero() for f in row) for row in mat):
                self.mats[i] = mat
        if check:
            self._validate()

    def _validate(self) -> None:
        for i, mat in self.mats.items():
            rows, cols = self.target.rank(i + self.degree), self.source.rank(i)
            if len(mat) != rows or any(len(row) != cols for row in mat):
                raise ShapeError(f"map matrix at degree {i} has wrong shape")
            for row in mat:
                for f in row:
                    if f.n != self.source.n:
                        raise ArityError("entry arity mismatch")
                    if not f.is_zero() and f.degree != self.form_degree:
                        raise ShapeError("nonuniform form degree in chain map")

    def matrix(self, i: int) -> FormMatrix:
        mat = self.mats.get(i)
        if mat is not None:
            return mat
        rows, cols = self.target.rank(i + self.degree), self.source.rank(i)
        zero = Form.zero(self.source.n, self.form_degree)
        return tuple(tuple(zero for _ in range(cols)) for _ in range(rows))

    def is_zero(self) -> bool:
        return not self.mats

    def __add__(self, other: "ChainMap") -> "ChainMap":
        self._compat(other)
        mats = {}
        for i in set(self.mats) | set(other.mats):
            a, b = self.matrix(i), other.matrix(i)
            mats[i] = tuple(
                tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
            )
        return ChainMap(self.source, self.target, self.degree, self.form_degree, mats)

    def __neg__(self) -> "ChainMap":
        mats = {
            i: tuple(tuple(-f for f in row) for row in mat) for i, mat in self.mats.items()
        }
        return ChainMap(self.source, self.target, self.degree, self.form_degree, mats, check=False)

    def __sub__(self, other: "ChainMap") -> "ChainMap":
        return self + (-other)

    def scale(self, c) -> "ChainMap":
        mats = {
            i: tuple(tuple(f.scale(c) if f.terms else f for f in row) for row in mat)
            for i, mat in self.mats.items()
        }
        return ChainMap(self.source, self.target, self.degree, self.form_degree, mats, check=False)

    def _compat(self, other: "ChainMap") -> None:
        if (
            self.source != other.source
            or self.target != other.target
            or self.degree != other.degree
        ):
            raise ShapeError("chain maps not compatible for addition")
        if self.form_degree != other.form_degree and self.mats and other.mats:
            raise ShapeError("form degree mismatch")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ChainMap)
            and self.source == other.source
            and self.target == other.target
            and self.degree == other.degree
            and self.mats == other.mats
        )

    def __repr__(self):
        return f"ChainMap(degree={self.degree}, formdeg={self.form_degree}, at={sorted(self.mats)})"


class GradedSolveReport:
    __slots__ = ("solvable", "witness", "degree_bound")

    def __init__(self, solvable: bool, witness: ChainMap | None, degree_bound: int):
        self.solvable = solvable
        self.witness = witness
        self.degree_bound = degree_bound


# -- basic constructions ---------------------------------------------------


def identity_map(c: FreeComplex) -> ChainMap:
    mats = {}
    for i in c.support():
        r = c.rank(i)
        mats[i] = tuple(
            tuple(
                Form.from_poly(Poly.one(c.n)) if a == b else Form.zero(c.n, 0)
                for b in range(r)
            )
            for a in range(r)
        )
    return ChainMap(c, c, 0, 0, mats)


def zero_map(source: FreeComplex, target: FreeComplex, degree: int, form_degree: int = 0) -> ChainMap:
    return ChainMap(source, target, degree, form_degree, {})


def _as_forms(mat: PolyMatrix, zero: Form) -> FormMatrix:
    """A polynomial matrix as degree-0 forms, with one shared zero entry."""
    return tuple(tuple(Form.from_poly(p) if p.terms else zero for p in row) for row in mat)


def differential_map(c: FreeComplex) -> ChainMap:
    """The differential itself as a degree-1, form-degree-0 chain map."""
    zero = Form.zero(c.n, 0)
    return ChainMap(c, c, 1, 0, {i: _as_forms(mat, zero) for i, mat in c.diff.items()})


def _wedge_products(
    acc: list[list[dict]],
    a: Sequence[Sequence[Form]],
    b: Sequence[Sequence[Form]],
    n: int,
    out_deg: int,
    negate: bool = False,
) -> None:
    """Add the wedge product a . b, or its negative, into acc[i][j].

    Each acc[i][j] is a raw form accumulator (see polyforms._wedge_into);
    zero entries are skipped, and a product of form degree out_deg is the
    only kind that may contribute.
    """
    for arow, acc_row in zip(a, acc):
        for x, brow in zip(arow, b):
            if not x.terms:
                continue
            if x.n != n:
                raise ArityError("matrix entry arity mismatch")
            for j, y in enumerate(brow):
                if not y.terms:
                    continue
                if y.n != n:
                    raise ArityError("matrix entry arity mismatch")
                degree = x.degree + y.degree
                if degree > n:
                    continue
                if degree != out_deg:
                    raise ShapeError("nonuniform form degree in chain map")
                _wedge_into(acc_row[j], x, y, negate)


def _forms_from_acc(acc: list[list[dict]], n: int, out_deg: int) -> FormMatrix:
    zero = Form.zero(n, out_deg)
    return tuple(
        tuple(_form_from_acc(n, out_deg, entry) if entry else zero for entry in row)
        for row in acc
    )


def _wedge_matmul(
    a: Sequence[Sequence[Form]],
    b: Sequence[Sequence[Form]],
    n: int,
    out_deg: int,
    shape: tuple[int, int, int] | None = None,
) -> FormMatrix:
    # shape=(rows, mid, cols) is needed whenever a factor can be empty
    if shape is not None:
        rows, _, cols = shape
    else:
        rows, cols = len(a), len(b[0]) if b else 0
    acc = [[{} for _ in range(cols)] for _ in range(rows)]
    _wedge_products(acc, a, b, n, out_deg)
    return _forms_from_acc(acc, n, out_deg)


def compose(u: ChainMap, v: ChainMap) -> ChainMap:
    """u o v; map degrees add and form coefficients wedge (u's on the left)."""
    if v.target != u.source:
        raise ShapeError("compose: target of v is not source of u")
    degree = u.degree + v.degree
    form_degree = min(u.form_degree + v.form_degree, u.source.n)
    mats = {}
    for i in v.mats:
        umat = u.mats.get(i + v.degree)
        if umat is None:
            continue
        mats[i] = _wedge_matmul(umat, v.matrix(i), u.source.n, form_degree)
    return ChainMap(v.source, u.target, degree, form_degree, mats)


def hom_bracket(h: ChainMap) -> ChainMap:
    """[d,h] = d h - (-1)^{|h|} h d in the Hom-complex."""
    r = h.degree
    sign = (-1) ** (r % 2)
    src, tgt = h.source, h.target
    mats = {}
    zero = Form.zero(src.n, 0)
    lo = min(src.support() + tgt.support(), default=0)
    hi = max(src.support() + tgt.support(), default=0)
    for i in range(lo - 1, hi + 1):
        rows = tgt.rank(i + r + 1)
        cols = src.rank(i)
        if rows == 0 or cols == 0:
            continue
        # d h and -(-1)^r h d accumulate into one sum per entry
        acc = [[{} for _ in range(cols)] for _ in range(rows)]
        _wedge_products(
            acc, _as_forms(tgt.d_matrix(i + r), zero), h.matrix(i), src.n, h.form_degree
        )
        _wedge_products(
            acc,
            h.matrix(i + 1),
            _as_forms(src.d_matrix(i), zero),
            src.n,
            h.form_degree,
            negate=sign > 0,
        )
        mats[i] = _forms_from_acc(acc, src.n, h.form_degree)
    return ChainMap(src, tgt, r + 1, h.form_degree, mats)


def is_cocycle(h: ChainMap) -> bool:
    return hom_bracket(h).is_zero()


def shift(c: FreeComplex, i: int) -> FreeComplex:
    """Shifted complex with degrees translated and differential times (-1)^i."""
    if i == 0:
        return c
    sign = (-1) ** (i % 2)
    degrees = {n - i: c.degrees[n] for n in c.degrees}
    diff = {
        n - i: tuple(tuple(p.scale(sign) for p in row) for row in mat)
        for n, mat in c.diff.items()
    }
    return FreeComplex(c.n, degrees, diff, c.var_weights, check=False)


def shift_map(u: ChainMap, i: int) -> ChainMap:
    """The same matrices viewed between shifted complexes."""
    return ChainMap(
        shift(u.source, i),
        shift(u.target, i),
        u.degree,
        u.form_degree,
        {n - i: mat for n, mat in u.mats.items()},
        check=False,
    )


def cone(f: ChainMap) -> FreeComplex:
    """Mapping cone of a degree-0 chain map f: N' -> N.

    The module is N + N'[1]; the differential sends (n, Tn') to
    (dn - f(n'), -Td'n').
    """
    if f.degree != 0 or f.form_degree != 0:
        raise ShapeError("cone needs a degree-0 map with polynomial entries")
    if not is_cocycle(f):
        raise ShapeError("cone needs a chain map ([d,f] = 0)")
    nprime, ncx = f.source, f.target
    n = ncx.n
    degrees: dict[int, list[BasisElement]] = {}
    for i in set(ncx.support()) | {j - 1 for j in nprime.support()}:
        combined = list(ncx.basis(i)) + [
            BasisElement("T_" + b.label, b.weight) for b in nprime.basis(i + 1)
        ]
        if combined:
            degrees[i] = combined
    diff: dict[int, list[list[Poly]]] = {}
    zero = Poly.zero(n)
    for i in degrees:
        rows = len(degrees.get(i + 1, ()))
        cols = len(degrees[i])
        if rows == 0 or cols == 0:
            continue
        rn, rnp = ncx.rank(i + 1), nprime.rank(i + 2)
        cn, cnp = ncx.rank(i), nprime.rank(i + 1)
        dn = ncx.d_matrix(i)
        dnp = nprime.d_matrix(i + 1)
        fmat = f.matrix(i + 1)
        mat = [[zero for _ in range(cols)] for _ in range(rows)]
        for t in range(rn):
            for s in range(cn):
                mat[t][s] = dn[t][s]
            for s in range(cnp):
                mat[t][cn + s] = -fmat[t][s].to_poly()
        for t in range(rnp):
            for s in range(cnp):
                mat[rn + t][cn + s] = -dnp[t][s]
        diff[i] = mat
    var_weights = ncx.var_weights if ncx.var_weights == nprime.var_weights else None
    return FreeComplex(n, degrees, diff, var_weights)


# -- graded components -----------------------------------------------------


def monomials_of_weighted_degree(n: int, weights: Sequence[int], d: int) -> list[tuple[int, ...]]:
    if d < 0:
        return []
    out: list[tuple[int, ...]] = []

    def rec(i: int, remaining: int, prefix: tuple[int, ...]):
        if i == n - 1:
            if remaining % weights[i] == 0:
                out.append(prefix + (remaining // weights[i],))
            return
        for k in range(remaining // weights[i] + 1):
            rec(i + 1, remaining - k * weights[i], prefix + (k,))

    rec(0, d, ())
    return out


def component_basis(c: FreeComplex, i: int, d: int) -> list[tuple[int, tuple[int, ...]]]:
    """Q-basis of the degree-i part in internal degree d: (basis idx, monomial)."""
    if not c.graded:
        raise GradingError("component basis needs a graded complex")
    out = []
    for idx, b in enumerate(c.basis(i)):
        for expt in monomials_of_weighted_degree(c.n, c.var_weights, d - b.weight):
            out.append((idx, expt))
    return out


def component_matrix(
    c: FreeComplex, i: int, d: int, src: list | None = None, tgt: list | None = None
) -> tuple[list, list, list[linalg.Row]]:
    """Sparse matrix of d(i) on the internal-degree-d component over Q.

    src and tgt, when given, are the component bases in degrees i and i+1.
    """
    src = component_basis(c, i, d) if src is None else src
    tgt = component_basis(c, i + 1, d) if tgt is None else tgt
    tgt_index = {key: pos for pos, key in enumerate(tgt)}
    mat: list[linalg.Row] = [{} for _ in tgt]
    dmat = c.d_matrix(i)
    for col, (s_idx, expt) in enumerate(src):
        for t_idx in range(c.rank(i + 1)):
            entry = dmat[t_idx][s_idx]
            for e2, coeff in entry.terms.items():
                key = (t_idx, tuple(a + b for a, b in zip(expt, e2)))
                row = tgt_index.get(key)
                if row is None:
                    raise GradingError("inhomogeneous differential entry")
                # distinct (t_idx, e2) give distinct keys: one write per entry
                mat[row][col] = coeff
    return src, tgt, mat


def homology_rank(c: FreeComplex, i: int, d: int) -> int:
    """dim_Q H^i(C)_d for a graded complex."""
    basis = component_basis(c, i, d)
    src, tgt, mat_out = component_matrix(c, i, d, src=basis)
    rank_out = linalg.rank(mat_out) if src and tgt else 0
    src_in, tgt_in, mat_in = component_matrix(c, i - 1, d, tgt=basis)
    rank_in = linalg.rank(mat_in) if src_in and tgt_in else 0
    return len(src) - rank_out - rank_in


def internal_degree_layers(h: ChainMap) -> dict[int, ChainMap]:
    """Split a graded chain map into homogeneous internal-degree layers."""
    src, tgt = h.source, h.target
    if not (src.graded and tgt.graded) or src.var_weights != tgt.var_weights:
        raise GradingError("internal degrees need matching gradings")
    weights = src.var_weights
    layers: dict[int, dict[int, list[list[Form]]]] = {}
    for i, mat in h.mats.items():
        sbasis, tbasis = src.basis(i), tgt.basis(i + h.degree)
        for t, row in enumerate(mat):
            for s, f in enumerate(row):
                for idx, coeff in f.terms.items():
                    widx = sum(weights[k] for k in idx)
                    for expt, q in coeff.terms.items():
                        # shift of internal degree: output minus input
                        d_internal = (
                            sum(w * e for w, e in zip(weights, expt))
                            + widx
                            + tbasis[t].weight
                            - sbasis[s].weight
                        )
                        layer = layers.setdefault(d_internal, {})
                        if i not in layer:
                            layer[i] = [
                                [Form.zero(src.n, h.form_degree) for _ in range(len(sbasis))]
                                for _ in range(len(tbasis))
                            ]
                        layer[i][t][s] = layer[i][t][s] + Form(
                            src.n, h.form_degree, {idx: Poly.monomial(src.n, expt, q)}
                        )
    return {
        d: ChainMap(src, tgt, h.degree, h.form_degree, mats) for d, mats in layers.items()
    }


def _index_tuples(n: int, k: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(n), k))


def solve_coboundary(c: ChainMap) -> GradedSolveReport:
    """Decide exactly whether c = [d,h] for some graded h; witness on success.

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
        return GradedSolveReport(True, zero_map(src, tgt, r_h, k), 0)
    layers = internal_degree_layers(c)
    total_witness = zero_map(src, tgt, r_h, k)
    bound = 0
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
                    for idx in _index_tuples(n, k):
                        mono_deg = entry_deg - sum(weights[j] for j in idx)
                        for expt in monomials_of_weighted_degree(n, weights, mono_deg):
                            block.append((idx, expt, num_vars))
                            num_vars += 1
                            bound = max(bound, sum(expt))
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
            dt = tgt.d_matrix(i + r_h)
            ds = src.d_matrix(i)
            cm = layer.matrix(i)
            for t in range(rows):
                for s in range(cols):
                    rows_by_key: dict[tuple, dict[int, Fraction]] = {}
                    rhs_by_key: dict[tuple, Fraction] = {}
                    for idx, coeff in cm[t][s].terms.items():
                        for expt, q in coeff.terms.items():
                            rhs_by_key[(idx, expt)] = q
                    # d o h contribution; its unknowns and those of h o d are disjoint,
                    # and one unknown's terms give distinct keys: each entry is set once
                    for m in range(tgt.rank(i + r_h)):
                        dpoly = dt[t][m]
                        if dpoly.is_zero():
                            continue
                        for idx, expt, vi in blocks.get((i, m, s), ()):
                            for e2, q2 in dpoly.terms.items():
                                tot = tuple(a + b for a, b in zip(expt, e2))
                                row = rows_by_key.setdefault((idx, tot), {})
                                row[vi] = q2
                    # h o d contribution with sign -(-1)^{r_h}
                    for m in range(src.rank(i + 1)):
                        spoly = ds[m][s]
                        if spoly.is_zero():
                            continue
                        for idx, expt, vi in blocks.get((i + 1, t, m), ()):
                            for e2, q2 in spoly.terms.items():
                                tot = tuple(a + b for a, b in zip(expt, e2))
                                row = rows_by_key.setdefault((idx, tot), {})
                                row[vi] = -sign * q2
                    for key in set(rows_by_key) | set(rhs_by_key):
                        rows_eq.append(rows_by_key.get(key, {}))
                        rhs_eq.append(rhs_by_key.get(key, Fraction(0)))
        solution = linalg.solve(rows_eq, rhs_eq, num_vars)
        if solution is None:
            return GradedSolveReport(False, None, bound)
        mats: dict[int, list[list[Form]]] = {}
        for (i, t, s), block in blocks.items():
            for idx, expt, vi in block:
                value = solution[vi]
                if value == 0:
                    continue
                if i not in mats:
                    mats[i] = [
                        [Form.zero(n, k) for _ in range(src.rank(i))]
                        for _ in range(tgt.rank(i + r_h))
                    ]
                mats[i][t][s] = mats[i][t][s] + Form(
                    n, k, {idx: Poly.monomial(n, expt, value)}
                )
        total_witness = total_witness + ChainMap(src, tgt, r_h, k, mats)
    if hom_bracket(total_witness) != c:
        raise AssertionError("solver produced an unsound witness")
    return GradedSolveReport(True, total_witness, bound)


# -- serialization ---------------------------------------------------------


def complex_to_text(c: FreeComplex, name: str, names: Sequence[str] | None = None) -> str:
    from .polyforms import default_names

    names = list(names or default_names(c.n))
    items = []
    ring_vars = []
    for i, vname in enumerate(names):
        w = c.var_weights[i] if c.graded else 1
        ring_vars.append(vname if w == 1 else f"{vname}:{w}")
    graded_tag = "" if c.graded else " ungraded"
    items.append(f"ring Q[{', '.join(ring_vars)}]{graded_tag};")
    for i in c.support():
        labels = []
        for b in c.basis(i):
            labels.append(b.label if b.weight == 0 else f"{b.label}:{b.weight}")
        items.append(f"deg {i}: [{', '.join(labels)}];")
    for i in sorted(c.diff):
        mat = c.diff[i]
        cols = []
        for s in range(c.rank(i)):
            col = [poly_to_text(mat[t][s], names) for t in range(c.rank(i + 1))]
            cols.append("[" + ", ".join(col) + "]")
        items.append(f"d({i}) = [{', '.join(cols)}];")
    body = "\n  ".join(items)
    return f"complex {name} {{\n  {body}\n}}"


def map_to_text(u: ChainMap, name: str, names: Sequence[str] | None = None) -> str:
    from .polyforms import default_names

    names = list(names or default_names(u.source.n))
    items = [f"degree {u.degree};", f"formdeg {u.form_degree};"]
    for i in sorted(u.mats):
        mat = u.mats[i]
        cols = []
        for s in range(u.source.rank(i)):
            col = [form_to_text(mat[t][s], names) for t in range(len(mat))]
            cols.append("[" + ", ".join(col) + "]")
        items.append(f"u({i}) = [{', '.join(cols)}];")
    body = "\n  ".join(items)
    return f"map {name} {{\n  {body}\n}}"


class _BlockScanner:
    """Shared splitter for the `kind name { item; item; }` text blocks."""

    def __init__(self, text: str):
        self.text = text

    def parse_block(self, expected_kind: str) -> tuple[str, list[str]]:
        text = self.text.strip()
        head, _, rest = text.partition("{")
        parts = head.split()
        if len(parts) != 2 or parts[0] != expected_kind:
            raise ParseError(f"expected `{expected_kind} <name> {{...}}`")
        if not rest.rstrip().endswith("}"):
            raise ParseError("missing closing brace")
        body = rest.rstrip()[:-1]
        items = [chunk.strip() for chunk in body.split(";") if chunk.strip()]
        return parts[1], items


def _parse_bracket_list(text: str) -> list[str]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(f"expected a bracketed list, got {text!r}")
    inner = text[1:-1]
    items, depth, start = [], 0, 0
    for pos, ch in enumerate(inner):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "," and depth == 0:
            items.append(inner[start:pos].strip())
            start = pos + 1
    tail = inner[start:].strip()
    if tail:
        items.append(tail)
    return items


def parse_complex(text: str) -> tuple[str, FreeComplex, tuple[str, ...]]:
    name, items = _BlockScanner(text).parse_block("complex")
    names: list[str] = []
    weights: list[int] = []
    graded = True
    degrees: dict[int, list[BasisElement]] = {}
    diff_raw: dict[int, list[str]] = {}
    for item in items:
        if item.startswith("ring"):
            decl = item[len("ring") :].strip()
            if decl.endswith("ungraded"):
                graded = False
                decl = decl[: -len("ungraded")].strip()
            if not (decl.startswith("Q[") and decl.endswith("]")):
                raise ParseError(f"bad ring declaration {item!r}")
            for chunk in decl[2:-1].split(","):
                chunk = chunk.strip()
                if ":" in chunk:
                    vname, w = chunk.split(":")
                    names.append(vname.strip())
                    weights.append(int(w))
                else:
                    names.append(chunk)
                    weights.append(1)
        elif item.startswith("deg"):
            head, _, rest = item.partition(":")
            i = int(head[len("deg") :].strip())
            basis = []
            for chunk in _parse_bracket_list(rest):
                if ":" in chunk:
                    label, w = chunk.split(":")
                    basis.append(BasisElement(label.strip(), int(w)))
                else:
                    basis.append(BasisElement(chunk.strip(), 0))
            degrees[i] = basis
        elif item.startswith("d("):
            head, _, rest = item.partition("=")
            i = int(head.strip()[2:-1])
            diff_raw[i] = _parse_bracket_list(rest)
        else:
            raise ParseError(f"unknown item {item!r} in complex block")
    if not names:
        raise ParseError("complex block missing ring declaration")
    n = len(names)
    diff: dict[int, list[list[Poly]]] = {}
    from .polyforms import parse_poly

    for i, cols in diff_raw.items():
        rows = len(degrees.get(i + 1, []))
        mat = [[Poly.zero(n) for _ in cols] for _ in range(rows)]
        for s, col_text in enumerate(cols):
            entries = _parse_bracket_list(col_text)
            if len(entries) != rows:
                raise ParseError(f"d({i}) column {s} has wrong length")
            for t, entry in enumerate(entries):
                mat[t][s] = parse_poly(entry, names)
        diff[i] = mat
    cx = FreeComplex(n, degrees, diff, tuple(weights) if graded else None)
    return name, cx, tuple(names)
