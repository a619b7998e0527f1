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
from collections.abc import Sequence
from functools import partial
from operator import add

from . import linalg
from .polyforms import (
    ArityError,
    Form,
    ParseError,
    Poly,
    Record,
    _canon,
    _form_from_acc,
    _mul_into,
    _poly_from_acc,
    _wedge_into,
    default_names,
    form_to_text,
    parse_poly,
    parse_ring,
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


def _stored(mat, rows: int, cols: int, n: int, form_degree: int | None, what: str) -> dict:
    """A matrix given as a sequence of rows, or as {row: {col: entry}}, in
    the stored form: {row: {col: entry}} with nonzero entries only and no
    empty row.  Every given entry, zero or not, must have arity n and sit
    inside rows x cols; a form entry that is nonzero must have form_degree."""
    if isinstance(mat, dict):
        if any(not 0 <= t < rows for t in mat):
            raise ShapeError(f"{what} has wrong shape")
        given = mat.items()
    elif len(mat) != rows:
        raise ShapeError(f"{what} has wrong shape")
    else:
        given = enumerate(mat)
    out = {}
    for t, row in given:
        if isinstance(row, dict):
            if any(not 0 <= s < cols for s in row):
                raise ShapeError(f"{what} has wrong shape")
            pairs = row.items()
        elif len(row) != cols:
            raise ShapeError(f"{what} has wrong shape")
        else:
            pairs = enumerate(row)
        kept = {}
        for s, x in pairs:
            if x.n != n:
                raise ArityError(f"{what} entry arity mismatch")
            if x.terms:
                if form_degree is not None and x.degree != form_degree:
                    raise ShapeError("nonuniform form degree in chain map")
                kept[s] = x
        if kept:
            out[t] = kept
    return out


def _nonzeros(mats: dict):
    for i, mat in mats.items():
        for t, row in mat.items():
            for s, x in row.items():
                yield i, t, s, x


def _entrywise(mats: dict, fn) -> dict:
    """fn applied to every stored entry; stored as it is when fn keeps
    nonzero entries nonzero."""
    return {
        i: {t: {s: fn(x) for s, x in row.items()} for t, row in mat.items()}
        for i, mat in mats.items()
    }


def _pruned(mats: dict) -> dict:
    """mats without its empty rows and empty matrices."""
    out = {}
    for i, mat in mats.items():
        mat = {t: row for t, row in mat.items() if row}
        if mat:
            out[i] = mat
    return out


def _product(acc: dict, a: dict, b: dict, into, negate: bool = False) -> dict:
    """Add the product a . b of two stored matrices, or its negative, into
    acc[t][s] and return acc.  Each acc[t][s] is a raw accumulator, and
    into(entry, x, y, negate) adds x * y to it: polyforms._mul_into for
    polynomials, _wedge_into for forms.  Only nonzero entries meet."""
    for t, arow in a.items():
        out = acc.setdefault(t, {})
        for m, x in arow.items():
            for s, y in b.get(m, {}).items():
                entry = out.get(s)
                if entry is None:
                    entry = out[s] = {}
                into(entry, x, y, negate)
    return acc


def _settle(acc: dict, build) -> dict:
    """The stored matrix of a filled accumulator; build makes one entry."""
    out = {}
    for t, row in acc.items():
        kept = {}
        for s, raw in row.items():
            x = build(raw)
            if x.terms:
                kept[s] = x
        if kept:
            out[t] = kept
    return out


class FreeComplex:
    """Bounded complex of free modules with labeled, weighted bases.

    diff[i], the differential from degree i to i + 1, is stored as
    {row: {col: Poly}} with nonzero entries only; entry(i, t, s) reads it.
    """

    def __init__(
        self,
        n: int,
        degrees: dict[int, Sequence[BasisElement]],
        diff: dict,
        var_weights: Sequence[int] | None = None,
    ):
        self.n = n
        self.degrees = {i: tuple(b) for i, b in degrees.items() if b}
        self.var_weights = tuple(var_weights) if var_weights is not None else None
        if self.var_weights is not None:
            if len(self.var_weights) != n or any(w < 1 for w in self.var_weights):
                raise GradingError("variable weights must be positive, one per variable")
        # the basis-connection Atiyah cocycle, built once by atiyah.atiyah_cocycle
        self._basis_atiyah = None
        if self.total_rank() > MAX_TOTAL_RANK:
            raise ShapeError(f"complex exceeds {MAX_TOTAL_RANK} total basis elements")
        labels = [b.label for bs in self.degrees.values() for b in bs]
        if len(labels) != len(set(labels)):
            raise ShapeError("basis labels must be globally unique")
        self.diff = {}
        for i, mat in diff.items():
            mat = _stored(mat, self.rank(i + 1), self.rank(i), n, None, f"differential d({i})")
            if mat:
                self.diff[i] = mat
        for i, mat in self.diff.items():
            square = _product({}, self.diff.get(i + 1, {}), mat, _mul_into)
            if _settle(square, partial(_poly_from_acc, n)):
                raise ShapeError(f"d o d != 0 between degrees {i} and {i + 2}")
        if self.graded:
            # a graded differential preserves internal degree, so each
            # entry is homogeneous of degree weight(source) - weight(target)
            for i, t, s, p in self.nonzeros():
                want = self.basis(i)[s].weight - self.basis(i + 1)[t].weight
                if p.homogeneous_degree(self.var_weights) != want:
                    raise GradingError(f"entry d({i})[{t}][{s}] not homogeneous of degree {want}")

    @staticmethod
    def _raw(n: int, degrees: dict, diff: dict, var_weights) -> "FreeComplex":
        """Trusted constructor for internal arithmetic: degrees maps to
        nonempty tuples and diff is already stored and valid."""
        c = object.__new__(FreeComplex)
        c.n, c.degrees, c.diff, c.var_weights = n, degrees, diff, var_weights
        c._basis_atiyah = None
        return c

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

    def entry(self, i: int, t: int, s: int) -> Poly:
        """The entry of d(i) from basis element s of degree i to t of i + 1."""
        p = self.diff.get(i, {}).get(t, {}).get(s)
        return Poly.zero(self.n) if p is None else p

    def nonzeros(self):
        """(i, t, s, entry) for every nonzero entry of the differential."""
        return _nonzeros(self.diff)

    def entrywise(self, fn) -> dict:
        """fn of every nonzero entry, as matrices {i: {row: {col: value}}}
        that the constructors take; they drop the zero values."""
        return _entrywise(self.diff, fn)

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

    mats[i], from degree i of the source to degree i + r of the target, is
    stored as {row: {col: Form}} with nonzero entries only, each of form
    degree form_degree; entry(i, t, s) reads it.
    """

    def __init__(
        self,
        source: FreeComplex,
        target: FreeComplex,
        degree: int,
        form_degree: int,
        mats: dict,
    ):
        if source.n != target.n:
            raise ArityError("source and target live over different rings")
        self.source = source
        self.target = target
        self.degree = degree
        self.form_degree = form_degree
        self.mats = {}
        for i, mat in mats.items():
            mat = _stored(mat, target.rank(i + degree), source.rank(i), source.n, form_degree,
                          f"map matrix at degree {i}")
            if mat:
                self.mats[i] = mat

    @staticmethod
    def _raw(source: FreeComplex, target: FreeComplex, degree: int, form_degree: int,
             mats: dict) -> "ChainMap":
        """Trusted constructor for internal arithmetic: mats is already
        stored, with no zero entry, empty row or empty matrix."""
        u = object.__new__(ChainMap)
        u.source, u.target, u.degree, u.form_degree, u.mats = (
            source, target, degree, form_degree, mats)
        return u

    def entry(self, i: int, t: int, s: int) -> Form:
        """The entry from basis element s of source degree i to t of target
        degree i + degree."""
        f = self.mats.get(i, {}).get(t, {}).get(s)
        return Form.zero(self.source.n, self.form_degree) if f is None else f

    def nonzeros(self):
        """(i, t, s, entry) for every nonzero entry."""
        return _nonzeros(self.mats)

    def entrywise(self, fn) -> dict:
        """fn of every nonzero entry, as FreeComplex.entrywise."""
        return _entrywise(self.mats, fn)

    def is_zero(self) -> bool:
        return not self.mats

    def __add__(self, other: "ChainMap") -> "ChainMap":
        self._compat(other)
        mats = {i: {t: dict(row) for t, row in mat.items()} for i, mat in self.mats.items()}
        for i, t, s, y in other.nonzeros():
            row = mats.setdefault(i, {}).setdefault(t, {})
            x = row.pop(s, None)
            z = y if x is None else x + y
            if z.terms:
                row[s] = z
        form_degree = self.form_degree if self.mats else other.form_degree
        return ChainMap._raw(self.source, self.target, self.degree, form_degree, _pruned(mats))

    def __neg__(self) -> "ChainMap":
        return ChainMap._raw(self.source, self.target, self.degree, self.form_degree,
                             _entrywise(self.mats, Form.__neg__))

    def __sub__(self, other: "ChainMap") -> "ChainMap":
        return self + (-other)

    def scale(self, c) -> "ChainMap":
        mats = _entrywise(self.mats, lambda f: f.scale(c)) if c else {}
        return ChainMap._raw(self.source, self.target, self.degree, self.form_degree, mats)

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
    __slots__ = ("solvable", "witness")

    def __init__(self, solvable: bool, witness: ChainMap | None):
        self.solvable = solvable
        self.witness = witness


# -- basic constructions ---------------------------------------------------


def identity_map(c: FreeComplex) -> ChainMap:
    one = Form.from_poly(Poly.one(c.n))
    mats = {i: {a: {a: one} for a in range(len(b))} for i, b in c.degrees.items()}
    return ChainMap._raw(c, c, 0, 0, mats)


def zero_map(source: FreeComplex, target: FreeComplex, degree: int, form_degree: int = 0) -> ChainMap:
    return ChainMap(source, target, degree, form_degree, {})


def compose(u: ChainMap, v: ChainMap) -> ChainMap:
    """u o v; map degrees add and form coefficients wedge (u's on the left)."""
    if v.target != u.source:
        raise ShapeError("compose: target of v is not source of u")
    n = u.source.n
    form_degree = u.form_degree + v.form_degree
    mats = {}
    # a wedge of more than n one-forms is zero
    if form_degree <= n:
        build = partial(_form_from_acc, n, form_degree)
        for i, vmat in v.mats.items():
            umat = u.mats.get(i + v.degree)
            if umat is not None:
                mat = _settle(_product({}, umat, vmat, _wedge_into), build)
                if mat:
                    mats[i] = mat
    return ChainMap._raw(v.source, u.target, u.degree + v.degree, min(form_degree, n), mats)


def hom_bracket(h: ChainMap) -> ChainMap:
    """[d,h] = d h - (-1)^{|h|} h d in the Hom-complex."""
    r = h.degree
    src, tgt = h.source, h.target
    build = partial(_form_from_acc, src.n, h.form_degree)
    # both differentials as degree-0 forms
    dt = tgt.entrywise(Form.from_poly)
    ds = dt if src is tgt else src.entrywise(Form.from_poly)
    mats = {}
    for i in sorted(set(h.mats) | {j - 1 for j in h.mats}):
        # d h and -(-1)^r h d accumulate into one sum per entry
        acc = _product({}, dt.get(i + r, {}), h.mats.get(i, {}), _wedge_into)
        _product(acc, h.mats.get(i + 1, {}), ds.get(i, {}), _wedge_into, negate=r % 2 == 0)
        mat = _settle(acc, build)
        if mat:
            mats[i] = mat
    return ChainMap._raw(src, tgt, r + 1, h.form_degree, mats)


def is_cocycle(h: ChainMap) -> bool:
    return hom_bracket(h).is_zero()


def shift(c: FreeComplex, i: int) -> FreeComplex:
    """Shifted complex with degrees translated and differential times (-1)^i."""
    if i == 0:
        return c
    sign = (-1) ** (i % 2)
    degrees = {n - i: b for n, b in c.degrees.items()}
    diff = {n - i: mat for n, mat in _entrywise(c.diff, lambda p: p.scale(sign)).items()}
    return FreeComplex._raw(c.n, degrees, diff, c.var_weights)


def shift_map(u: ChainMap, i: int) -> ChainMap:
    """The same matrices viewed between shifted complexes."""
    return ChainMap._raw(
        shift(u.source, i),
        shift(u.target, i),
        u.degree,
        u.form_degree,
        {n - i: mat for n, mat in u.mats.items()},
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
    degrees: dict[int, list[BasisElement]] = {}
    for i in set(ncx.support()) | {j - 1 for j in nprime.support()}:
        combined = list(ncx.basis(i)) + [
            BasisElement("T_" + b.label, b.weight) for b in nprime.basis(i + 1)
        ]
        if combined:
            degrees[i] = combined
    diff: dict[int, dict] = {}
    for i, t, s, p in ncx.nonzeros():
        diff.setdefault(i, {}).setdefault(t, {})[s] = p
    for i, t, s, w in f.nonzeros():
        diff.setdefault(i - 1, {}).setdefault(t, {})[ncx.rank(i - 1) + s] = -w.to_poly()
    for i, t, s, p in nprime.nonzeros():
        diff.setdefault(i - 1, {}).setdefault(ncx.rank(i) + t, {})[ncx.rank(i - 1) + s] = -p
    var_weights = ncx.var_weights if ncx.var_weights == nprime.var_weights else None
    return FreeComplex(ncx.n, degrees, diff, var_weights)


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
                rows.setdefault((slot, idx, tuple(map(add, expt, e2))), {})[vi] = sign * q
    values = {
        (slot, idx, expt): q
        for slot, form in rhs.items()
        for idx, coeff in form.terms.items()
        for expt, q in coeff.terms.items()
    }
    keys = list(rows.keys() | values.keys())
    solution = linalg.solve([rows.get(e, {}) for e in keys], [values.get(e, 0) for e in keys],
                            num_vars)
    if solution is None:
        return None
    out = {}
    for key, terms in supports.items():
        acc: dict = {}
        for vi, (idx, expt) in enumerate(terms, first[key]):
            if solution[vi]:
                acc.setdefault(idx, {})[expt] = _canon(solution[vi])
        if acc:
            out[key] = _form_of_terms(n, k, acc)
    return out


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


# -- serialization ---------------------------------------------------------


def complex_to_text(c: FreeComplex, name: str, names: Sequence[str] | None = None) -> str:
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
        cols = []
        for s in range(c.rank(i)):
            col = [poly_to_text(c.entry(i, t, s), names) for t in range(c.rank(i + 1))]
            cols.append("[" + ", ".join(col) + "]")
        items.append(f"d({i}) = [{', '.join(cols)}];")
    body = "\n  ".join(items)
    return f"complex {name} {{\n  {body}\n}}"


def map_to_text(u: ChainMap, name: str, names: Sequence[str] | None = None) -> str:
    names = list(names or default_names(u.source.n))
    items = [f"degree {u.degree};", f"formdeg {u.form_degree};"]
    for i in sorted(u.mats):
        cols = []
        for s in range(u.source.rank(i)):
            rows = range(u.target.rank(i + u.degree))
            col = [form_to_text(u.entry(i, t, s), names) for t in rows]
            cols.append("[" + ", ".join(col) + "]")
        items.append(f"u({i}) = [{', '.join(cols)}];")
    body = "\n  ".join(items)
    return f"map {name} {{\n  {body}\n}}"


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


def _item_int(text: str, item: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected an integer, got {text.strip()!r} in item {item!r}") from None


def parse_complex(text: str) -> tuple[str, FreeComplex, tuple[str, ...]]:
    """Read a `complex <name> { item; ... }` block as complex_to_text writes
    it; the `ring` item is a session ring declaration, tagged ` ungraded` or not."""
    head, _, rest = text.strip().partition("{")
    parts = head.split()
    if len(parts) != 2 or parts[0] != "complex":
        raise ParseError("expected `complex <name> {...}`")
    if not rest.rstrip().endswith("}"):
        raise ParseError("missing closing brace")
    name = parts[1]
    items = [chunk.strip() for chunk in rest.rstrip()[:-1].split(";") if chunk.strip()]
    names: tuple[str, ...] = ()
    weights: tuple[int, ...] = ()
    graded = True
    degrees: dict[int, list[BasisElement]] = {}
    diff_raw: dict[int, list[str]] = {}
    for item in items:
        if item.startswith("ring"):
            if names:
                raise ParseError("ring declared twice in complex block")
            decl = item[len("ring") :].strip()
            if decl.endswith(" ungraded"):
                graded = False
                decl = decl[: -len(" ungraded")]
            names, weights = parse_ring(decl)
        elif item.startswith("deg"):
            head, _, rest = item.partition(":")
            i = _item_int(head[len("deg") :], item)
            if i in degrees:
                raise ParseError(f"degree {i} declared twice in complex block")
            degrees[i] = []
            for chunk in _parse_bracket_list(rest):
                label, colon, w = chunk.partition(":")
                degrees[i].append(BasisElement(label.strip(), _item_int(w, item) if colon else 0))
        elif item.startswith("d("):
            head, _, rest = item.partition("=")
            i = _item_int(head.strip()[2:-1], item)
            if i in diff_raw:
                raise ParseError(f"d({i}) given twice in complex block")
            diff_raw[i] = _parse_bracket_list(rest)
        else:
            raise ParseError(f"unknown item {item!r} in complex block")
    if not names:
        raise ParseError("complex block missing ring declaration")
    n = len(names)
    diff: dict[int, dict] = {}
    for i, cols in diff_raw.items():
        rows = len(degrees.get(i + 1, []))
        diff[i] = {t: {} for t in range(rows)}
        for s, col_text in enumerate(cols):
            entries = _parse_bracket_list(col_text)
            if len(entries) != rows:
                raise ParseError(f"d({i}) column {s} has wrong length")
            for t, entry in enumerate(entries):
                diff[i][t][s] = parse_poly(entry, names)
    cx = FreeComplex(n, degrees, diff, weights if graded else None)
    return name, cx, names
