"""Bounded complexes of finite free modules and graded Hom-complex algebra.

A FreeComplex stores, per homological degree, a labeled basis with
internal Z-grading weights and a polynomial differential matrix to the
next degree.  A ChainMap is a degree-r collection of Form-valued
matrices; the bracket [d,h] = d h - (-1)^{|h|} h d makes these the
Hom-complex.  Coefficients always sit to the right of basis symbols, and
composition wedges the left factor's form coefficient onto the left; all
other signs flow from these two conventions.

Coboundary questions are decided exactly by finite-dimensional linear
algebra over Q, one block per degree of the coefficients; that solver
lives in coboundary, which solve_coboundary loads on its first call.  Shifts, cones and the text format for
complexes serve only the selftest groups, which hold them.
"""
from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache, partial

from .polyforms import (
    ArityError,
    Form,
    Poly,
    Record,
    _form_from_acc,
    _mul_into,
    _scale_into,
    _wedge_into,
    default_names,
    form_to_text,
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


def _product(acc: dict, a: dict, b: dict, into, negate: bool = False) -> dict:
    """Add the product a . b of two stored matrices, or its negative, into
    acc[t][s] and return acc.  Each acc[t][s] is a raw accumulator, and
    into(entry, x, y, negate) adds x * y to it: polyforms._mul_into for
    polynomials, _wedge_into for forms and _scale_into for a polynomial and
    a form.  Only nonzero entries meet."""
    for t, arow in a.items():
        out = acc.setdefault(t, {})
        for m, x in arow.items():
            for s, y in b.get(m, {}).items():
                entry = out.get(s)
                if entry is None:
                    entry = out[s] = {}
                into(entry, x, y, negate)
    return acc


def _first_defect(pairs) -> int | None:
    """The first degree i, in the order the right factors store them, at
    which the sum of a[i + 1] . b[i] over the pairs (a, b) of stored
    polynomial matrices has a nonzero entry; None when every sum is zero."""
    for i in dict.fromkeys(j for _, b in pairs for j in b):
        acc = {}
        for a, b in pairs:
            _product(acc, a.get(i + 1, {}), b.get(i, {}), _mul_into)
        if any(c for row in acc.values() for raw in row.values() for c in raw.values()):
            return i
    return None


def _settle(acc: dict, build) -> dict:
    """The stored matrix of build of every entry of acc, a filled
    accumulator or a stored matrix."""
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


def _entrywise(mats: dict, fn) -> dict:
    """fn of every stored entry, stored: the zero values, and the rows and
    matrices they empty, dropped."""
    return {i: out for i, mat in mats.items() if (out := _settle(mat, fn))}


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
        # built once: atiyah.atiyah_cocycle's, coboundary._graded_block's
        self._basis_atiyah, self._coboundary_blocks = None, {}
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
        if (i := _first_defect([(self.diff, self.diff)])) is not None:
            raise ShapeError(f"d o d != 0 between degrees {i} and {i + 2}")
        if self.graded:
            # a graded differential preserves internal degree, so each
            # entry is homogeneous of degree weight(source) - weight(target)
            for i, t, s, p in self.nonzeros():
                want = self.basis(i)[s].weight - self.basis(i + 1)[t].weight
                if p.homogeneous_degree(self.var_weights) != want:
                    raise GradingError(f"entry d({i})[{t}][{s}] not homogeneous of degree {want}")

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
        """fn of every nonzero entry, as stored matrices {i: {row: {col:
        value}}} with the zero values dropped, which ChainMap._raw takes."""
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
        """fn of every nonzero entry, as FreeComplex.entrywise gives it."""
        return _entrywise(self.mats, fn)

    def is_zero(self) -> bool:
        return not self.mats

    def __add__(self, other: "ChainMap") -> "ChainMap":
        self._compat(other)
        mats = {i: {t: dict(row) for t, row in mat.items()} for i, mat in self.mats.items()}
        for i, t, s, y in other.nonzeros():
            row = mats.setdefault(i, {}).setdefault(t, {})
            row[s] = y if (x := row.get(s)) is None else x + y
        form_degree = self.form_degree if self.mats else other.form_degree
        return ChainMap._raw(self.source, self.target, self.degree, form_degree,
                             _entrywise(mats, lambda z: z))

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
    mats = {}
    for i in sorted(set(h.mats) | {j - 1 for j in h.mats}):
        # d h and -(-1)^r h d accumulate into one sum per entry
        acc = _product({}, tgt.diff.get(i + r, {}), h.mats.get(i, {}), _scale_into)
        _product(acc, h.mats.get(i + 1, {}), src.diff.get(i, {}), _scale_into, negate=r % 2 == 0)
        mat = _settle(acc, build)
        if mat:
            mats[i] = mat
    return ChainMap._raw(src, tgt, r + 1, h.form_degree, mats)


def is_cocycle(h: ChainMap) -> bool:
    return hom_bracket(h).is_zero()


# -- graded components -----------------------------------------------------


@lru_cache(maxsize=256)
def monomials_of_weighted_degree(n: int, weights: tuple[int, ...], d: int) -> tuple[tuple, ...]:
    """The exponent vectors of weighted degree d.  The last 256 distinct
    (n, weights, d) are kept, so each basis is enumerated once and shared;
    hence a tuple, and `weights` must be hashable."""
    if d < 0:
        return ()
    out: list[tuple[int, ...]] = []

    def rec(i: int, remaining: int, prefix: tuple[int, ...]):
        if i == n - 1:
            if remaining % weights[i] == 0:
                out.append(prefix + (remaining // weights[i],))
            return
        for k in range(remaining // weights[i] + 1):
            rec(i + 1, remaining - k * weights[i], prefix + (k,))

    rec(0, d, ())
    return tuple(out)


def solve_coboundary(c: ChainMap) -> "GradedSolveReport":
    """Decide exactly whether c = [d,h] for some graded h; witness on success.

    Both complexes must be graded over matching weights; c must be a
    cocycle.  The solve, in coboundary, is one pass over c's terms; each
    term's degree picks a finite-dimensional block of candidate entries.
    """
    return _coboundary()._solve_coboundary(c)


@lru_cache(maxsize=None)
def _coboundary():
    """The solver module: imported once, then one cache lookup per decision."""
    from . import coboundary

    return coboundary


# -- serialization ---------------------------------------------------------


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
