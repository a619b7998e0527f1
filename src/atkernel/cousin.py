"""Cousin complexes with supports in a complete intersection, and the
local trace from Koszul endomorphisms to Cousin representatives.

A Cousin element in degree p is a finite family, indexed by size-p
subsets alpha of {1..q}, of form-valued fractions with denominator a power
of f_alpha = prod_{i in alpha} f_i, put in lowest terms by the constructor
and nowhere else.  The local trace expands a map in the dual-gamma basis,
pairs against the canonical section of K (x) Cousin, and applies the
supertrace; the resulting closed formula is a signed partial trace over
entry pairs gf_alpha -> gf_beta with beta contained in alpha.  Whether a
top-degree element is a coboundary is decided exactly, by ideal
membership of its numerator, in coboundary.
"""
from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from itertools import combinations
from math import comb

from .chaincore import ChainMap, ShapeError, _coboundary
from .koszul import KoszulComplex, index_sets
from .polyforms import (
    Form,
    Poly,
    Record,
    _add_into,
    _form_from_acc,
    _merge_indices,
    form_to_text,
    poly_to_text,
)


class LocalizedForm(Record):
    """numerator / f_alpha^m with the index set alpha implicit from context."""

    __slots__ = ("num", "m")

    def __init__(self, num: Form, m: int):
        self.num = num
        self.m = m

    def is_zero(self) -> bool:
        return self.num.is_zero()


def _lf_canonical(lf: LocalizedForm, f_alpha: Poly) -> LocalizedForm:
    """Divide out common f_alpha factors of the numerator, exactly."""
    num, m = lf.num, lf.m
    while m > 0 and (quot := num.exact_quotient(f_alpha)) is not None:
        num, m = quot, m - 1
    return LocalizedForm(num, m)


def _lf_add(a: LocalizedForm, b: LocalizedForm, f_alpha: Poly) -> LocalizedForm:
    """a + b over the larger power of f_alpha, left for CousinElement to reduce."""
    m = max(a.m, b.m)
    num = a.num.mul_poly(f_alpha ** (m - a.m)) + b.num.mul_poly(f_alpha ** (m - b.m))
    return LocalizedForm(num, m)


class CousinElement:
    """Degree-p element of the Cousin complex of a sequence f_1..f_q."""

    def __init__(
        self,
        n: int,
        seq: Sequence[Poly],
        degree: int,
        entries: dict[tuple[int, ...], LocalizedForm] | None = None,
    ):
        self.n = n
        self.seq = tuple(seq)
        q = len(self.seq)
        if not 0 <= degree <= q:
            raise ValueError(f"cousin degree {degree} out of range for q={q}")
        self.degree = degree
        self.entries: dict[tuple[int, ...], LocalizedForm] = {}
        for alpha, lf in (entries or {}).items():
            alpha = tuple(alpha)
            if len(alpha) != degree or list(alpha) != sorted(set(alpha)):
                raise ValueError(f"bad index set {alpha} for degree {degree}")
            if any(not 1 <= i <= q for i in alpha):
                raise ValueError(f"index out of range in {alpha}")
            if not lf.is_zero():
                self.entries[alpha] = _lf_canonical(lf, self.f_alpha(alpha))

    @property
    def q(self) -> int:
        return len(self.seq)

    def f_alpha(self, alpha: Sequence[int]) -> Poly:
        out = self.seq[alpha[0] - 1] if alpha else Poly.one(self.n)
        for i in alpha[1:]:
            out = out * self.seq[i - 1]
        return out

    def is_zero(self) -> bool:
        return not self.entries

    def scale(self, c) -> "CousinElement":
        # a nonzero rational keeps every entry nonzero and in lowest terms
        out = CousinElement(self.n, self.seq, self.degree)
        if c:
            out.entries = {alpha: LocalizedForm(lf.num.scale(c), lf.m)
                           for alpha, lf in self.entries.items()}
        return out

    def __eq__(self, other) -> bool:
        # every entry is in lowest terms, and lowest terms are unique in the
        # domain Q[x], so equal elements have equal entries
        if not isinstance(other, CousinElement):
            return NotImplemented
        return (self.n, self.seq, self.degree, self.entries) == (
            other.n, other.seq, other.degree, other.entries)

    def __repr__(self):
        return f"CousinElement({cousin_to_text(self)!r})"


def cousin_differential(c: CousinElement) -> CousinElement:
    """d(delta f_alpha) = -sum_i delta f_i ^ delta f_alpha, coefficients
    re-expressed in the larger localization."""
    if c.degree >= c.q:
        raise ValueError("cousin differential out of range")
    out: dict[tuple[int, ...], LocalizedForm] = {}
    for alpha, lf in c.entries.items():
        for i in range(1, c.q + 1):
            merged = _merge_indices((i,), alpha)
            if merged is None:
                continue
            sign, bigger = merged
            lifted = LocalizedForm(
                lf.num.mul_poly(c.seq[i - 1] ** lf.m).scale(-sign), lf.m
            )
            if bigger in out:
                out[bigger] = _lf_add(out[bigger], lifted, c.f_alpha(bigger))
            else:
                out[bigger] = lifted
    return CousinElement(c.n, c.seq, c.degree + 1, out)


@lru_cache(maxsize=None)
def _trace_plan(q: int, p_alpha: int, d: int) -> dict:
    """The entries that the local trace reads of a degree-d map out of degree
    -p_alpha: (t, s) -> (alpha minus beta, sign), for alpha the s-th index
    set of size p_alpha and beta the t-th of size p_alpha - d, beta in alpha.
    The sign is the canonical section's times the shuffle's times the supertrace's."""
    p_beta = p_alpha - d
    position = {beta: t for t, beta in enumerate(index_sets(q, p_beta))}
    plan = {}
    for s, alpha in enumerate(index_sets(q, p_alpha)):
        for beta in combinations(alpha, p_beta):
            alpha_prime = tuple(i for i in alpha if i not in beta)
            shuffle, _ = _merge_indices(beta, alpha_prime)
            plan[position[beta], s] = (alpha_prime, (-1) ** (comb(d, 2) + p_beta * (1 + d)) * shuffle)
    return plan


def local_trace(u: ChainMap, k: KoszulComplex) -> CousinElement:
    """Trace a Koszul endomorphism into a Cousin representative.

    Expands u in the dual-gamma basis, pairs against the canonical
    section, whose sign at alpha is (-1)^{binom(|alpha|,2)}, and applies
    the supertrace.  The entry from gf_alpha to gf_beta contributes only
    when beta is contained in alpha, landing on delta f_{alpha minus beta}.
    The signs that the plan gives each (alpha minus beta, entry object) are
    summed first, so an entry shared by many positions, as in the kept
    Atiyah powers, is added into the raw accumulators once per target.
    """
    if u.source != k.complex or u.target != k.complex:
        raise ShapeError("local_trace needs an endomorphism of the Koszul complex")
    d = u.degree
    if d < 0 or d > k.q:
        return CousinElement(k.n, k.ideal.polys, min(max(d, 0), k.q))
    groups: dict[tuple, list] = {}  # (alpha minus beta, id) -> [entry, summed sign]
    plans = {i: _trace_plan(k.q, -i, d) for i in u.mats}
    for i, t, s, entry in u.nonzeros():
        if (read := plans[i].get((t, s))) is not None:
            group = groups.setdefault((read[0], id(entry)), [entry, 0])
            group[1] += read[1]
    acc: dict[tuple[int, ...], dict] = {}
    for (alpha_prime, _), (entry, times) in groups.items():
        if times:
            _add_into(acc.setdefault(alpha_prime, {}), entry, times)
    entries = {alpha: LocalizedForm(_form_from_acc(k.n, u.form_degree, raw), 1 if alpha else 0)
               for alpha, raw in acc.items()}
    return CousinElement(k.n, k.ideal.polys, d, entries)


def cousin_coboundary_solve(target: CousinElement) -> CousinElement | None:
    """Decide whether a top-degree element is a coboundary: b of degree q-1
    with d(b) = target checked, or None, which proves its class nonzero by
    an inconsistent bounded solve and a nonzero Groebner normal form both.
    The decision lives in coboundary, imported on the first call."""
    return _coboundary()._solve_cousin_coboundary(target)


def cousin_to_text(c: CousinElement, names: Sequence[str] | None = None) -> str:
    if c.is_zero():
        return "0"
    chunks = []
    for alpha in sorted(c.entries):
        lf = c.entries[alpha]
        num = form_to_text(lf.num, names)
        delta = "delta[" + "^".join(f"f{i}" for i in alpha) + "]"
        if alpha:
            den = poly_to_text(c.f_alpha(alpha), names)
            chunks.append(f"({num}) / ({den})^{lf.m} * {delta}")
        else:
            chunks.append(f"({num}) * {delta}")
    return " + ".join(chunks)
