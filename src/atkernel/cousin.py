"""Cousin complexes with supports in a complete intersection, and the
local trace from Koszul endomorphisms to Cousin representatives.

A Cousin element in degree p is a finite family, indexed by size-p
subsets alpha of {1..q}, of form-valued fractions with denominator a
power of f_alpha = prod_{i in alpha} f_i.  The local trace expands a map
in the dual-gamma basis, pairs against the canonical section of
K (x) Cousin, and applies the supertrace; the resulting closed formula
is a signed partial trace over entry pairs gf_alpha -> gf_beta with
beta contained in alpha.  Whether a top-degree element is a coboundary
is decided exactly, by ideal membership of its numerator.
"""
from __future__ import annotations

from collections.abc import Sequence
from math import comb

from .chaincore import ChainMap, ShapeError, _solve_products, monomials_of_weighted_degree
from .groebner import membership_excess
from .koszul import KoszulComplex, RegularSequenceIdeal, index_sets
from .polyforms import Form, Poly, Record, _merge_indices, form_to_text, poly_to_text


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
    if num.is_zero():
        return LocalizedForm(num, 0)
    while m > 0:
        quotients = {}
        ok = True
        for idx, coeff in num.terms.items():
            quot, rem = coeff.divmod_single(f_alpha)
            if not rem.is_zero():
                ok = False
                break
            quotients[idx] = quot
        if not ok:
            break
        num = Form(num.n, num.degree, quotients)
        m -= 1
    return LocalizedForm(num, m)


def _lf_add(a: LocalizedForm, b: LocalizedForm, f_alpha: Poly) -> LocalizedForm:
    m = max(a.m, b.m)
    num = a.num.mul_poly(f_alpha ** (m - a.m)) + b.num.mul_poly(f_alpha ** (m - b.m))
    return _lf_canonical(LocalizedForm(num, m), f_alpha)


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
            lf = _lf_canonical(lf, self.f_alpha(alpha))
            if not lf.is_zero():
                self.entries[alpha] = lf

    @property
    def q(self) -> int:
        return len(self.seq)

    def f_alpha(self, alpha: Sequence[int]) -> Poly:
        out = Poly.one(self.n)
        for i in alpha:
            out = out * self.seq[i - 1]
        return out

    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other: "CousinElement") -> "CousinElement":
        if self.n != other.n or self.seq != other.seq:
            raise ShapeError("cousin elements over different data")
        if self.degree != other.degree:
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise ShapeError("cousin degree mismatch")
        entries = dict(self.entries)
        for alpha, lf in other.entries.items():
            if alpha in entries:
                entries[alpha] = _lf_add(entries[alpha], lf, self.f_alpha(alpha))
            else:
                entries[alpha] = lf
        return CousinElement(self.n, self.seq, self.degree, entries)

    def __neg__(self) -> "CousinElement":
        return self.scale(-1)

    def __sub__(self, other: "CousinElement") -> "CousinElement":
        return self + (-other)

    def scale(self, c) -> "CousinElement":
        return CousinElement(
            self.n,
            self.seq,
            self.degree,
            {a: LocalizedForm(lf.num.scale(c), lf.m) for a, lf in self.entries.items()},
        )

    def __eq__(self, other) -> bool:
        # every entry is in lowest terms, and lowest terms are unique in the
        # domain Q[x], so equal elements have equal entries
        if not isinstance(other, CousinElement):
            return NotImplemented
        return (self.n, self.seq, self.degree, self.entries) == (
            other.n, other.seq, other.degree, other.entries)

    def __repr__(self):
        return f"CousinElement({cousin_to_text(self)!r})"


def cousin_zero(n: int, seq: Sequence[Poly], degree: int = 0) -> CousinElement:
    return CousinElement(n, seq, degree, {})


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


def omega_class(ideal: RegularSequenceIdeal) -> CousinElement:
    """The top-degree class delta f_1/f_1 ^ ... ^ delta f_q/f_q."""
    full = tuple(range(1, ideal.q + 1))
    one = Form.from_poly(Poly.one(ideal.n))
    return CousinElement(
        ideal.n, ideal.polys, ideal.q, {full: LocalizedForm(one, 1)}
    )


def psi_section(ideal: RegularSequenceIdeal) -> dict[tuple[int, ...], int]:
    """Table alpha -> sign (-1)^{binom(|alpha|,2)} of the canonical section."""
    out = {}
    for p in range(ideal.q + 1):
        for alpha in index_sets(ideal.q, p):
            out[alpha] = (-1) ** comb(p, 2)
    return out


def local_trace(u: ChainMap, k: KoszulComplex) -> CousinElement:
    """Trace a Koszul endomorphism into a Cousin representative.

    Expands u in the dual-gamma basis, pairs against the canonical
    section (the psi table), and applies the supertrace.  The entry from
    gf_alpha to gf_beta contributes only when beta is contained in alpha,
    landing on delta f_{alpha minus beta}.
    """
    if u.source != k.complex or u.target != k.complex:
        raise ShapeError("local_trace needs an endomorphism of the Koszul complex")
    d = u.degree
    if d < 0 or d > k.q:
        return cousin_zero(k.n, k.ideal.polys, min(max(d, 0), k.q))
    psi = psi_section(k.ideal)
    acc: dict[tuple[int, ...], Form] = {}
    for i, t, s, entry in u.nonzeros():
        p_beta = -i - d
        if p_beta < 0:
            continue
        alpha, beta = index_sets(k.q, -i)[s], index_sets(k.q, p_beta)[t]
        aset = set(alpha)
        if not aset.issuperset(beta):
            continue
        alpha_prime = tuple(sorted(aset - set(beta)))
        shuffle, _ = _merge_indices(beta, alpha_prime)
        sign = psi[alpha_prime] * shuffle * (-1) ** (p_beta * (1 + len(alpha_prime)))
        add = entry.scale(sign)
        acc[alpha_prime] = acc.get(alpha_prime, Form.zero(k.n, u.form_degree)) + add
    entries = {
        alpha: LocalizedForm(num, 1 if alpha else 0)
        for alpha, num in acc.items()
        if not num.is_zero()
    }
    return CousinElement(k.n, k.ideal.polys, d, entries)


def cousin_coboundary_solve(target: CousinElement) -> CousinElement | None:
    """Decide whether a top-degree element is a coboundary: b of degree q-1
    with d(b) = target, or None, which proves that its class is not zero.

    The sequence must be regular, as the regularity guard proves before
    every command.  Then num / f_full^m is a coboundary exactly when every
    coefficient of num lies in (f_1^m, ..., f_q^m), for the target's own m:
    the transition maps of H^q_I = lim H^q(f^m) are injective (Bruns-Herzog
    3.5).  A member's cofactors num_i, the numerators of b at full-minus-i,
    come from one linear solve in the degrees that the Groebner basis bounds.
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
