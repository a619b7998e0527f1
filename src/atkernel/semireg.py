"""Chern characters and semiregularity representatives by both routes.

Everything is computed at cocycle level on Koszul resolutions: the
Atiyah route traces powers of the Atiyah cocycle, and the direct route is
the explicit top-localization formula.  The two representatives are
literally equal for every sequence and hom (see compare_semireg), so a
fail verdict is a defect, not a statement about classes.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial

from .atiyah import atiyah_cocycle, atiyah_power
from .chaincore import ChainMap, ShapeError, _entrywise, _first_defect, compose, is_cocycle
from .cousin import CousinElement, LocalizedForm, local_trace
from .koszul import (
    KoszulComplex,
    NormalHom,
    RegularSequenceIdeal,
    build_koszul,
    _derivation_matrices,
)
from .polyforms import Form, exterior_derivative, wedge


class SemiregReport:
    __slots__ = ("atiyah_route", "mu_route", "verdict")

    def __init__(self, atiyah_route: CousinElement, mu_route: CousinElement, verdict: str):
        # verdict: representative-exact | fail
        self.atiyah_route = atiyah_route
        self.mu_route = mu_route
        self.verdict = verdict


def ext1_representative(phi: NormalHom, kz: KoszulComplex) -> ChainMap:
    """The degree-1 derivation gf_i -> phi_i on kz, zero on the ring.

    kz must resolve phi's sequence.  The bracket [d, D] = dD + Dd vanishes
    identically over the ambient ring, which is asserted entry by entry on
    the polynomial matrices, as the d o d check does; the matrices then go
    to ChainMap._raw as degree-0 forms.
    """
    if kz.ideal != phi.ideal:
        raise ShapeError("Koszul complex resolves a different sequence")
    d, mats = kz.complex.diff, _derivation_matrices(phi.values)
    if _first_defect([(d, mats), (mats, d)]) is not None:
        raise AssertionError("derivation extension failed to be a cocycle")
    return ChainMap._raw(kz.complex, kz.complex, 1, 0, _entrywise(mats, Form.from_poly))


def _traced_power(kz: KoszulComplex, k: int, xi: ChainMap | None = None) -> CousinElement:
    """Trace of xi o (-At)^k / k!, or of (-At)^k / k! without xi.

    At^k is the complex's shared power; the scalar is applied to the
    traced element, and only when it is nonzero, so k! is never formed for
    a power beyond the length.
    """
    at_k = atiyah_power(atiyah_cocycle(kz.complex), k).chain_map
    traced = local_trace(at_k if xi is None else compose(xi, at_k), kz)
    return traced if traced.is_zero() else traced.scale(Fraction((-1) ** k, factorial(k)))


def chern_character(ideal: RegularSequenceIdeal, k: int) -> CousinElement:
    """Trace of (-1)^k At^k / k! as a Cousin representative."""
    return _traced_power(build_koszul(ideal), k)


def tau_atiyah(phi: NormalHom) -> CousinElement:
    """Trace of the phi-derivation against (-At)^k / k! for k = q-1."""
    kz = build_koszul(phi.ideal)
    return _traced_power(kz, phi.ideal.q - 1, ext1_representative(phi, kz))


def bloch_mu(phi: NormalHom) -> CousinElement:
    """sum_i (-1)^{i-1} omega . phi_i (x) df_1 ^ .. df_i-hat .. ^ df_q."""
    ideal = phi.ideal
    n, q = ideal.n, ideal.q
    full = tuple(range(1, q + 1))
    num = Form.zero(n, q - 1)
    dfs = [exterior_derivative(f) for f in ideal.polys]
    for i in range(1, q + 1):
        part = Form.from_poly(phi.values[i - 1].scale((-1) ** (i - 1)))
        for j in range(1, q + 1):
            if j != i:
                part = wedge(part, dfs[j - 1])
        num = num + part
    return CousinElement(n, ideal.polys, q, {full: LocalizedForm(num, 1)})


def sigma_component(xi: ChainMap, k: int, kz: KoszulComplex) -> CousinElement:
    """k-th component of the semiregularity map on a cocycle xi."""
    if not is_cocycle(xi):
        raise ShapeError("sigma needs a cocycle input")
    return _traced_power(kz, k, xi)


def compare_semireg(phi: NormalHom) -> SemiregReport:
    """Both semiregularity routes plus an equality verdict.

    tau equals mu literally for every sequence and hom.  Each numerator is
    a sum of phi_i df_K with integer coefficients that depend only on q,
    because every entry of At and of the phi derivation is +-df_j or phi_j
    at a position fixed by q, and compose, wedge and the trace are
    multilinear.  The coordinate case f = (x_1..x_q), phi = e_i fixes
    every coefficient, and a test checks it for each q the rank cap admits.
    So fail means that this identity broke.
    """
    tau = tau_atiyah(phi)
    mu = bloch_mu(phi)
    return SemiregReport(tau, mu, "representative-exact" if tau == mu else "fail")

