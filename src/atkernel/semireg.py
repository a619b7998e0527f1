"""Chern characters and semiregularity representatives by both routes.

Everything is computed at cocycle level on Koszul resolutions: the
Atiyah route traces powers of the Atiyah cocycle, the direct route is
the explicit top-localization formula, and equality is decided
representative-first with a bounded Cousin-coboundary fallback.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial

from .atiyah import AtiyahCocycle, atiyah_cocycle, atiyah_power
from .chaincore import (
    ChainMap,
    FreeComplex,
    ShapeError,
    compose,
    identity_map,
    is_cocycle,
)
from .cousin import (
    CousinElement,
    LocalizedForm,
    cousin_coboundary_solve,
    local_trace,
)
from .koszul import (
    KoszulComplex,
    NormalHom,
    RegularSequenceIdeal,
    _koszul_of,
    index_sets,
)
from .polyforms import Form, exterior_derivative, wedge


class SemiregReport:
    __slots__ = ("component", "atiyah_route", "mu_route", "verdict", "witness")

    def __init__(self, component: int, atiyah_route: CousinElement, mu_route: CousinElement,
                 verdict: str, witness: CousinElement | None = None):
        # verdict: representative-exact | coboundary | fail
        self.component = component
        self.atiyah_route = atiyah_route
        self.mu_route = mu_route
        self.verdict = verdict
        self.witness = witness


def ext1_representative(phi: NormalHom, kz: KoszulComplex | None = None) -> ChainMap:
    """The degree-1 derivation on K with gf_i -> phi_i, zero on the ring.

    The bracket of this extension vanishes identically over the ambient
    ring, which the constructor asserts.
    """
    kz = _koszul_of(phi.ideal, kz)
    n, q = kz.n, kz.q
    mats = {}
    zero = Form.zero(n, 0)
    for p in range(1, q + 1):
        sources = index_sets(q, p)
        targets = index_sets(q, p - 1)
        tpos = {a: i for i, a in enumerate(targets)}
        mat = [[zero] * len(sources) for _ in targets]
        for s, alpha in enumerate(sources):
            # dropping distinct entries of alpha leaves distinct index sets
            for pos, j in enumerate(alpha):
                rest = alpha[:pos] + alpha[pos + 1 :]
                mat[tpos[rest]][s] = Form.from_poly(phi.values[j - 1].scale((-1) ** pos))
        mats[-p] = mat
    out = ChainMap(kz.complex, kz.complex, 1, 0, mats)
    if not is_cocycle(out):
        raise AssertionError("derivation extension failed to be a cocycle")
    return out


def minus_at_power(kz: KoszulComplex, k: int) -> ChainMap:
    """(-At)^k on the Koszul complex with the basis connection."""
    at = atiyah_cocycle(kz.complex)
    negated = AtiyahCocycle(at.chain_map.scale(-1), 1, at.connection)
    return atiyah_power(negated, k).chain_map


def _over_factorial(u: ChainMap, k: int, sign: int = 1) -> ChainMap:
    """sign * u / k!; a zero u (k beyond the length) is returned before k! is formed."""
    return u if u.is_zero() else u.scale(Fraction(sign, factorial(k)))


def chern_character(
    ideal_or_free: RegularSequenceIdeal | FreeComplex,
    k: int,
    kz: KoszulComplex | None = None,
) -> CousinElement:
    """Trace of (-1)^k At^k / k! as a Cousin representative.

    kz, when given, is the ideal's Koszul complex and is not built again.
    """
    if isinstance(ideal_or_free, FreeComplex):
        if k == 0:
            return local_trace(identity_map(ideal_or_free))
        return CousinElement(ideal_or_free.n, (), 0, {})
    kz = _koszul_of(ideal_or_free, kz)
    at_k = atiyah_power(atiyah_cocycle(kz.complex), k).chain_map
    return local_trace(_over_factorial(at_k, k, (-1) ** k), kz)


def tau_atiyah(
    phi: NormalHom, component: int | None = None, kz: KoszulComplex | None = None
) -> CousinElement:
    """Trace of the phi-derivation against (-At)^k / k!; k defaults to q-1.

    kz, when given, is the Koszul complex of phi's ideal.
    """
    kz = _koszul_of(phi.ideal, kz)
    k = phi.ideal.q - 1 if component is None else component
    power = _over_factorial(minus_at_power(kz, k), k)
    rep = ext1_representative(phi, kz)
    return local_trace(compose(rep, power), kz)


def bloch_mu(phi: NormalHom) -> CousinElement:
    """sum_i (-1)^{i-1} omega . phi_i (x) df_1 ^ .. df_i-hat .. ^ df_q."""
    ideal = phi.ideal
    n, q = ideal.n, ideal.q
    full = tuple(range(1, q + 1))
    num = Form.zero(n, q - 1)
    for i in range(1, q + 1):
        part = Form.from_poly(phi.values[i - 1].scale((-1) ** (i - 1)))
        for j in range(1, q + 1):
            if j != i:
                part = wedge(part, exterior_derivative(ideal.polys[j - 1]))
        num = num + part
    entries = {} if num.is_zero() else {full: LocalizedForm(num, 1)}
    return CousinElement(n, ideal.polys, q, entries)


def sigma_component(xi: ChainMap, k: int, kz: KoszulComplex) -> CousinElement:
    """k-th component of the semiregularity map on a cocycle xi."""
    if not is_cocycle(xi):
        raise ShapeError("sigma needs a cocycle input")
    power = _over_factorial(minus_at_power(kz, k), k)
    return local_trace(compose(xi, power), kz)


def compare_semireg(
    phi: NormalHom, m_bound: int = 4, kz: KoszulComplex | None = None
) -> SemiregReport:
    """Both semiregularity routes plus an equality verdict.

    kz, when given, is the Koszul complex of phi's ideal.
    """
    tau = tau_atiyah(phi, kz=kz)
    mu = bloch_mu(phi)
    k = phi.ideal.q - 1
    if tau == mu:
        return SemiregReport(k, tau, mu, "representative-exact")
    witness = cousin_coboundary_solve(tau - mu, m_bound=m_bound)
    if witness is not None:
        return SemiregReport(k, tau, mu, "coboundary", witness)
    return SemiregReport(k, tau, mu, "fail")

