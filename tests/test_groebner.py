"""Groebner bases, normal forms and the dimension of a monomial quotient."""
import random
from fractions import Fraction

import pytest

from atkernel.groebner import groebner_basis, monomial_quotient_dimension
from atkernel.polyforms import Poly, parse_poly
from oracles import normal_form_oracle

XYZ = ("x", "y", "z")


def _random_poly(rng, n):
    """Up to four terms of degree 1..3, not homogeneous, some coefficients
    fractional."""
    out = Poly.zero(n)
    for _ in range(rng.randint(1, 4)):
        expt = [0] * n
        for _ in range(rng.randint(1, 3)):
            expt[rng.randrange(n)] += 1
        coeff = Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 1, 2)))
        out = out + Poly.monomial(n, expt, coeff)
    return out


def _s_polynomial(f, g):
    """S(f, g) from Poly.leading_term and public Poly arithmetic."""
    (ef, cf), (eg, cg) = f.leading_term(), g.leading_term()
    lcm = tuple(map(max, ef, eg))
    left = Poly.monomial(f.n, [a - b for a, b in zip(lcm, ef)], Fraction(1) / cf) * f
    right = Poly.monomial(g.n, [a - b for a, b in zip(lcm, eg)], Fraction(1) / cg) * g
    return left - right


def _divisible(e, lead):
    return all(a >= b for a, b in zip(e, lead))


def _seeded_ideals():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(2, 4)
        polys = [_random_poly(rng, n) for _ in range(rng.randint(1, 3))]
        yield [f for f in polys if not f.is_zero()] or [Poly.variable(n, 0)]


class TestGroebnerBasis:
    def test_soundness_on_seeded_ideals(self):
        for polys in _seeded_ideals():
            basis = groebner_basis(polys)
            leads = [g.leading_term()[0] for g in basis]
            # the input generators lie in the ideal of the basis
            for f in polys:
                assert normal_form_oracle(f, basis).is_zero(), polys
            # Buchberger's criterion: every S-pair reduces to zero
            for i, f in enumerate(basis):
                for g in basis[:i]:
                    assert normal_form_oracle(_s_polynomial(f, g), basis).is_zero(), polys
            # each added element is a full normal form modulo those before it
            for i in range(len(polys), len(basis)):
                assert not any(_divisible(e, lead) for e in basis[i].terms for lead in leads[:i])
            # each basis element is an integer polynomial with a positive
            # leading coefficient in the order of Poly.leading_term
            for g, lead in zip(basis, leads):
                assert all(type(c) is int for c in g.terms.values())
                assert g.terms[lead] > 0

    def test_remainders_are_canonical(self):
        rng = random.Random(12)
        for polys in _seeded_ideals():
            n = polys[0].n
            basis = groebner_basis(polys)
            leads = [g.leading_term()[0] for g in basis]
            probe = _random_poly(rng, n) * _random_poly(rng, n)
            rem = normal_form_oracle(probe, basis)
            assert not any(_divisible(e, lead) for e in rem.terms for lead in leads)
            # adding an ideal element leaves the normal form as it is
            for g in basis:
                assert normal_form_oracle(probe + _random_poly(rng, n) * g, basis) == rem

    def test_affine_twisted_cubic(self):
        # (x^2 - y, x*y - z) cuts out (t, t^2, t^3); in grlex Buchberger adds
        # x*z - y^2 and then y^3 - z^2
        polys = [parse_poly(t, XYZ) for t in ("x^2 - y", "x*y - z")]
        basis = groebner_basis(polys)
        assert basis == polys + [parse_poly(t, XYZ) for t in ("x*z - y^2", "y^3 - z^2")]
        assert normal_form_oracle(parse_poly("x^3 - z", XYZ), basis).is_zero()
        assert not normal_form_oracle(parse_poly("x - z", XYZ), basis).is_zero()

    def test_fraction_coefficients_are_cleared(self):
        basis = groebner_basis([parse_poly("1/2*x - 2/3*y", XYZ)])
        assert basis == [parse_poly("3*x - 4*y", XYZ)]


class TestMonomialQuotientDimension:
    @pytest.mark.parametrize(
        "n, gens, dim",
        [(3, [(1, 1, 0), (0, 0, 2)], 1), (3, [(2, 0, 0)], 2), (2, [], 2),
         (4, [(1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 0, 1), (0, 1, 1, 0)], 2)],
    )
    def test_vertex_cover(self, n, gens, dim):
        assert monomial_quotient_dimension(n, gens) == dim
