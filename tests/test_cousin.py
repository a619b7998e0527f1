"""Cousin complex, localized fractions, and the local trace."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from atkernel import groebner
from atkernel.chaincore import ShapeError, compose, hom_bracket, identity_map
from atkernel.corpus import corpus_entries, random_chain_map
from atkernel.cousin import (
    CousinElement,
    LocalizedForm,
    cousin_coboundary_solve,
    cousin_differential,
    cousin_to_text,
    local_trace,
    omega_class,
    psi_section,
)
from atkernel.koszul import RegularSequenceIdeal, build_koszul, dual_basis_map
from atkernel.polyforms import Form, Poly, parse_form, parse_poly
from atkernel.selftest import commutator_class_targets
from atkernel.semireg import chern_character
from oracles import contract_cousin, cousin_search_oracle

X = ("x",)
XY = ("x", "y")
XYZ = ("x", "y", "z")
CONE = ["x^2 - y*z", "y^2 - x*z"]


def ideal_of(texts, names, weights=None):
    weights = weights or (1,) * len(names)
    return RegularSequenceIdeal(
        len(names), tuple(parse_poly(t, names) for t in texts), weights
    )


class TestLocalizedForms:
    def test_cross_multiplied_equality(self):
        ideal = ideal_of(["2*x"], X)
        omega = omega_class(ideal)
        # 2 * (delta f)/(2x) equals (delta f)/x by cross multiplication
        doubled = omega.scale(2)
        expected = CousinElement(
            1,
            ideal.polys,
            1,
            {(1,): LocalizedForm(Form.from_poly(Poly.const(1, 2)), 1)},
        )
        assert doubled == expected

    def test_canonicalization_divides_out(self):
        ideal = ideal_of(["x^2"], X)
        lf = LocalizedForm(Form.from_poly(parse_poly("x^3", X)), 2)
        ce = CousinElement(1, ideal.polys, 1, {(1,): lf})
        stored = ce.entries[(1,)]
        assert stored.m == 1 and stored.num == Form.from_poly(parse_poly("x", X))

    def test_addition_over_common_denominator(self):
        ideal = ideal_of(["x"], X)
        a = CousinElement(
            1, ideal.polys, 1, {(1,): LocalizedForm(Form.from_poly(Poly.one(1)), 1)}
        )
        b = CousinElement(
            1, ideal.polys, 1, {(1,): LocalizedForm(Form.from_poly(Poly.one(1)), 2)}
        )
        total = a + b
        lf = total.entries[(1,)]
        assert lf.m == 2 and lf.num == Form.from_poly(parse_poly("x + 1", X))


class TestCousinDifferential:
    def test_single_step_q2(self):
        ideal = ideal_of(["x", "y"], XY)
        a = CousinElement(
            2, ideal.polys, 1, {(1,): LocalizedForm(Form.from_poly(Poly.one(2)), 1)}
        )
        out = cousin_differential(a)
        # -delta f2 ^ delta f1 = +delta f1 ^ delta f2 after sorting, with
        # the coefficient re-expressed over f1 f2
        expected = CousinElement(
            2,
            ideal.polys,
            2,
            {(1, 2): LocalizedForm(Form.from_poly(parse_poly("y", XY)), 1)},
        )
        assert out == expected

    def test_degree_zero_rule(self):
        ideal = ideal_of(["x", "y"], XY)
        c = CousinElement(
            2, ideal.polys, 0, {(): LocalizedForm(Form.from_poly(Poly.const(2, 3)), 0)}
        )
        out = cousin_differential(c)
        for i in (1, 2):
            assert out.entries[(i,)].num == Form.from_poly(Poly.const(2, -3))

    def test_squares_to_zero(self):
        rng = random.Random(30)
        ideal = ideal_of(["x", "y", "z"], ("x", "y", "z"))
        from atkernel.koszul import index_sets

        for _ in range(25):
            degree = rng.randint(0, 1)
            entries = {}
            for alpha in index_sets(3, degree):
                coeff = Poly.monomial(
                    3, tuple(rng.randint(0, 2) for _ in range(3)), rng.randint(-3, 3)
                )
                if not coeff.is_zero():
                    entries[alpha] = LocalizedForm(
                        Form.from_poly(coeff), rng.randint(0, 2) if alpha else 0
                    )
            c = CousinElement(3, ideal.polys, degree, entries)
            assert cousin_differential(cousin_differential(c)).is_zero()


class TestOmegaPsi:
    def test_omega_principal(self):
        ideal = ideal_of(["x^2"], X)
        om = omega_class(ideal)
        assert om.entries[(1,)] == LocalizedForm(Form.from_poly(Poly.one(1)), 1)

    def test_omega_pair(self):
        ideal = ideal_of(["x", "y"], XY)
        om = omega_class(ideal)
        assert set(om.entries) == {(1, 2)}

    def test_psi_signs(self):
        ideal = ideal_of(["x", "y", "z"], ("x", "y", "z"))
        table = psi_section(ideal)
        assert table[()] == 1
        assert all(table[(i,)] == 1 for i in (1, 2, 3))
        assert table[(1, 2)] == -1
        assert table[(1, 2, 3)] == -1


class TestLocalTrace:
    def test_top_dual_map_traces_to_omega(self):
        for texts, names in ((["x^2"], X), (["x", "y"], XY), (["x", "y", "z"], ("x", "y", "z"))):
            ideal = ideal_of(texts, names)
            kz = build_koszul(ideal)
            top = tuple(range(1, kz.q + 1))
            assert local_trace(dual_basis_map(kz, top), kz) == omega_class(ideal)

    def test_identity_has_zero_euler_characteristic(self):
        for texts, names in ((["x^2"], X), (["x", "y"], XY)):
            kz = build_koszul(ideal_of(texts, names))
            assert local_trace(identity_map(kz.complex), kz).is_zero()

    def test_non_koszul_source_refused(self):
        kz = build_koszul(ideal_of(["x", "y"], XY))
        other = build_koszul(ideal_of(["x^2"], X))
        rng = random.Random(31)
        u = random_chain_map(rng, other, 1, 0)
        with pytest.raises(ShapeError):
            local_trace(u, kz)

    def test_linear_over_rationals(self):
        rng = random.Random(32)
        kz = build_koszul(ideal_of(["x", "y"], XY))
        u = random_chain_map(rng, kz, 1, 1)
        v = random_chain_map(rng, kz, 1, 1)
        c = Fraction(3, 7)
        lhs = local_trace(u.scale(c) + v, kz)
        rhs = local_trace(u, kz).scale(c) + local_trace(v, kz)
        assert lhs == rhs

    def test_intertwines_brackets_with_cousin_differential(self):
        rng = random.Random(33)
        for entry in corpus_entries():
            kz = build_koszul(entry.ideal)
            for _ in range(6):
                d = rng.randint(0, kz.q - 1) if kz.q > 1 else 0
                u = random_chain_map(rng, kz, d, rng.randint(0, 1))
                assert local_trace(hom_bracket(u), kz) == cousin_differential(
                    local_trace(u, kz)
                )

    def test_commutators_of_opposite_degrees_vanish(self):
        rng = random.Random(34)
        for entry in corpus_entries():
            kz = build_koszul(entry.ideal)
            for _ in range(12):
                d = rng.randint(-kz.q, kz.q)
                ku = rng.randint(0, 1)
                kv = rng.randint(0, 1)
                u = random_chain_map(rng, kz, d, ku)
                v = random_chain_map(rng, kz, -d, kv)
                sign = (-1) ** ((d * (-d) + ku * kv) % 2)
                c = compose(u, v) - compose(v, u).scale(sign)
                assert local_trace(c, kz).is_zero()


class TestCoboundarySolve:
    def test_finds_planted_witness(self):
        ideal = ideal_of(["x", "y"], XY)
        b = CousinElement(
            2,
            ideal.polys,
            1,
            {(1,): LocalizedForm(Form.from_poly(parse_poly("y", XY)), 1)},
        )
        target = cousin_differential(b)
        witness = cousin_coboundary_solve(target)
        assert witness is not None
        assert cousin_differential(witness) == target

    def test_reports_failure_for_omega(self):
        # omega and 1/(f1 f2)^5 generate nonzero local cohomology, and None
        # is a proof: 1 lies in no (f1^m, f2^m)
        assert cousin_coboundary_solve(omega_class(ideal_of(["x", "y"], XY))) is None
        cone = ideal_of(CONE, XYZ)
        one = Form.from_poly(Poly.one(3))
        target = CousinElement(3, cone.polys, 2, {(1, 2): LocalizedForm(one, 5)})
        assert cousin_coboundary_solve(target) is None

    def test_planted_beyond_old_denominator_bound(self):
        # m = 5 exceeds the search's m_bound = 4
        cone = ideal_of(CONE, XYZ)
        f1, f2 = cone.polys
        cofactor = parse_poly("z + x*y*z", XYZ)
        num = cofactor * f1 ** 5 + parse_poly("x", XYZ) * f2 ** 5
        target = CousinElement(3, cone.polys, 2, {(1, 2): LocalizedForm(Form.from_poly(num), 5)})
        assert target.entries[(1, 2)].m == 5
        assert cousin_search_oracle(target) is None
        witness = cousin_coboundary_solve(target)
        assert witness is not None and cousin_differential(witness) == target

    def test_planted_beyond_old_degree_bound(self):
        # y^2 = y*(x^4 + y) - x^3*(x*y): the cofactor x^3 has degree 3, and
        # the search's degree bound is 2
        ideal = RegularSequenceIdeal(2, (parse_poly("x^4 + y", XY), parse_poly("x*y", XY)), None)
        num = Form.from_poly(parse_poly("y^2", XY))
        target = CousinElement(2, ideal.polys, 2, {(1, 2): LocalizedForm(num, 1)})
        assert cousin_search_oracle(target) is None
        witness = cousin_coboundary_solve(target)
        assert witness is not None and cousin_differential(witness) == target

    def test_agrees_with_search_oracle(self):
        # the commutator-class targets of selftest and of the acceptance
        # seeds, 50 each: every one is a coboundary, and both witnesses hold
        for seed in ("commclass", "acc4"):
            targets = list(commutator_class_targets(seed))
            assert len(targets) == 50
            for target in targets:
                exact, searched = cousin_coboundary_solve(target), cousin_search_oracle(target)
                assert (exact is None) == (searched is None), (seed, target)
                for witness in (exact, searched):
                    assert witness is None or cousin_differential(witness) == target
        # the top Chern character is the fundamental class, never zero
        for entry in corpus_entries():
            assert cousin_coboundary_solve(chern_character(entry.ideal, entry.ideal.q)) is None

    def test_work_bound_names_the_cousin_decision(self, monkeypatch):
        monkeypatch.setattr(groebner, "MAX_TERM_OPS", 0)
        cone = ideal_of(CONE, XYZ)
        target = CousinElement(
            3, cone.polys, 2, {(1, 2): LocalizedForm(Form.from_poly(Poly.one(3)), 1)}
        )
        with pytest.raises(ValueError, match="Cousin decision exceeded its work bound"):
            cousin_coboundary_solve(target)


class TestPrinting:
    def test_text_format(self):
        ideal = ideal_of(["x", "y"], XY)
        om = omega_class(ideal)
        assert cousin_to_text(om, XY) == "(1) / (x*y)^1 * delta[f1^f2]"

    def test_contract_cousin(self):
        ideal = ideal_of(["x", "y"], XY)
        ce = CousinElement(
            2,
            ideal.polys,
            2,
            {(1, 2): LocalizedForm(parse_form("dx^dy", XY), 1)},
        )
        out = contract_cousin([Poly.one(2), Poly.zero(2)], ce)
        assert out.entries[(1, 2)].num == parse_form("dy", XY)


class TestLocalizedFormProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2),
        st.integers(0, 2),
        st.integers(-5, 5),
        st.integers(-5, 5),
    )
    def test_equality_is_an_equivalence_compatible_with_addition(self, m1, m2, c1, c2):
        from atkernel.cousin import _lf_add, _lf_canonical

        f = parse_poly("x", X)
        # c . f^k / f^{m+k} all represent the same fraction, whose lowest
        # terms are the one representative c / f^0
        a = LocalizedForm(Form.from_poly(Poly.const(1, c1) * f ** m1), m1)
        b = LocalizedForm(Form.from_poly(Poly.const(1, c1) * f ** m2), m2)
        c = LocalizedForm(Form.from_poly(Poly.const(1, c2) * f ** m1), m1)
        lowest = LocalizedForm(Form.from_poly(Poly.const(1, c1)), 0)
        assert _lf_canonical(a, f) == _lf_canonical(b, f) == lowest
        lhs = _lf_add(a, c, f)
        rhs = LocalizedForm(Form.from_poly(Poly.const(1, c1 + c2) * f ** m1), m1)
        assert lhs == _lf_canonical(rhs, f)
