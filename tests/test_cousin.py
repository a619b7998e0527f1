"""Cousin complex, localized fractions, and the local trace."""
import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from atkernel import coboundary, groebner
from atkernel.atiyah import DerivationSpec, atiyah_cocycle, atiyah_power, contract_derivation
from atkernel.chaincore import ChainMap, ShapeError, compose, hom_bracket, identity_map
from atkernel.corpus import corpus_entries, normal_homs_for, random_chain_map
from atkernel.cousin import (
    CousinElement,
    LocalizedForm,
    cousin_coboundary_solve,
    cousin_differential,
    cousin_to_text,
    local_trace,
    _lf_add,
    _lf_canonical,
)
from atkernel.koszul import RegularSequenceIdeal, build_koszul, index_sets
from atkernel.polyforms import Form, Poly, parse_form, parse_poly
from atkernel.selftest import commutator_class_targets, dual_basis_map, omega_class
from atkernel.semireg import chern_character, compare_semireg
from oracles import (
    contract_cousin,
    contract_form_oracle,
    cousin_search_oracle,
    fraction_form,
    fraction_map,
    fraction_poly,
    local_trace_oracle,
    square_ladder,
)

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

    def test_each_image_entry_is_reduced_once(self, monkeypatch):
        # the three pairs of x ; y ; z all land on (1, 2, 3), whose sum the
        # constructor, and not each pairwise add, puts in lowest terms
        from atkernel import cousin

        ideal = ideal_of(["x", "y", "z"], XYZ)
        one = LocalizedForm(Form.from_poly(Poly.one(3)), 1)
        c = CousinElement(3, ideal.polys, 2, {alpha: one for alpha in index_sets(3, 2)})
        real, calls = cousin._lf_canonical, []
        monkeypatch.setattr(cousin, "_lf_canonical",
                            lambda lf, f_alpha: calls.append(lf) or real(lf, f_alpha))
        out = cousin_differential(c)
        assert len(calls) == 1
        num = Form.from_poly(parse_poly("-x + y - z", XYZ))
        assert out == CousinElement(3, ideal.polys, 3, {(1, 2, 3): LocalizedForm(num, 1)})

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
        # the unit map gf_alpha -> e traces to psi(alpha) / f_alpha at
        # delta f_alpha, where psi(alpha) = (-1)^{binom(|alpha|,2)} is the
        # canonical section's sign
        ideal = ideal_of(["x", "y", "z"], XYZ)
        kz = build_koszul(ideal)
        one = Form.from_poly(Poly.one(3))
        expected = {(): 1, (1,): 1, (2,): 1, (3,): 1, (1, 2): -1, (1, 2, 3): -1}
        for alpha, sign in expected.items():
            deg, col = kz.basis_position(alpha)
            unit = ChainMap(kz.complex, kz.complex, len(alpha), 0, {deg: {0: {col: one}}})
            traced = local_trace(unit, kz)
            assert set(traced.entries) == {alpha}
            assert traced.entries[alpha] == LocalizedForm(one.scale(sign), 1 if alpha else 0)


CORPUS_IDEALS = [entry.ideal for entry in corpus_entries()]
ORACLE_IDEALS = CORPUS_IDEALS + [square_ladder(q) for q in range(1, 7)]


class TestFusedPassesMatchOracles:
    @pytest.mark.parametrize("ideal", ORACLE_IDEALS, ids=lambda ideal: f"q{ideal.q}n{ideal.n}")
    def test_trace_and_contraction_match_per_entry_oracles(self, ideal):
        rng = random.Random(f"35:{ideal.polys}")
        kz = build_koszul(ideal)
        q, n = kz.q, kz.n
        at = atiyah_cocycle(kz.complex)
        maps = [identity_map(kz.complex).scale(Fraction(-3, 4))]
        maps += [atiyah_power(at, k).chain_map for k in range(1, q + 1)]
        maps += [fraction_map(rng, kz, d, k)
                 for d in range(-1, q + 2) for k in range(min(n, 2) + 1)]
        unread = 0
        for u in maps:
            assert local_trace(u, kz) == local_trace_oracle(u, kz)
            if 0 <= u.degree <= q:
                for i, t, s, _ in u.nonzeros():
                    alpha, beta = index_sets(q, -i)[s], index_sets(q, -i - u.degree)[t]
                    unread += not set(beta) <= set(alpha)
        # with one generator every beta lies in every alpha
        assert unread > 0 or q == 1

        # the unit derivations, the zero one, which contracts every matrix to
        # nothing stored, and one with Fraction values
        values = [tuple(Poly.const(n, int(i == j)) for j in range(n)) for i in range(n)]
        values += [(Poly.zero(n),) * n, tuple(fraction_poly(rng, ideal) for _ in range(n))]
        for delta in map(DerivationSpec, values):
            for k in range(1, q + 1):
                at_k = atiyah_power(at, k).chain_map
                c = contract_derivation(delta, at_k)
                assert (c.degree, c.form_degree) == (at_k.degree, at_k.form_degree - 1)
                expected = {}
                for i, t, s, entry in at_k.nonzeros():
                    x = contract_form_oracle(delta.values, entry)
                    if not x.is_zero():
                        expected[i, t, s] = x
                assert {(i, t, s): x for i, t, s, x in c.nonzeros()} == expected
                assert all(mat and all(mat.values()) for mat in c.mats.values())


class TestScale:
    def test_scale_matches_the_checked_constructor(self):
        rng = random.Random(37)
        nonzero = 0
        for ideal in CORPUS_IDEALS:
            n, q = ideal.n, ideal.q
            for degree in range(q + 1):
                for k in range(min(n, 2) + 1):
                    alphas = index_sets(q, degree)
                    c = CousinElement(n, ideal.polys, degree, {
                        alpha: LocalizedForm(fraction_form(rng, ideal, k), rng.randint(0, 2))
                        for alpha in rng.sample(alphas, rng.randint(1, len(alphas)))
                    })
                    nonzero += not c.is_zero()
                    for r in (3, -1, Fraction(-2, 7)):
                        assert c.scale(r) == CousinElement(n, ideal.polys, degree, {
                            alpha: LocalizedForm(lf.num.scale(r), lf.m)
                            for alpha, lf in c.entries.items()
                        })
                    for zero in (0, Fraction(0)):
                        assert c.scale(zero).is_zero() and c.scale(zero).degree == degree
        assert nonzero > 30


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
        tu, tv = local_trace(u, kz).scale(c), local_trace(v, kz)
        zero = LocalizedForm(Form.zero(2, u.form_degree), 0)
        for alpha in set(lhs.entries) | set(tu.entries) | set(tv.entries):
            f_alpha = lhs.f_alpha(alpha)
            rhs = _lf_canonical(_lf_add(tu.entries.get(alpha, zero), tv.entries.get(alpha, zero),
                                        f_alpha), f_alpha)
            assert lhs.entries.get(alpha, zero) == rhs

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

    @staticmethod
    def numerator_reductions(monkeypatch, member_ok=True):
        """Wrap groebner.Basis.contains: every call that reduces
        polynomials is recorded, or, unless member_ok, refused."""
        real, reduced = groebner.Basis.contains, []

        def wrapped(basis, polys):
            polys = list(polys)
            if polys:
                if not member_ok:
                    raise AssertionError("the numerator was reduced")
                reduced.append(polys)
            return real(basis, polys)

        monkeypatch.setattr(groebner.Basis, "contains", wrapped)
        return reduced

    def test_member_is_answered_without_reducing_its_numerator(self, monkeypatch):
        self.numerator_reductions(monkeypatch, member_ok=False)
        cone = ideal_of(CONE, XYZ)
        f1, f2 = cone.polys
        num = parse_poly("z + x*y*z", XYZ) * f1 ** 3 + parse_poly("x", XYZ) * f2 ** 3
        target = CousinElement(3, cone.polys, 2, {(1, 2): LocalizedForm(Form.from_poly(num), 3)})
        witness = cousin_coboundary_solve(target)
        assert witness is not None and cousin_differential(witness) == target

    def test_non_members_are_reduced_and_answer_none(self, monkeypatch):
        # the top Chern characters: each inconsistent bounded system is
        # followed by one reduction of the numerator, which is nonzero
        reduced = self.numerator_reductions(monkeypatch)
        targets = [chern_character(entry.ideal, entry.ideal.q) for entry in corpus_entries()]
        assert all(cousin_coboundary_solve(target) is None for target in targets)
        assert len(reduced) == len(targets)

    def test_each_decision_builds_one_basis(self, monkeypatch):
        # members and non-members alike: a non-member's numerator is
        # reduced by the basis that bounded its system, not by a second one
        real, builds = groebner._basis, []
        monkeypatch.setattr(groebner, "_basis",
                            lambda polys, budget: builds.append(budget[1]) or real(polys, budget))
        cone = ideal_of(CONE, XYZ)
        f1, f2 = cone.polys
        num = parse_poly("z + x*y*z", XYZ) * f1 ** 3 + parse_poly("x", XYZ) * f2 ** 3
        member = CousinElement(3, cone.polys, 2, {(1, 2): LocalizedForm(Form.from_poly(num), 3)})
        targets = [member] + [chern_character(entry.ideal, entry.ideal.q)
                              for entry in corpus_entries()]
        for target in targets:
            builds.clear()
            witness = cousin_coboundary_solve(target)
            assert (witness is None) == (target is not member)
            assert builds == ["Cousin decision"]

    def test_member_without_bounded_cofactors_is_an_assertion(self, monkeypatch):
        monkeypatch.setattr(coboundary, "_solve_products", lambda *args: None)
        ideal = ideal_of(["x", "y"], XY)
        y = Form.from_poly(parse_poly("y", XY))
        b = CousinElement(2, ideal.polys, 1, {(1,): LocalizedForm(y, 1)})
        with pytest.raises(AssertionError, match="no cofactors within the Groebner degree bound"):
            cousin_coboundary_solve(cousin_differential(b))

    def test_work_bound_names_the_cousin_decision(self, monkeypatch):
        monkeypatch.setattr(groebner, "MAX_TERM_OPS", 0)
        cone = ideal_of(CONE, XYZ)
        target = CousinElement(
            3, cone.polys, 2, {(1, 2): LocalizedForm(Form.from_poly(Poly.one(3)), 1)}
        )
        with pytest.raises(ValueError, match="Cousin decision exceeded its work bound"):
            cousin_coboundary_solve(target)


class TestPinnedOutputs:
    # sha256 of the text below; the same lines were first pinned with full
    # grlex division in place of Poly.exact_quotient, and lowest terms are
    # unique, so both agree
    PINNED = "fa41cda2c14021fbf4fb9e32a7f56b70e185df7eee3e0af8d8b261ec5171932e"

    def test_corpus_witnesses_and_traces_are_unchanged(self):
        """The Cousin witnesses of the selftest commutator classes, the
        Chern characters of every corpus complex and every corpus
        comparison (verdict and both routes), as text."""
        lines = []
        for target in commutator_class_targets("commclass"):
            witness = None if target.is_zero() else cousin_coboundary_solve(target)
            lines.append(cousin_to_text(target))
            lines.append("none" if witness is None else cousin_to_text(witness))
        for entry in corpus_entries():
            for k in range(entry.ideal.q + 1):
                lines.append(cousin_to_text(chern_character(entry.ideal, k), entry.var_names))
            for phi in normal_homs_for(entry):
                rep = compare_semireg(phi)
                lines.append(rep.verdict)
                for c in (rep.atiyah_route, rep.mu_route):
                    lines.append(cousin_to_text(c, entry.var_names))
        assert len(lines) == 190
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.PINNED


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
        lhs = _lf_canonical(_lf_add(a, c, f), f)
        rhs = LocalizedForm(Form.from_poly(Poly.const(1, c1 + c2) * f ** m1), m1)
        assert lhs == _lf_canonical(rhs, f)
