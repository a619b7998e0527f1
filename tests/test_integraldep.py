"""Integral closure membership and the dimension invariants."""
import random
from fractions import Fraction

import pytest

from atkernel import integraldep
from atkernel.integraldep import (
    MonomialIdeal,
    MonomialIdealError,
    _phase1_lp,
    closure_member,
    curvilinear_dim,
    dim_bound_check,
)
from oracles import newton_membership_oracle, phase1_lp_oracle, separator_oracle


def mono_ideal(n, exps):
    return MonomialIdeal.from_exponents(n, exps)


class TestMonomialIdeal:
    def test_minimal_generators(self):
        ideal = mono_ideal(2, [(2, 0), (2, 1), (0, 3)])
        assert ideal.gens == ((0, 3), (2, 0))

    def test_rejects_zero_and_unit(self):
        with pytest.raises(MonomialIdealError):
            mono_ideal(2, [])
        with pytest.raises(MonomialIdealError):
            mono_ideal(2, [(0, 0)])

    def test_maximal_ideal_multiplication(self):
        ideal = mono_ideal(2, [(2, 0)])
        assert ideal.multiply_by_maximal_ideal().gens == ((2, 1), (3, 0))


class TestClosureMember:
    def test_interior_point(self):
        ideal = mono_ideal(2, [(3, 0), (0, 3)])
        cert = closure_member(ideal, (2, 1))
        assert cert.verdict
        # 3 lambda = 2 on the x-generator
        weights = dict(zip(ideal.gens, cert.lambdas))
        assert weights[(3, 0)] * 3 == 2

    def test_outside_point(self):
        ideal = mono_ideal(2, [(3, 0), (0, 3)])
        cert = closure_member(ideal, (1, 1))
        assert not cert.verdict
        assert cert.verify(ideal)

    def test_generator_is_member(self):
        ideal = mono_ideal(2, [(3, 0), (0, 3)])
        cert = closure_member(ideal, (3, 0))
        assert cert.verdict
        assert sum(cert.lambdas) == 1

    def test_arity_mismatch(self):
        ideal = mono_ideal(2, [(3, 0)])
        with pytest.raises(MonomialIdealError):
            closure_member(ideal, (1, 1, 1))

    @pytest.mark.parametrize(
        "a_eq, b, want",
        [
            ([[3, 1]], [1], ("x", [Fraction(1, 3), 0])),
            ([[2, 1], [1, 3]], [1, 1], ("x", [Fraction(2, 5), Fraction(1, 5)])),
            ([[2, 3], [1, 1]], [1, 1], ("y", [Fraction(-1, 2), 1])),
        ],
    )
    def test_lp_on_int_input_is_exact(self, a_eq, b, want):
        kind, vec = _phase1_lp(a_eq, b)
        assert (kind, vec) == want
        assert all(type(v) is Fraction for v in vec)

    def test_lp_matches_fraction_tableau_oracle(self, monkeypatch):
        """Every closure LP gives the oracle's (kind, vector) and value types."""
        kinds = []
        lp = integraldep._phase1_lp

        def checked(a_eq, b):
            got, want = lp(a_eq, b), phase1_lp_oracle(a_eq, b)
            assert got == want
            assert [type(v) for v in got[1]] == [type(v) for v in want[1]]
            kinds.append(got[0])
            return got

        monkeypatch.setattr(integraldep, "_phase1_lp", checked)
        rng = random.Random(53)
        for _ in range(300):
            n = rng.randint(2, 4)
            gens = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, 5))]
            ideal = mono_ideal(n, [g for g in gens if sum(g) > 0] or [(1,) + (0,) * (n - 1)])
            if rng.random() < 0.5:
                ideal = ideal.multiply_by_maximal_ideal()
            closure_member(ideal, tuple(rng.randint(0, 6) for _ in range(n)))
        # 6-variable ideals of eight generators, as curvdim/dimcheck pose them

        def eight_generators(degree):
            gens = set()
            while len(gens) < 8:
                d = degree()
                support = rng.sample(range(6), 3)
                cuts = sorted(rng.sample(range(1, d), 2))
                expt = [0] * 6
                for v, e in zip(support, (cuts[0], cuts[1] - cuts[0], d - cuts[1])):
                    expt[v] = e
                gens.add(tuple(expt))
            return mono_ideal(6, gens)

        # of degree 6 only, which the curvilinear count answers with no LP
        for _ in range(2):
            dim_bound_check(eight_generators(lambda: 6))
        assert len(kinds) == 300
        # of degrees 5 to 7: one LP per minimal generator
        posed = 0
        for _ in range(2):
            ideal = eight_generators(lambda: rng.randint(5, 7))
            assert len({sum(g) for g in ideal.gens}) > 1
            dim_bound_check(ideal)
            posed += len(ideal.gens)
        assert posed >= 12 and len(kinds) == 300 + posed and set(kinds) == {"x", "y"}

    def test_certificates_always_verify(self):
        rng = random.Random(50)
        for _ in range(60):
            n = rng.randint(2, 4)
            gens = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, 4))]
            gens = [g for g in gens if sum(g) > 0] or [(1,) + (0,) * (n - 1)]
            ideal = mono_ideal(n, gens)
            query = tuple(rng.randint(0, 5) for _ in range(n))
            assert closure_member(ideal, query).verify(ideal)

    def test_matches_brute_force_oracle(self):
        rng = random.Random(51)
        for _ in range(80):
            n = rng.randint(2, 3)
            gens = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, 4))]
            gens = [g for g in gens if sum(g) > 0] or [(1,) + (0,) * (n - 1)]
            ideal = mono_ideal(n, gens)
            query = tuple(rng.randint(0, 5) for _ in range(n))
            assert closure_member(ideal, query).verdict == newton_membership_oracle(
                ideal.gens, query
            )

    def test_contains_ideal_and_idempotent_on_probe_grid(self):
        ideal = mono_ideal(2, [(3, 0), (1, 2)])
        maxc = 5
        members = [
            (i, j)
            for i in range(maxc + 1)
            for j in range(maxc + 1)
            if closure_member(ideal, (i, j)).verdict
        ]
        # every generator is integral over the ideal
        for g in ideal.gens:
            assert g in members
        # saturating by the found members adds nothing new on the grid
        closure_ideal = mono_ideal(2, members)
        for i in range(maxc + 1):
            for j in range(maxc + 1):
                a = closure_member(ideal, (i, j)).verdict
                b = closure_member(closure_ideal, (i, j)).verdict
                assert a == b

    def test_integer_separator_check_matches_the_fraction_check(self):
        """verify scales a NO certificate's separator and threshold by the
        lcm of their denominators and compares ints; on 200 seeded NO
        certificates, each also with its threshold, one coordinate or the
        whole separator moved by a small Fraction, it accepts and rejects
        exactly what the Fraction dot products do."""
        rng = random.Random("separator")
        verdicts = []
        while len(verdicts) < 200 * 4:
            n = rng.randint(2, 4)
            gens = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, 5))]
            ideal = mono_ideal(n, [g for g in gens if sum(g) > 0] or [(1,) + (0,) * (n - 1)])
            query = tuple(rng.randint(0, 4) for _ in range(n))
            cert = closure_member(ideal, query)
            if cert.verdict:
                continue
            c, mu = list(cert.separator), cert.threshold
            nudge = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 7))
            j = rng.randrange(n)
            for c2, mu2 in ((c, mu), (c, mu + nudge),
                            ([v + nudge * (i == j) for i, v in enumerate(c)], mu),
                            ([v * (1 + nudge) for v in c], mu)):
                tried = integraldep.ClosureCertificate(query, False, separator=tuple(c2),
                                                       threshold=mu2)
                verdict = tried.verify(ideal)
                assert verdict == separator_oracle(c2, mu2, query, ideal.gens), (c2, mu2)
                verdicts.append(verdict)
        assert 200 <= sum(verdicts) <= len(verdicts) - 200

    def test_monotone_in_the_ideal(self):
        small = mono_ideal(2, [(3, 0), (0, 3)])
        large = mono_ideal(2, [(3, 0), (0, 3), (1, 1)])
        for i in range(5):
            for j in range(5):
                if closure_member(small, (i, j)).verdict:
                    assert closure_member(large, (i, j)).verdict


class TestCurvilinearDim:
    def test_principal_square(self):
        assert curvilinear_dim(mono_ideal(2, [(2, 0)])) == 1

    def test_full_square_of_maximal(self):
        assert curvilinear_dim(mono_ideal(2, [(2, 0), (1, 1), (0, 2)])) == 3

    def test_principal_variable(self):
        assert curvilinear_dim(mono_ideal(2, [(1, 0)])) == 1

    @pytest.mark.parametrize("one_degree", [False, True])
    def test_small_lp_matches_closure_over_the_product(self, one_degree):
        """The count from one LP over I's own generators, or from none when
        I is generated in one degree, equals the count of generators that
        closure_member finds not integral over the minimal generators of m*I,
        on 600 seeded ideals in at most 5 variables with up to 8 generators,
        and on 300 generated in one degree."""
        rng = random.Random(f"curvdim:{one_degree}")
        integral = 0
        for _ in range(300 if one_degree else 600):
            n = rng.randint(2, 5)
            d = rng.randint(1, 4)
            gens = set()
            for _ in range(rng.randint(1, 8)):
                if one_degree:
                    cuts = sorted(rng.randint(0, d) for _ in range(n - 1))
                    gens.add(tuple(b - a for a, b in zip([0, *cuts], [*cuts, d])))
                else:
                    gens.add(tuple(rng.randint(0, 4) for _ in range(n)))
            ideal = mono_ideal(n, [g for g in gens if sum(g)] or [(1,) + (0,) * (n - 1)])
            product = ideal.multiply_by_maximal_ideal()
            want = sum(not closure_member(product, g).verdict for g in ideal.gens)
            assert curvilinear_dim(ideal) == want, ideal
            integral += want < len(ideal.gens)
        assert integral == (0 if one_degree else 33)

    def test_every_certificate_is_verified_against_the_product(self, monkeypatch):
        """One verification per generator, against the generators g_j + e_i
        of m*I, YES certificates included; a failed one is never counted."""
        verify, seen = integraldep.ClosureCertificate.verify, []

        def recorded(cert, ideal):
            seen.append((cert.query, cert.verdict, ideal.gens))
            return verify(cert, ideal)

        monkeypatch.setattr(integraldep.ClosureCertificate, "verify", recorded)
        # x^2 y^2 is integral over m*I: (2, 2) >= 2/3 (1, 3) + 1/3 (4, 0)
        assert curvilinear_dim(mono_ideal(2, [(3, 0), (0, 3), (2, 2)])) == 2
        product = ((0, 4), (1, 3), (2, 3), (3, 1), (3, 2), (4, 0))
        assert seen == [((0, 3), False, product), ((2, 2), True, product),
                        ((3, 0), False, product)]
        monkeypatch.setattr(integraldep.ClosureCertificate, "verify", lambda cert, ideal: False)
        for gens in ([(2, 0), (1, 1), (0, 2)], [(3, 0), (0, 3), (2, 2)]):
            with pytest.raises(AssertionError, match="^certificate failed exact verification$"):
                curvilinear_dim(mono_ideal(2, gens))


class TestDimBound:
    def test_examples(self):
        r = dim_bound_check(mono_ideal(2, [(2, 0)]))
        assert (r.dim_quotient, r.bound, r.holds) == (1, 1, True)
        r = dim_bound_check(mono_ideal(2, [(2, 0), (1, 1), (0, 2)]))
        assert (r.dim_quotient, r.bound, r.holds) == (0, -1, True)
        r = dim_bound_check(mono_ideal(2, [(1, 1)]))
        assert (r.dim_quotient, r.bound, r.holds) == (1, 1, True)

    def test_quotient_dimension_via_covers(self):
        assert dim_bound_check(mono_ideal(3, [(1, 1, 0), (0, 0, 2)])).dim_quotient == 1
        assert dim_bound_check(mono_ideal(3, [(2, 0, 0)])).dim_quotient == 2

    def test_holds_on_random_corpus(self):
        rng = random.Random(52)
        for _ in range(30):
            n = rng.randint(2, 4)
            gens = []
            for _ in range(rng.randint(1, 4)):
                e = tuple(rng.randint(0, 3) for _ in range(n))
                if sum(e):
                    gens.append(e)
            if not gens:
                gens = [(2,) + (0,) * (n - 1)]
            assert dim_bound_check(mono_ideal(n, gens)).holds


class TestSelftestGroup:
    def test_refused_draw_is_not_a_pass(self, monkeypatch):
        """A constructor that refuses every random draw of the appendix group
        must not leave it reporting a full pass."""
        from atkernel import selftest

        fixed = ([(2, 0)], [(3, 0), (0, 3)], [(3, 0), (0, 3), (1, 1)])

        class Refusing:
            """The group's own constructor calls: the fixed examples pass,
            every random draw is refused."""

            @staticmethod
            def from_exponents(n, exponents):
                if list(exponents) in fixed:
                    return MonomialIdeal.from_exponents(n, exponents)
                raise MonomialIdealError("refused draw")

        monkeypatch.setattr(selftest, "MonomialIdeal", Refusing)
        with pytest.raises(MonomialIdealError, match="refused draw"):
            selftest.check_appendix_invariants()
