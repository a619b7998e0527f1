"""Koszul complexes, dual bases, and the regularity guard."""
import random

import pytest

from atkernel import groebner
from atkernel.chaincore import GradingError, hom_bracket, monomials_of_weighted_degree
from atkernel.koszul import (
    RegularSequenceIdeal,
    build_koszul,
    dual_basis_map,
    dual_left_multiplication,
    index_sets,
    verify_regular,
)
from atkernel.polyforms import Poly, parse_poly
from oracles import koszul_differential_oracle, regularity_scan_oracle

X = ("x",)
XY = ("x", "y")
XYZ = ("x", "y", "z")
XYZW = ("x", "y", "z", "w")


class TestBuild:
    def test_principal(self):
        kz = build_koszul(RegularSequenceIdeal(1, (parse_poly("x^2", X),), (1,)))
        assert [kz.complex.rank(i) for i in (-1, 0)] == [1, 1]
        assert kz.complex.d_matrix(-1)[0][0] == parse_poly("x^2", X)

    def test_two_variables(self):
        kz = build_koszul(
            RegularSequenceIdeal(2, (parse_poly("x", XY), parse_poly("y", XY)), (1, 1))
        )
        assert [kz.complex.rank(-p) for p in (0, 1, 2)] == [1, 2, 1]
        d1 = kz.complex.d_matrix(-1)
        assert d1[0][0] == parse_poly("x", XY) and d1[0][1] == parse_poly("y", XY)
        d2 = kz.complex.d_matrix(-2)
        # d(gx ^ gy) = x gy - y gx
        assert d2[0][0] == parse_poly("-y", XY)
        assert d2[1][0] == parse_poly("x", XY)

    def test_three_variables_ranks(self):
        kz = build_koszul(
            RegularSequenceIdeal(
                3, tuple(parse_poly(v, XYZ) for v in XYZ), (1, 1, 1)
            )
        )
        assert [kz.complex.rank(-p) for p in range(4)] == [1, 3, 3, 1]

    def test_matches_leibniz_oracle(self):
        rng = random.Random(20)
        for q in (2, 3, 4):
            polys = tuple(
                Poly.monomial(4, tuple(rng.randint(0, 2) for _ in range(4)), rng.randint(1, 3))
                + Poly.variable(4, i)
                for i in range(q)
            )
            ideal = RegularSequenceIdeal(4, polys, None)
            kz = build_koszul(ideal)
            for p in range(1, q + 1):
                sources = index_sets(q, p)
                targets = index_sets(q, p - 1)
                mat = kz.complex.d_matrix(-p)
                for s, alpha in enumerate(sources):
                    expected = koszul_differential_oracle(list(polys), alpha)
                    for t, beta in enumerate(targets):
                        assert mat[t][s] == expected.get(beta, Poly.zero(4))

    def test_rejects_bad_sequences(self):
        with pytest.raises(ValueError):
            RegularSequenceIdeal(1, (), (1,))
        with pytest.raises(ValueError):
            RegularSequenceIdeal(1, (Poly.zero(1),), (1,))
        with pytest.raises(ValueError):
            RegularSequenceIdeal(1, (parse_poly("x + 1", X),), (1,))
        with pytest.raises(GradingError):
            RegularSequenceIdeal(2, (parse_poly("x + y^2", XY),), (1, 1))


class TestDualBasis:
    def test_principal_pairing(self):
        kz = build_koszul(RegularSequenceIdeal(1, (parse_poly("x^2", X),), (1,)))
        d = dual_basis_map(kz, (1,))
        assert d.matrix(-1)[0][0].to_poly() == Poly.one(1)

    def test_top_pairing_sign_q2(self):
        kz = build_koszul(
            RegularSequenceIdeal(2, (parse_poly("x", XY), parse_poly("y", XY)), (1, 1))
        )
        d = dual_basis_map(kz, (1, 2))
        assert d.matrix(-2)[0][0].to_poly() == Poly.const(2, -1)

    def test_off_component_vanishes(self):
        kz = build_koszul(
            RegularSequenceIdeal(2, (parse_poly("x", XY), parse_poly("y", XY)), (1, 1))
        )
        d = dual_basis_map(kz, (1,))
        assert d.matrix(-1)[0][1].is_zero()  # gf2 coordinate

    def test_bracket_is_left_multiplication(self):
        for texts, names, weights in (
            (["x^2"], X, (1,)),
            (["x", "y"], XY, (1, 1)),
            (["x", "y", "z"], XYZ, (1, 1, 1)),
        ):
            ideal = RegularSequenceIdeal(
                len(names), tuple(parse_poly(t, names) for t in texts), weights
            )
            kz = build_koszul(ideal)
            for p in range(kz.q):
                for alpha in index_sets(kz.q, p):
                    assert hom_bracket(dual_basis_map(kz, alpha)) == dual_left_multiplication(
                        kz, alpha
                    )

    def test_index_out_of_range(self):
        kz = build_koszul(RegularSequenceIdeal(1, (parse_poly("x^2", X),), (1,)))
        with pytest.raises(ValueError):
            dual_basis_map(kz, (2,))


class TestVerifyRegular:
    def test_variables_are_regular(self):
        ideal = RegularSequenceIdeal(
            2, (parse_poly("x", XY), parse_poly("y", XY)), (1, 1)
        )
        assert verify_regular(ideal)

    def test_repeated_generator_detected(self):
        ideal = RegularSequenceIdeal(
            2, (parse_poly("x", XY), parse_poly("x", XY)), (1, 1)
        )
        assert not verify_regular(ideal)

    def test_quadric_pair_is_regular(self):
        ideal = RegularSequenceIdeal(
            3,
            (parse_poly("x^2 - y*z", XYZ), parse_poly("y^2 - x*z", XYZ)),
            (1, 1, 1),
        )
        assert verify_regular(ideal)
        cone_w3 = RegularSequenceIdeal(
            4,
            tuple(parse_poly(t, XYZW) for t in ("x^2 - y*z", "y^2 - x*z", "w^3")),
            (1, 1, 1, 1),
        )
        assert verify_regular(cone_w3)

    def test_shared_linear_factor_refused(self):
        # x*y ; x*z is not regular, with no degree bound to set; the scan
        # finds the syzygy z*gf1 - y*gf2 in degree 3 and misses it at bound 2
        ideal = RegularSequenceIdeal(
            3, (parse_poly("x*y", XYZ), parse_poly("x*z", XYZ)), (1, 1, 1)
        )
        assert not verify_regular(ideal)
        assert not regularity_scan_oracle(ideal, 3)
        assert regularity_scan_oracle(ideal, 2)

    @pytest.mark.parametrize("bound", [1, 0, -3])
    def test_bound_below_lowest_degree_refused(self, bound):
        # x*y ; x*z is not regular; its lowest degree in K^{-1} is 2.  The
        # exact test takes no bound, and the scan refuses one that would
        # leave no degree to check
        ideal = RegularSequenceIdeal(
            3, (parse_poly("x*y", XYZ), parse_poly("x*z", XYZ)), (1, 1, 1)
        )
        assert not verify_regular(ideal)
        with pytest.raises(ValueError, match="below the lowest degree 2"):
            regularity_scan_oracle(ideal, bound)
        # degree 3 holds the syzygy z*gf1 - y*gf2
        assert not regularity_scan_oracle(ideal, 3)

    @pytest.mark.parametrize(
        "texts", [["x + y^2"], ["x + y^2", "z"], ["x*y + x^3", "z"], ["x + 1/2*y^2", "y*z + z^3"]]
    )
    def test_ungraded_regular_passes(self, texts):
        ideal = RegularSequenceIdeal(3, tuple(parse_poly(t, XYZ) for t in texts), None)
        assert verify_regular(ideal)

    @pytest.mark.parametrize(
        "texts", [["x*y + x^3", "x*z"], ["x + y^2", "x*z + y^2*z"], ["x + y^2", "x^2 - y^4"]]
    )
    def test_ungraded_non_regular_refused(self, texts):
        # each pair shares a factor: x, then x + y^2 twice
        ideal = RegularSequenceIdeal(3, tuple(parse_poly(t, XYZ) for t in texts), None)
        assert not verify_regular(ideal)

    def test_work_bound(self, monkeypatch):
        ideal = RegularSequenceIdeal(
            3, (parse_poly("x*y", XYZ), parse_poly("x*z", XYZ)), (1, 1, 1)
        )
        monkeypatch.setattr(groebner, "MAX_TERM_OPS", 0)
        with pytest.raises(ValueError, match="regularity guard exceeded its work bound"):
            verify_regular(ideal)
        # coprime leading terms leave no S-pair to reduce
        assert verify_regular(
            RegularSequenceIdeal(2, (parse_poly("x", XY), parse_poly("y", XY)), (1, 1))
        )

    def test_work_bound_stops_dense_quadrics(self):
        # three dense quadrics in six variables run past the real bound
        # after about a second
        rng = random.Random(6)
        monos = monomials_of_weighted_degree(6, (1,) * 6, 2)
        polys = tuple(
            sum((Poly.monomial(6, e, rng.randint(-3, 3)) for e in monos), Poly.zero(6))
            for _ in range(3)
        )
        with pytest.raises(ValueError, match="regularity guard exceeded its work bound"):
            verify_regular(RegularSequenceIdeal(6, polys, (1,) * 6))

    def test_agrees_with_scan_oracle(self):
        # 300 graded sequences in 2-4 variables, about 30 % with a shared
        # linear factor; the scan runs to its old default bound
        rng = random.Random(8)
        verdicts = []
        for _ in range(300):
            n = rng.randint(2, 4)
            polys = [_random_form(rng, n, rng.randint(1, 3)) for _ in range(rng.randint(2, n))]
            if rng.random() < 0.3:
                factor = _random_form(rng, n, 1)
                polys[0] = factor * _random_form(rng, n, rng.randint(0, 2))
                polys[1] = factor * _random_form(rng, n, rng.randint(0, 2))
            ideal = RegularSequenceIdeal(n, tuple(polys), (1,) * n)
            bound = 2 * max(f.total_degree() for f in polys) + 4
            verdict = verify_regular(ideal)
            assert verdict == regularity_scan_oracle(ideal, bound), polys
            verdicts.append(verdict)
        assert 60 <= sum(verdicts) <= 240


def _random_form(rng, n, d):
    """One to three terms of degree d with coefficients in +-1..3."""
    monos = monomials_of_weighted_degree(n, (1,) * n, d)
    out = Poly.zero(n)
    for e in rng.sample(monos, min(rng.randint(1, 3), len(monos))):
        out = out + Poly.monomial(n, e, rng.choice((-3, -2, -1, 1, 2, 3)))
    return out
