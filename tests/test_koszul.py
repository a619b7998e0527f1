"""Koszul complexes, dual bases, and the regularity guard."""
import random

import pytest

from atkernel.chaincore import GradingError, hom_bracket
from atkernel.koszul import (
    RegularSequenceIdeal,
    build_koszul,
    dual_basis_map,
    dual_left_multiplication,
    index_sets,
    verify_regular,
)
from atkernel.polyforms import Poly, parse_poly
from oracles import koszul_differential_oracle

X = ("x",)
XY = ("x", "y")
XYZ = ("x", "y", "z")


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

    def test_quadric_pair_passes_bound_eight(self):
        ideal = RegularSequenceIdeal(
            3,
            (parse_poly("x^2 - y*z", XYZ), parse_poly("y^2 - x*z", XYZ)),
            (1, 1, 1),
        )
        assert verify_regular(ideal, 8)

    @pytest.mark.parametrize("bound", [1, 0, -3])
    def test_bound_below_lowest_degree_refused(self, bound):
        # x*y ; x*z is not regular; its lowest degree in K^{-1} is 2
        ideal = RegularSequenceIdeal(
            3, (parse_poly("x*y", XYZ), parse_poly("x*z", XYZ)), (1, 1, 1)
        )
        with pytest.raises(ValueError, match="below the lowest degree 2"):
            verify_regular(ideal, bound)
        # degree 3 holds the syzygy z*gf1 - y*gf2
        assert not verify_regular(ideal, 3)

    def test_ungraded_refused(self):
        ideal = RegularSequenceIdeal(2, (parse_poly("x + y^2", XY),), None)
        with pytest.raises(GradingError):
            verify_regular(ideal)
