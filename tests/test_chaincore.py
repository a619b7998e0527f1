"""Complexes, the Hom-complex bracket, cones, shifts, and the graded solver."""
import random
import re

import pytest

from atkernel.atiyah import DerivationSpec, atiyah_cocycle, contract_derivation
from atkernel.chaincore import (
    BasisElement,
    ChainMap,
    FreeComplex,
    GradingError,
    ShapeError,
    complex_to_text,
    compose,
    cone,
    hom_bracket,
    identity_map,
    is_cocycle,
    parse_complex,
    shift,
    shift_map,
    solve_coboundary,
    zero_map,
    _poly_matmul,
    _wedge_matmul,
)
from atkernel import linalg
from atkernel.corpus import corpus_entries, random_chain_map, random_poly
from atkernel.koszul import RegularSequenceIdeal, build_koszul
from atkernel.polyforms import ArityError, Form, ParseError, Poly, parse_form, parse_poly
from atkernel.selftest import check_cone_identity, cone_homotopy

from oracles import (
    component_basis,
    component_matrix,
    component_matrix_oracle,
    differential_map,
    homology_rank,
    poly_matmul_oracle,
    wedge_matmul_oracle,
)

X = ("x",)
XY = ("x", "y")


def koszul_x2():
    return build_koszul(RegularSequenceIdeal(1, (parse_poly("x^2", X),), (1,)))


def koszul_xy():
    return build_koszul(
        RegularSequenceIdeal(2, (parse_poly("x", XY), parse_poly("y", XY)), (1, 1))
    )


class TestHomBracket:
    def test_bracket_of_identity_vanishes(self):
        assert hom_bracket(identity_map(koszul_xy().complex)).is_zero()

    def test_bracket_of_differential_vanishes(self):
        assert hom_bracket(differential_map(koszul_xy().complex)).is_zero()

    def test_degree_minus_one_homotopy_on_double_point(self):
        # h: K^0 -> K^{-1}, 1 -> gamma, has bracket x^2 . id
        kz = koszul_x2()
        cx = kz.complex
        h = ChainMap(
            cx, cx, -1, 0, {0: [[Form.from_poly(Poly.one(1))]]}
        )
        br = hom_bracket(h)
        x2 = parse_poly("x^2", X)
        assert br.matrix(0)[0][0].to_poly() == x2
        assert br.matrix(-1)[0][0].to_poly() == x2

    def test_bracket_squared_random(self):
        rng = random.Random(4)
        for entry in corpus_entries():
            kz = build_koszul(entry.ideal)
            for _ in range(17):
                h = random_chain_map(
                    rng, kz, rng.choice([-2, -1, 0, 1, 2]), rng.choice([0, 1])
                )
                assert hom_bracket(hom_bracket(h)).is_zero()

    def test_is_cocycle_examples(self):
        kz = koszul_xy()
        assert is_cocycle(identity_map(kz.complex))
        rng = random.Random(5)
        hits = sum(
            1 for _ in range(20) if is_cocycle(random_chain_map(rng, kz, 1, 0))
        )
        assert hits == 0


class TestCompose:
    def test_identity_neutral(self):
        kz = koszul_xy()
        rng = random.Random(6)
        u = random_chain_map(rng, kz, 1, 1)
        assert compose(identity_map(kz.complex), u) == u
        assert compose(u, identity_map(kz.complex)) == u

    def test_zero_absorbs(self):
        kz = koszul_xy()
        rng = random.Random(7)
        u = random_chain_map(rng, kz, 1, 0)
        z = zero_map(kz.complex, kz.complex, 0, 0)
        assert compose(u, z).is_zero()

    def test_one_by_one_form_entries_wedge_left(self):
        n = 2
        c = FreeComplex(n, {0: [BasisElement("e")]}, {}, (1, 1))
        u = ChainMap(c, c, 0, 1, {0: [[parse_form("x*dx", XY)]]})
        v = ChainMap(c, c, 0, 1, {0: [[parse_form("y*dy", XY)]]})
        uv = compose(u, v)
        assert uv.matrix(0)[0][0] == parse_form("x*y*dx^dy", XY)
        vu = compose(v, u)
        assert vu.matrix(0)[0][0] == parse_form("-x*y*dx^dy", XY)


def koszul_squares(q):
    """K(x_1^2, .., x_q^2) over four variables."""
    n = 4
    polys = tuple(Poly.monomial(n, tuple(2 if j == i else 0 for j in range(n))) for i in range(q))
    return build_koszul(RegularSequenceIdeal(n, polys, (1,) * n))


def _zero_padded(rng, u):
    """u with about a third of its entries replaced by degree-0 zero forms,
    which a map of any form degree may carry."""
    n = u.source.n
    mats = {
        i: [[Form.zero(n, 0) if rng.random() < 0.35 else f for f in row] for row in mat]
        for i, mat in u.mats.items()
    }
    return ChainMap(u.source, u.target, u.degree, u.form_degree, mats)


class TestFusedProducts:
    """The accumulate-once matrix products against the naive sums of the
    public binary operations, entry by entry."""

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_wedge_matmul_matches_sum_of_wedges(self, q):
        kz = koszul_squares(q)
        cx, n = kz.complex, kz.n
        rng = random.Random(40 + q)
        maps = [atiyah_cocycle(cx).chain_map, differential_map(cx), identity_map(cx)]
        maps += [random_chain_map(rng, kz, d, fd) for d, fd in ((0, 0), (1, 1), (-1, 2))]
        maps += [_zero_padded(rng, u) for u in maps[:1] + maps[3:]]
        for u in maps:
            for v in maps:
                out_deg = min(u.form_degree + v.form_degree, n)
                # every degree of the support where both factors have rows, so
                # all-zero padding matrices from ChainMap.matrix take part
                for i in cx.support():
                    a, b = u.matrix(i + v.degree), v.matrix(i)
                    if not (a and b):
                        continue
                    got = _wedge_matmul(a, b, n, out_deg)
                    assert got == wedge_matmul_oracle(a, b, n, out_deg)
                    assert all(w.degree == out_deg for row in got for w in row)

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_poly_matmul_matches_sum_of_products(self, q):
        kz = koszul_squares(q)
        cx, n = kz.complex, kz.n
        rng = random.Random(50 + q)
        for i in sorted(cx.diff):
            d = cx.d_matrix(i)
            rand = [
                [random_poly(rng, n) if rng.random() < 0.6 else Poly.zero(n) for _ in range(3)]
                for _ in range(cx.rank(i))
            ]
            for a, b in ((d, rand), (cx.d_matrix(i + 1), d)):
                if a and b:
                    assert _poly_matmul(a, b) == poly_matmul_oracle(a, b)

    def test_contraction_of_composed_map_with_zero_entries(self):
        # compose's zero entries carry the form degree of the composite, so
        # contracting a form-degree-1 composite needs no special case
        ideal = RegularSequenceIdeal(
            3, tuple(parse_poly(t, ("x", "y", "z")) for t in ("x", "y", "z")), (1, 1, 1)
        )
        cx = build_koszul(ideal).complex
        at = atiyah_cocycle(cx).chain_map
        assert any(w.is_zero() for mat in at.mats.values() for row in mat for w in row)
        # the same map with every zero entry of form degree 0
        padded = ChainMap(cx, cx, 1, 1, {
            i: [[w if w.terms else Form.zero(3, 0) for w in row] for row in mat]
            for i, mat in at.mats.items()
        })
        composed = compose(padded, identity_map(cx))
        assert composed == at
        xi = DerivationSpec((Poly.one(3), Poly.zero(3), Poly.variable(3, 2)))
        assert contract_derivation(xi, composed) == contract_derivation(xi, at)

    @pytest.mark.parametrize(
        "a, b",
        [
            # the arity-3 entry of b meets only the zero entry of a
            ([[Poly.zero(2), Poly.one(2)]], [[Poly.one(3)], [Poly.zero(2)]]),
            # the arity-3 entry of a is zero, and so is the entry of b it meets
            ([[Poly.one(2), Poly.zero(3)]], [[Poly.one(2)], [Poly.zero(2)]]),
            ([[Poly.zero(2)]], [[Poly.zero(3)]]),
        ],
    )
    def test_poly_matmul_checks_arity_of_entries_that_meet_zeros(self, a, b):
        with pytest.raises(ArityError):
            _poly_matmul(a, b)


def koszul_weighted():
    """A sequence homogeneous for the weights (1, 2, 3) of x, y, z."""
    names = ("x", "y", "z")
    polys = tuple(parse_poly(t, names) for t in ("x^2 - y", "y^3 + z^2", "x*z"))
    return build_koszul(RegularSequenceIdeal(3, polys, (1, 2, 3)))


class TestComponentMatrix:
    """The one-write component matrices against a naive accumulating
    oracle, and homology_rank's shared basis against separate builds."""

    @pytest.mark.parametrize("q", [1, 2, 3, 4, "weighted"])
    def test_matches_accumulating_oracle(self, q):
        cx = (koszul_weighted() if q == "weighted" else koszul_squares(q)).complex
        for i in cx.support():
            for d in range(7):
                src, tgt, mat = component_matrix(cx, i, d)
                assert src == component_basis(cx, i, d)
                assert tgt == component_basis(cx, i + 1, d)
                assert mat == component_matrix_oracle(cx, i, src, tgt)
                src_in = component_basis(cx, i - 1, d)
                mat_in = component_matrix_oracle(cx, i - 1, src_in, src)
                rank_out = linalg.rank(mat) if src and tgt else 0
                rank_in = linalg.rank(mat_in) if src_in and src else 0
                assert homology_rank(cx, i, d) == len(src) - rank_out - rank_in


class TestShift:
    def test_shift_zero_is_identity(self):
        cx = koszul_xy().complex
        assert shift(cx, 0) == cx

    def test_shift_round_trip(self):
        cx = koszul_xy().complex
        assert shift(shift(cx, 1), -1) == cx

    def test_shift_negates_differential(self):
        cx = koszul_x2().complex
        shifted = shift(cx, 1)
        assert shifted.d_matrix(-2)[0][0] == parse_poly("-x^2", X)

    def test_bracket_commutes_with_shift_up_to_sign(self):
        rng = random.Random(8)
        kz = koszul_xy()
        for i in (-2, -1, 1, 2):
            h = random_chain_map(rng, kz, rng.choice([0, 1]), rng.choice([0, 1]))
            lhs = hom_bracket(shift_map(h, i))
            rhs = shift_map(hom_bracket(h), i).scale((-1) ** (i % 2))
            assert lhs == rhs


class TestCone:
    def test_cone_of_identity_is_acyclic(self):
        cx = koszul_xy().complex
        c = cone(identity_map(cx))
        weights = [b.weight for bs in c.degrees.values() for b in bs]
        for i in c.support():
            for d in range(min(weights), max(weights) + 3):
                assert homology_rank(c, i, d) == 0

    def test_exact_check_passes_on_every_corpus_cone(self):
        _, ok, total = check_cone_identity()
        assert ok == total == len(corpus_entries())

    def test_sign_flipped_homotopy_fails(self):
        for entry in corpus_entries():
            h = cone_homotopy(identity_map(build_koszul(entry.ideal).complex))
            assert hom_bracket(h) == identity_map(h.source)
            assert hom_bracket(h.scale(-1)) != identity_map(h.source)

    def test_homotopy_on_cone_of_zero_fails(self):
        # cone(0) = K + K[1] keeps H^0(K) = Q in internal degree 0
        cx = koszul_xy().complex
        h = cone_homotopy(zero_map(cx, cx, 0, 0))
        assert hom_bracket(h).is_zero()
        assert hom_bracket(h) != identity_map(h.source)
        assert homology_rank(h.source, 0, 0) == 1

    def test_cone_of_zero_is_block_diagonal(self):
        cx = koszul_x2().complex
        c = cone(zero_map(cx, cx, 0, 0))
        # N block survives untouched, N'[1] block is negated and shifted
        assert c.d_matrix(-1)[0][0] == parse_poly("x^2", X)
        assert c.d_matrix(-1)[0][1].is_zero()
        assert c.d_matrix(-2)[1][0] == parse_poly("-x^2", X)
        assert c.d_matrix(-2)[0][0].is_zero()

    def test_cone_of_multiplication_matches_koszul_up_to_signed_relabeling(self):
        n = 1
        source = FreeComplex(n, {0: [BasisElement("b", 2)]}, {}, (1,))
        target = FreeComplex(n, {0: [BasisElement("e")]}, {}, (1,))
        f = ChainMap(
            source, target, 0, 0, {0: [[Form.from_poly(parse_poly("x^2", X))]]}
        )
        c = cone(f)
        kz = koszul_x2().complex
        assert [c.rank(i) for i in (-1, 0)] == [kz.rank(-1), kz.rank(0)]
        entry = c.d_matrix(-1)[0][0]
        target = kz.d_matrix(-1)[0][0]
        assert entry == target or entry == -target

    def test_cone_rejects_non_chain_map(self):
        kz = koszul_xy()
        rng = random.Random(9)
        bad = random_chain_map(rng, kz, 0, 0)
        if is_cocycle(bad):  # astronomically unlikely; regenerate
            bad = random_chain_map(rng, kz, 0, 0)
        with pytest.raises(ShapeError):
            cone(bad)

    def test_cone_checks_square_zero(self):
        # construction of any FreeComplex validates d o d = 0
        with pytest.raises(ShapeError):
            FreeComplex(
                1,
                {-2: [BasisElement("a")], -1: [BasisElement("b")], 0: [BasisElement("c")]},
                {
                    -2: [[parse_poly("x", X)]],
                    -1: [[parse_poly("x", X)]],
                },
                None,
            )


class TestSolveCoboundary:
    def test_zero_is_solvable_with_zero_witness(self):
        kz = koszul_xy()
        report = solve_coboundary(zero_map(kz.complex, kz.complex, 1, 0))
        assert report.solvable and report.witness.is_zero()

    def test_brackets_are_recognized(self):
        rng = random.Random(10)
        for entry in corpus_entries():
            kz = build_koszul(entry.ideal)
            h0 = random_chain_map(rng, kz, 0, 1)
            c = hom_bracket(h0)
            report = solve_coboundary(c)
            assert report.solvable
            assert hom_bracket(report.witness) == c

    def test_degree_zero_cocycle_with_degree_minus_one_unknowns(self):
        # the witness has degree -1, so the sign of its h o d terms is
        # (-1)^(-1); it must reach the solver as the integer -1
        cx = FreeComplex(
            1,
            {0: [BasisElement("a", 1)], 1: [BasisElement("b", 0)]},
            {0: [[parse_poly("x", X)]]},
            (1,),
        )
        h = ChainMap(cx, cx, -1, 0, {1: [[Form.from_poly(Poly.one(1))]]})
        c = hom_bracket(h)
        assert c.degree == 0 and not c.is_zero()
        report = solve_coboundary(c)
        assert report.solvable and hom_bracket(report.witness) == c

    def test_atiyah_cocycle_of_double_point_is_not_a_coboundary(self):
        from atkernel.atiyah import atiyah_cocycle

        kz = koszul_x2()
        report = solve_coboundary(atiyah_cocycle(kz.complex).chain_map)
        assert not report.solvable

    def test_refuses_ungraded(self):
        cx = FreeComplex(
            1,
            {-1: [BasisElement("a")], 0: [BasisElement("b")]},
            {-1: [[parse_poly("x^2 + x", X)]]},
            None,
        )
        with pytest.raises(GradingError):
            solve_coboundary(zero_map(cx, cx, 1, 0) + differential_map(cx) - differential_map(cx))

    def test_refuses_non_cocycle(self):
        kz = koszul_xy()
        rng = random.Random(11)
        c = random_chain_map(rng, kz, 1, 0)
        assert not is_cocycle(c)
        with pytest.raises(ShapeError):
            solve_coboundary(c)


class TestSerialization:
    def test_complex_round_trip(self):
        for entry in corpus_entries():
            kz = build_koszul(entry.ideal)
            text = complex_to_text(kz.complex, "K", entry.var_names)
            name, parsed, names = parse_complex(text)
            assert name == "K"
            assert parsed == kz.complex
            assert complex_to_text(parsed, "K", names) == text

    def test_documented_block_format(self):
        text = """
        complex K { ring Q[x, y]; deg -1: [gx:1, gy:1]; deg 0: [e];
                    d(-1) = [[x], [y]] }
        """
        name, cx, names = parse_complex(text.strip().rstrip())
        assert cx.rank(-1) == 2 and cx.rank(0) == 1
        assert cx.d_matrix(-1)[0][0] == parse_poly("x", XY)
        assert cx.d_matrix(-1)[0][1] == parse_poly("y", XY)

    @pytest.mark.parametrize(
        "items, message",
        [
            ("deg 0: [e]; deg 0: [f]", "degree 0 declared twice"),
            ("deg -1: [g:1]; deg 0: [e]; d(-1) = [[x]]; d(-1) = [[x^2]]", "d(-1) given twice"),
            ("deg 0: [e:1:2]", "got '1:2' in item 'deg 0: [e:1:2]'"),
            ("deg a: [e]", "got 'a' in item 'deg a: [e]'"),
            ("deg 0: [e]; d(b) = [[x]]", "got 'b' in item 'd(b) = [[x]]'"),
        ],
    )
    def test_bad_items_refused(self, items, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_complex(f"complex K {{ ring Q[x]; {items} }}")


class TestLimits:
    def test_total_rank_cap(self):
        with pytest.raises(ShapeError):
            FreeComplex(
                1,
                {0: [BasisElement(f"e{i}") for i in range(65)]},
                {},
                (1,),
            )
