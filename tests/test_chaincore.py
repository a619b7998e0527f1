"""Complexes, the Hom-complex bracket, cones, shifts, and the graded solver."""
import hashlib
import random
import re
from fractions import Fraction
from operator import mul

import pytest

from atkernel.atiyah import (DerivationSpec, atiyah_cocycle, atiyah_power, contract_derivation,
                             obstruction_cocycle)
from atkernel.chaincore import (
    BasisElement,
    ChainMap,
    FreeComplex,
    GradingError,
    ShapeError,
    compose,
    hom_bracket,
    identity_map,
    is_cocycle,
    map_to_text,
    solve_coboundary,
    zero_map,
    _product,
    _settle,
)
from atkernel import coboundary, linalg
from atkernel.corpus import (
    corpus_entries,
    functoriality_pairs,
    random_chain_map,
    random_poly,
)
from atkernel.koszul import RegularSequenceIdeal, build_koszul
from atkernel.atiyah import ConnectionSpec
from atkernel.polyforms import (
    ArityError,
    Form,
    ParseError,
    Poly,
    _form_from_acc,
    _mul_into,
    _poly_from_acc,
    _wedge_into,
    pack,
    parse_form,
    parse_poly,
)
from atkernel.selftest import (
    check_cone_identity,
    complex_to_text,
    cone,
    cone_homotopy,
    parse_complex,
    shift,
    shift_map,
)

from oracles import (
    coboundary_reference,
    cousin_reference,
    dense,
    differential_map,
    form_terms,
    fraction_map,
    hom_bracket_oracle,
    homology_rank,
    poly_matmul_oracle,
    sparse,
    square_ladder,
    stored_invariant,
    tuple_terms,
    wedge_matmul_oracle,
)

X = ("x",)
XY = ("x", "y")
BRACKET_IDEALS = [entry.ideal for entry in corpus_entries()] + [square_ladder(q) for q in range(1, 5)]


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
        assert br.entry(0, 0, 0).to_poly() == x2
        assert br.entry(-1, 0, 0).to_poly() == x2

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


class TestBracketOracle:
    """hom_bracket, which multiplies by the differentials' Poly entries,
    against the Form-wrapped wedge products it replaced."""

    @pytest.mark.parametrize("ideal", BRACKET_IDEALS, ids=lambda ideal: f"q{ideal.q}n{ideal.n}")
    def test_matches_form_wrapped_oracle(self, ideal):
        rng = random.Random(f"bracket:{ideal.polys}")
        kz = build_koszul(ideal)
        maps = [identity_map(kz.complex).scale(Fraction(-3, 4)), differential_map(kz.complex)]
        maps += [atiyah_power(atiyah_cocycle(kz.complex), k).chain_map for k in range(1, kz.q + 1)]
        maps += [fraction_map(rng, kz, d, k) for d in range(-1, 3) for k in range(min(kz.n, 2) + 1)]
        nonzero = 0
        for h in maps:
            br = hom_bracket(h)
            assert br == hom_bracket_oracle(h)
            assert (br.degree, br.form_degree) == (h.degree + 1, h.form_degree)
            nonzero += not br.is_zero()
        assert nonzero >= 2 * (min(kz.n, 2) + 1)

    def test_maps_between_two_complexes(self):
        rng = random.Random("bracket:pairs")
        nonzero = 0
        for f, src, tgt in functoriality_pairs():
            maps = [f, f.scale(Fraction(5, 3))]
            maps += [fraction_map(rng, src, d, k, target=tgt)
                     for d in range(-1, 3) for k in range(min(src.n, 2) + 1)]
            for h in maps:
                br = hom_bracket(h)
                assert br == hom_bracket_oracle(h)
                assert br.source is src.complex and br.target is tgt.complex
                nonzero += not br.is_zero()
        assert nonzero > 0


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
        assert uv.entry(0, 0, 0) == parse_form("x*y*dx^dy", XY)
        vu = compose(v, u)
        assert vu.entry(0, 0, 0) == parse_form("-x*y*dx^dy", XY)


def koszul_squares(q):
    """K(x_1^2, .., x_q^2) over four variables."""
    n = 4
    polys = tuple(Poly.monomial(n, tuple(2 if j == i else 0 for j in range(n))) for i in range(q))
    return build_koszul(RegularSequenceIdeal(n, polys, (1,) * n))


def _zero_padded(rng, u):
    """u given densely, with about a third of its entries replaced by
    degree-0 zero forms, which a map of any form degree may carry."""
    n = u.source.n
    mats = {
        i: [[Form.zero(n, 0) if rng.random() < 0.35 else f for f in row] for row in dense(u, i)]
        for i in u.mats
    }
    return ChainMap(u.source, u.target, u.degree, u.form_degree, mats)


class TestFusedProducts:
    """The sparse accumulate-once matrix product against the naive sums of
    the public binary operations on densified inputs, entry by entry."""

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
                # every degree of the support where both factors have rows,
                # so factors with no stored matrix take part as well
                for i in cx.support():
                    a, b = dense(u, i + v.degree), dense(v, i)
                    if not (a and b):
                        continue
                    acc = _product({}, u.mats.get(i + v.degree, {}), v.mats.get(i, {}), _wedge_into)
                    got = _settle(acc, lambda raw: _form_from_acc(n, out_deg, raw))
                    assert got == sparse(wedge_matmul_oracle(a, b, n, out_deg))
                    assert all(w.degree == out_deg for row in got.values() for w in row.values())

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_poly_matmul_matches_sum_of_products(self, q):
        kz = koszul_squares(q)
        cx, n = kz.complex, kz.n
        rng = random.Random(50 + q)
        for i in sorted(cx.diff):
            d = dense(cx, i)
            rand = [
                [random_poly(rng, n) if rng.random() < 0.6 else Poly.zero(n) for _ in range(3)]
                for _ in range(cx.rank(i))
            ]
            for a, b in ((d, rand), (dense(cx, i + 1), d)):
                if a and b:
                    acc = _product({}, sparse(a), sparse(b), _mul_into)
                    got = _settle(acc, lambda raw: _poly_from_acc(n, raw))
                    assert got == sparse(poly_matmul_oracle(a, b))

    def test_contraction_of_composed_map_with_zero_entries(self):
        # a map given with zero entries of any form degree stores none of
        # them, so contracting a form-degree-1 composite needs no special case
        ideal = RegularSequenceIdeal(
            3, tuple(parse_poly(t, ("x", "y", "z")) for t in ("x", "y", "z")), (1, 1, 1)
        )
        cx = build_koszul(ideal).complex
        at = atiyah_cocycle(cx).chain_map
        assert any(w.is_zero() for i in at.mats for row in dense(at, i) for w in row)
        # the same map with every zero entry of form degree 0
        padded = ChainMap(cx, cx, 1, 1, {
            i: [[w if w.terms else Form.zero(3, 0) for w in row] for row in dense(at, i)]
            for i in at.mats
        })
        assert padded == at and stored_invariant(padded.mats)
        composed = compose(padded, identity_map(cx))
        assert composed == at
        xi = DerivationSpec((Poly.one(3), Poly.zero(3), Poly.variable(3, 2)))
        assert contract_derivation(xi, composed) == contract_derivation(xi, at)


def _one_by_one(n=2):
    """The complex e --x--> f over n variables, graded."""
    return FreeComplex(n, {-1: [BasisElement("e", 1)], 0: [BasisElement("f")]},
                       {-1: [[Poly.variable(n, 0)]]}, (1,) * n)


class TestConstructorBoundaries:
    """Every given entry is checked, zero or not, whatever form the matrix
    is given in; only nonzero entries are stored."""

    @pytest.mark.parametrize("build", [
        # a second, zero entry of arity 3 in a row of arity-2 entries
        lambda cx: FreeComplex(2, {-1: [BasisElement("e", 1), BasisElement("g", 1)],
                                   0: [BasisElement("f")]},
                               {-1: [[Poly.variable(2, 0), Poly.zero(3)]]}, (1, 1)),
        lambda cx: ChainMap(cx, cx, 0, 0, {-1: [[Form.zero(3, 0)]]}),
        lambda cx: ConnectionSpec(cx, {0: [[Form.zero(3, 1)]]}),
    ], ids=["FreeComplex", "ChainMap", "ConnectionSpec"])
    def test_zero_entry_of_wrong_arity_is_refused(self, build):
        with pytest.raises(ArityError):
            build(_one_by_one())

    @pytest.mark.parametrize("mat", [
        [[]],  # a short row
        [[Form.zero(2, 0)], [Form.zero(2, 0)]],  # one row too many
        {1: {0: Form.from_poly(Poly.one(2))}},  # a row index out of range
        {1: [Form.zero(2, 0)]},  # the same, with the row given densely
        {0: {1: Form.zero(2, 0)}},  # a column index out of range, zero entry
    ], ids=["short_row", "row_count", "row_index", "row_index_dense_row", "col_index"])
    def test_matrix_of_wrong_shape_is_refused(self, mat):
        cx = _one_by_one()
        with pytest.raises(ShapeError):
            ChainMap(cx, cx, 0, 0, {0: mat})
        with pytest.raises(ShapeError):
            FreeComplex(2, cx.degrees, {-1: _entries_as_polys(mat)}, (1, 1))

    def test_rows_and_row_dicts_store_the_same(self):
        cx = _one_by_one()
        x = Form.from_poly(Poly.variable(2, 0))
        rows = ChainMap(cx, cx, 0, 0, {-1: [[x]], 0: [[Form.zero(2, 0)]]})
        dicts = ChainMap(cx, cx, 0, 0, {-1: {0: {0: x}}, 0: {0: {}}})
        assert rows == dicts and rows.mats == {-1: {0: {0: x}}}
        assert rows.entry(0, 0, 0) == Form.zero(2, 0) and rows.entry(-1, 0, 0) == x


def _entrywise_equal(u, v):
    cx = u.source
    return all(
        u.entry(i, t, s) == v.entry(i, t, s)
        for i in cx.support()
        for t in range(u.target.rank(i + u.degree))
        for s in range(cx.rank(i))
    )


class TestStoredForm:
    """Results hold nonzero entries only, so literal equality of the stored
    matrices is equality of maps."""

    def test_no_zero_entry_empty_row_or_empty_matrix_is_stored(self):
        rng = random.Random(12)
        for entry in corpus_entries():
            kz = build_koszul(entry.ideal)
            cx, n = kz.complex, kz.n
            at = atiyah_cocycle(cx)
            u = random_chain_map(rng, kz, 1, 1)
            v = random_chain_map(rng, kz, 1, 1)
            w = random_chain_map(rng, kz, -1, 0)
            xi = DerivationSpec(tuple(random_poly(rng, n) for _ in range(n)))
            witness = solve_coboundary(hom_bracket(w)).witness
            results = [
                compose(u, w), compose(w, u), hom_bracket(u), hom_bracket(w), u + v, u - v,
                u - u, (u + v) - v, u.scale(0), u.scale(-2), contract_derivation(xi, u),
                contract_derivation(xi, at), shift_map(u, 1), witness,
                obstruction_cocycle(kz, xi), atiyah_cocycle(cone(identity_map(cx))).chain_map,
            ] + [atiyah_power(at, k).chain_map for k in range(kz.q + 2)]
            assert (u - u).mats == {} and u.scale(0).mats == {}
            assert (u + v) - v == u and _entrywise_equal((u + v) - v, u)
            for result in results:
                assert stored_invariant(result.mats)
            for c in (cone(identity_map(cx)), parse_complex(complex_to_text(cx, "K"))[1]):
                assert stored_invariant(c.diff)

    def test_equality_agrees_with_entrywise_equality(self):
        rng = random.Random(13)
        for entry in corpus_entries():
            kz = build_koszul(entry.ideal)
            for _ in range(10):
                d, fd = rng.choice([-1, 0, 1]), rng.choice([0, 1])
                u, v = random_chain_map(rng, kz, d, fd), random_chain_map(rng, kz, d, fd)
                for a, b in ((u, v), (u, (u + v) - v), (u, _zero_padded(rng, u)),
                             (u - u, zero_map(kz.complex, kz.complex, d, fd))):
                    assert (a == b) == _entrywise_equal(a, b)
                assert u != v and u == (u + v) - v


def _entries_as_polys(mat):
    """The same matrix, or row, with each form entry replaced by its polynomial."""
    if isinstance(mat, dict):
        return {k: _entries_as_polys(v) for k, v in mat.items()}
    if isinstance(mat, list):
        return [_entries_as_polys(v) for v in mat]
    return mat.to_poly()


def koszul_weighted():
    """A sequence homogeneous for the weights (1, 2, 3) of x, y, z."""
    names = ("x", "y", "z")
    polys = tuple(parse_poly(t, names) for t in ("x^2 - y", "y^3 + z^2", "x*z"))
    return build_koszul(RegularSequenceIdeal(3, polys, (1, 2, 3)))


def hilbert_function(degrees, weights, top):
    """The coefficients of t^0 .. t^top in prod(1 - t^a) / prod(1 - t^w),
    over the degrees a of a regular sequence and the weights w of the ring:
    dim (R/I)_d for every d up to top."""
    series = [1] + [0] * top
    for a in degrees:
        series = [v - (series[d - a] if d >= a else 0) for d, v in enumerate(series)]
    for w in weights:
        for d in range(w, top + 1):
            series[d] += series[d - w]
    return series


class TestHomologyRank:
    """homology_rank on Koszul complexes of regular sequences: no homology
    below degree 0, and H^0 = R/I, whose dimension in each internal degree
    the Hilbert series gives."""

    @pytest.mark.parametrize("q", [1, 2, 3, 4, "weighted"])
    def test_koszul_homology_is_the_quotient(self, q):
        cx = (koszul_weighted() if q == "weighted" else koszul_squares(q)).complex
        quotient = hilbert_function([b.weight for b in cx.basis(-1)], cx.var_weights, 6)
        for d in range(7):
            assert [homology_rank(cx, i, d) for i in cx.support()] == (
                [0] * (len(cx.support()) - 1) + [quotient[d]])


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
        assert shifted.entry(-2, 0, 0) == parse_poly("-x^2", X)

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
        _, ok, total, _ = check_cone_identity()
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
        assert c.entry(-1, 0, 0) == parse_poly("x^2", X)
        assert c.entry(-1, 0, 1).is_zero()
        assert c.entry(-2, 1, 0) == parse_poly("-x^2", X)
        assert c.entry(-2, 0, 0).is_zero()

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
        entry = c.entry(-1, 0, 0)
        target = kz.entry(-1, 0, 0)
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
        with pytest.raises(ShapeError, match="^d o d != 0 between degrees -2 and 0$"):
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

    @staticmethod
    def count_brackets(monkeypatch):
        """Record each bracket the decision takes, by the route it takes it:
        'witness' for the check of a solution, 'cocycle' for is_cocycle."""
        calls = []

        def bracket(h):
            calls.append("witness")
            return hom_bracket(h)

        def cocycle(h):
            calls.append("cocycle")
            return is_cocycle(h)

        monkeypatch.setattr(coboundary, "hom_bracket", bracket)
        monkeypatch.setattr(coboundary, "is_cocycle", cocycle)
        return calls

    def test_solvable_cocycle_is_bracketed_once_by_its_witness(self, monkeypatch):
        kz = build_koszul(corpus_entries()[0].ideal)
        c = hom_bracket(random_chain_map(random.Random(12), kz, 0, 1))
        assert not c.is_zero()
        calls = self.count_brackets(monkeypatch)
        report = solve_coboundary(c)
        assert report.solvable and calls == ["witness"]

    def test_unsolvable_cocycle_is_bracketed_once_by_the_cocycle_check(self, monkeypatch):
        from atkernel.atiyah import atiyah_cocycle

        c = atiyah_cocycle(koszul_x2().complex).chain_map
        calls = self.count_brackets(monkeypatch)
        assert not solve_coboundary(c).solvable
        assert calls == ["cocycle"]


def assert_same_decision(report, want):
    """A solve_coboundary report against coboundary_reference's answer:
    both unsolvable, or the same witness by == and by text."""
    assert report.solvable == (want is not None)
    if want is not None:
        assert report.witness == want
        assert map_to_text(report.witness, "h") == map_to_text(want, "h")


class TestWitnessOracle:
    """solve_coboundary against the reference system over every internal
    degree and wedge index: the same answer and the same witness, by ==
    and by text."""

    @staticmethod
    def solve_both(c):
        got = solve_coboundary(c)
        assert_same_decision(got, coboundary_reference(c))
        return got

    @pytest.mark.parametrize("group", ["check_centrality", "check_connection_independence"])
    def test_selftest_draws(self, group, monkeypatch):
        from atkernel import selftest

        seen = []

        def compared(c):
            seen.append(c)
            return self.solve_both(c)

        monkeypatch.setattr(selftest, "solve_coboundary", compared)
        _, passed, total, _ = getattr(selftest, group)()
        assert passed == total == len(seen) == 120

    def test_bracket_draws(self):
        # the draws of TestSolveCoboundary.test_brackets_are_recognized
        rng = random.Random(10)
        for entry in corpus_entries():
            kz = build_koszul(entry.ideal)
            assert self.solve_both(hom_bracket(random_chain_map(rng, kz, 0, 1))).solvable

    def test_witness_entry_spanning_two_internal_degrees(self):
        # d h determines h, so the witness is h, whose one entry 1 + x has
        # internal degrees 1 and 2, in two blocks: both meet in one entry
        cx = FreeComplex(
            1,
            {0: [BasisElement("a", 1)], 1: [BasisElement("b", 0)]},
            {0: [[parse_poly("x", X)]]},
            (1,),
        )
        h = ChainMap(cx, cx, -1, 0, {1: [[Form.from_poly(parse_poly("1 + x", X))]]})
        report = self.solve_both(hom_bracket(h))
        assert report.witness == h


def graded_terms(c: ChainMap):
    """(i, t, s, idx, expt, q, d) for each term q * x^expt in wedge index
    idx of c's entry from s to t, and d its internal degree."""
    w = c.source.var_weights
    for i, t, s, f in c.nonzeros():
        base = c.target.basis(i + c.degree)[t].weight - c.source.basis(i)[s].weight
        for idx, coeff in form_terms(f).items():
            for expt, q in tuple_terms(coeff).items():
                yield i, t, s, idx, expt, q, base + sum(w[j] for j in idx) + sum(map(mul, w, expt))


class TestSolveProductsOracle:
    """Decisions made by _solve_products, on factored blocks that are kept
    and replayed per wedge index, against the reference system assembled
    afresh over every wedge index: the same witness, or None from both."""

    def test_corpus_coboundary_layers_at_every_form_degree(self):
        rng = random.Random("solve-products")
        unsolvable = total = 0

        def solve(c):
            nonlocal total
            report = solve_coboundary(c)
            assert_same_decision(report, coboundary_reference(c))
            total += 1
            return report.solvable

        for entry in corpus_entries():
            kz = build_koszul(entry.ideal)
            at = atiyah_cocycle(kz.complex)
            for fd in range(kz.n + 1):
                for degree in (-1, 0, 1):
                    assert solve(hom_bracket(random_chain_map(rng, kz, degree, fd)))
                if 1 <= fd <= kz.q:
                    unsolvable += not solve(atiyah_power(at, fd).chain_map)
        ideals = [entry.ideal for entry in corpus_entries()]
        assert unsolvable == sum(ideal.q for ideal in ideals)
        assert total == sum(3 * (ideal.n + 1) + ideal.q for ideal in ideals)

    def test_cousin_systems_of_the_commutator_targets(self):
        from atkernel import cousin
        from atkernel.groebner import Basis
        from atkernel.selftest import commutator_class_targets

        targets = [t for t in commutator_class_targets("commclass") if not t.is_zero()]
        for target in targets:
            # the decision's Groebner bound on the cofactors' degree
            lf = target.entries[tuple(range(1, target.q + 1))]
            coeffs = form_terms(lf.num).values()
            top = (max(c.total_degree() for c in coeffs)
                   + Basis([f ** lf.m for f in target.seq], "test").excess)
            got, want = cousin.cousin_coboundary_solve(target), cousin_reference(target, top)
            assert got is not None and got == want
            assert cousin.cousin_to_text(got) == cousin.cousin_to_text(want)
        assert len(targets) > 0

    def test_weighted_ring_eliminates_its_blocks_separately(self, monkeypatch):
        """Over Q[x:1, y:2] the 1-forms dx and dy have weights 1 and 2, so
        in one internal degree d their unknowns run over monomials of
        degrees d - 1 and d - 2: two blocks.  On a fresh complex each
        distinct degree is eliminated once, and some internal degree meets
        both."""
        names, weights = ("x", "y"), (1, 2)
        eliminations = []
        original = linalg._echelon
        monkeypatch.setattr(linalg, "_echelon",
                            lambda rows: eliminations.append(len(rows)) or original(rows))
        rng = random.Random(3)
        two_blocks = 0
        for _ in range(5):
            kz = build_koszul(RegularSequenceIdeal(
                2, (parse_poly("x^2", names), parse_poly("y", names)), weights))
            c = hom_bracket(random_chain_map(rng, kz, 0, 1))
            eliminations.clear()
            report = solve_coboundary(c)
            assert report.solvable
            # internal degree -> the degrees e = d - weight(dx_j) of its blocks
            degrees: dict[int, set] = {}
            for _, _, _, (j,), _, _, d in graded_terms(c):
                degrees.setdefault(d, set()).add(d - weights[j])
            assert len(eliminations) == len(set().union(*degrees.values()))
            two_blocks += any(len(es) == 2 for es in degrees.values())
            assert_same_decision(report, coboundary_reference(c))
        assert two_blocks > 0

    def test_right_hand_side_in_a_wedge_index_with_no_unknown(self, monkeypatch):
        """0 = b in the dy slot: unsolvable, and no right-hand side is replayed."""
        from atkernel.coboundary import _Block, _solve_products

        x = parse_poly("x", XY)
        block = _Block(["u", "u"], [pack((0, 0)), pack((1, 0))], {"u": [("slot", x, 1)]})
        empty = _Block([], [], {"u": [("slot", x, 1)]})
        blocks = {0: block, 1: empty}.__getitem__

        def terms(text):
            # the dx terms lie in block 0, the dy terms in block 1; a term
            # names its wedge index by its mask
            return [(idx[0], "slot", 1 << idx[0], expt, q)
                    for idx, coeff in form_terms(parse_form(text, XY)).items()
                    for expt, q in coeff.terms.items()]

        replays = []
        monkeypatch.setattr(linalg.Factorization, "solve", lambda *args: replays.append(args))
        assert _solve_products(blocks, terms("x*dx + y*dy"), 2, 1) is None
        assert replays == []
        monkeypatch.undo()
        # without the dy term the system is solvable, with u = dx
        assert _solve_products(blocks, terms("x*dx"), 2, 1) == {"u": parse_form("dx", XY)}

    def test_rows_per_elimination_are_one_wedge_index(self, monkeypatch):
        """A form-degree-1 bracket on x ; y ; z: its three wedge indices
        share one matrix, so each elimination factors a third of the rows
        that the single system (828 rows over 3 internal degrees) did.  The
        bracket is on a fresh complex, so no block is factored before it."""
        parent_rows = 828
        names = ("x", "y", "z")
        ideal = RegularSequenceIdeal(3, tuple(parse_poly(v, names) for v in names), (1, 1, 1))
        c = hom_bracket(random_chain_map(random.Random(7), build_koszul(ideal), 0, 1))
        rows = []
        original = linalg._echelon
        monkeypatch.setattr(linalg, "_echelon", lambda r: rows.append(len(r)) or original(r))
        assert solve_coboundary(c).solvable
        assert len(rows) == 3 and 3 * sum(rows) == parent_rows

    def test_one_replay_per_degree_and_wedge_index(self, monkeypatch):
        """The bracket above meets three degrees e in each of its three
        wedge indices: nine right-hand sides, each replayed alone.  In one
        wedge index e = d - weight(idx) is one-to-one in the internal
        degree d, so the vectors are the distinct pairs (d, idx)."""
        names = ("x", "y", "z")
        ideal = RegularSequenceIdeal(3, tuple(parse_poly(v, names) for v in names), (1, 1, 1))
        c = hom_bracket(random_chain_map(random.Random(7), build_koszul(ideal), 0, 1))
        vectors = {(d, idx) for *_, idx, _, _, d in graded_terms(c)}
        replays = []
        original = linalg.Factorization.solve
        monkeypatch.setattr(linalg.Factorization, "solve",
                            lambda self, b: replays.append(b) or original(self, b))
        assert solve_coboundary(c).solvable
        assert len(replays) == len(vectors) == 9


class TestKeptBlocks:
    """A complex keeps the factored blocks of the maps out of it, keyed by
    the target (by identity), r_h and the coefficients' degree; the
    Cousin decision keeps its blocks by (sequence, m, top)."""

    @staticmethod
    def count_eliminations(monkeypatch) -> list:
        rows = []
        original = linalg._echelon
        monkeypatch.setattr(linalg, "_echelon", lambda r: rows.append(len(r)) or original(r))
        return rows

    def test_second_cocycle_in_the_same_degrees_factors_nothing_new(self, monkeypatch):
        eliminations = self.count_eliminations(monkeypatch)
        kz = build_koszul(corpus_entries()[3].ideal)  # the cone x^2 - y*z ; y^2 - x*z
        first = hom_bracket(random_chain_map(random.Random(11), kz, 0, 1))
        assert solve_coboundary(first).solvable and eliminations
        # each internal degree scaled by its own factor: another coboundary
        # with the same degrees, and not a multiple of the first
        degrees = sorted({d for *_, d in graded_terms(first)})
        assert len(degrees) >= 2
        factor = {d: d + 3 for d in degrees} | {degrees[0]: 2}
        entries: dict[tuple, dict] = {}
        for i, t, s, idx, expt, q, d in graded_terms(first):
            entries.setdefault((i, t, s), {}).setdefault(idx, {})[expt] = q * factor[d]
        n, k = first.source.n, first.form_degree
        mats: dict[int, dict] = {}
        for (i, t, s), terms in entries.items():
            mats.setdefault(i, {}).setdefault(t, {})[s] = Form(
                n, k, {idx: Poly(n, poly) for idx, poly in terms.items()})
        second = ChainMap(first.source, first.target, first.degree, k, mats)
        assert second != first.scale(2)
        eliminations.clear()
        report = solve_coboundary(second)
        assert report.solvable and eliminations == []
        assert_same_decision(report, coboundary_reference(second))

    def test_second_solve_of_the_same_cocycle_builds_no_column(self, monkeypatch):
        """Each kept block has a column for every equation from the moment
        it is factored; neither solve changes one, and the second factors
        nothing."""
        built = []  # each factorization, with its columns as it built them
        original = linalg.Factorization.__init__

        def record(system, rows, ncols):
            original(system, rows, ncols)
            built.append((system, list(system.columns)))

        monkeypatch.setattr(linalg.Factorization, "__init__", record)
        kz = build_koszul(corpus_entries()[3].ideal)  # the cone x^2 - y*z ; y^2 - x*z
        c = hom_bracket(random_chain_map(random.Random(11), kz, 0, 1))
        first = solve_coboundary(c)
        assert first.solvable and built
        blocks = [block for _, kept in kz.complex._coboundary_blocks.values()
                  for block in kept.values()]
        assert [block.factored for block in blocks] == [system for system, _ in built]
        assert all(len(block.factored.columns) == len(block.rows) for block in blocks)
        second = solve_coboundary(c)
        assert second.solvable and len(built) == len(blocks)
        assert all(system.columns == columns for system, columns in built)
        assert map_to_text(second.witness, "h") == map_to_text(first.witness, "h")

    def test_one_source_with_two_targets_keeps_two_entries(self):
        f, src, tgt = functoriality_pairs()[2]  # x*y ; z^2 -> x*y ; z
        at_src, at_tgt = atiyah_cocycle(src.complex), atiyah_cocycle(tgt.complex)
        across = compose(f, at_src.chain_map) - compose(at_tgt.chain_map, f)
        assert solve_coboundary(across).solvable
        within = hom_bracket(random_chain_map(random.Random(5), src, 0, 1))
        assert solve_coboundary(within).solvable
        kept = src.complex._coboundary_blocks
        assert sorted(kept) == sorted([id(src.complex), id(tgt.complex)])
        assert kept[id(tgt.complex)][0] is tgt.complex and kept[id(src.complex)][0] is src.complex
        assert tgt.complex._coboundary_blocks == {}

    def test_equal_complexes_do_not_share_blocks(self, monkeypatch):
        eliminations = self.count_eliminations(monkeypatch)
        # corpus_entries() builds new ideals on every call, so two complexes
        a, b = (build_koszul(corpus_entries()[4].ideal).complex for _ in range(2))
        assert a is not b and a == b
        h = random_chain_map(random.Random(9), build_koszul(corpus_entries()[4].ideal), 0, 1)
        reports = []
        for cx in (a, b):
            eliminations.clear()
            c = hom_bracket(ChainMap(cx, cx, h.degree, h.form_degree, h.mats))
            reports.append(solve_coboundary(c))
            assert eliminations and list(cx._coboundary_blocks) == [id(cx)]
        assert a == b and b == a
        assert map_to_text(reports[0].witness, "h") == map_to_text(reports[1].witness, "h")
        blocks_a, blocks_b = a._coboundary_blocks[id(a)][1], b._coboundary_blocks[id(b)][1]
        assert blocks_a.keys() == blocks_b.keys()
        assert all(blocks_a[key] is not blocks_b[key] for key in blocks_a)

    def test_cousin_target_solved_twice_factors_once(self, monkeypatch):
        from atkernel import coboundary, cousin
        from atkernel.cousin import cousin_to_text
        from atkernel.selftest import commutator_class_targets

        coboundary._cousin_block.cache_clear()
        eliminations = self.count_eliminations(monkeypatch)
        target = next(t for t in commutator_class_targets("commclass") if not t.is_zero())
        first = cousin.cousin_coboundary_solve(target)
        assert len(eliminations) == 1
        second = cousin.cousin_coboundary_solve(target)
        assert len(eliminations) == 1
        assert first == second and cousin_to_text(first) == cousin_to_text(second)
        assert first is not second
        assert coboundary._cousin_block.cache_info().hits == 1

    def test_selftest_factors_each_block_once_per_run(self, monkeypatch):
        """One selftest run: 404 eliminations over 45 distinct matrices
        before blocks were kept, and 72 while each group built its own
        corpus.  Now the groups share one corpus, so every block is factored
        once per run for the complex, target, r_h and degree it belongs to,
        or for its Cousin (sequence, m, top), and no block is factored twice
        for equal complexes with the same target, r_h and degree.  Some
        blocks over different monomials have equal matrices, so that is
        more blocks than distinct matrices."""
        from atkernel import coboundary, selftest

        coboundary._cousin_block.cache_clear()
        matrices = []
        original = linalg._echelon
        monkeypatch.setattr(linalg, "_echelon",
                            lambda rows: matrices.append(
                                tuple(tuple(sorted(r.items())) for r in rows)) or original(rows))
        blocks, alive = set(), []
        graded, cousin_block = coboundary._graded_block, coboundary._cousin_block

        def graded_recorded(kept, src, tgt, r_h, e):
            alive.append((src, tgt))  # no id is reused while the run lasts
            blocks.add((id(src), id(tgt), r_h, e))
            return graded(kept, src, tgt, r_h, e)

        def cousin_recorded(*key):
            blocks.add(key)
            return cousin_block(*key)

        monkeypatch.setattr(coboundary, "_graded_block", graded_recorded)
        monkeypatch.setattr(coboundary, "_cousin_block", cousin_recorded)
        _, all_pass = selftest.run_selftest()
        assert all_pass
        assert len(matrices) == len(blocks) == 66
        assert len(set(matrices)) == 45


class TestPinnedWitnesses:
    # sha256 of the text below; back-substitution in Fraction gave the same
    # bytes, since an integral Fraction prints as the int it equals
    PINNED = "f9db8bb184f5536f63f57375ef45c36525bf703f26d9d658eecac6aec97de4c4"

    @staticmethod
    def canonical(witness):
        return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
                   for _, _, _, form in witness.nonzeros() for c in form.terms.values())

    def test_selftest_witnesses_and_verdicts_are_unchanged(self, monkeypatch):
        """The witnesses of the selftest centrality, connection-independence
        and functoriality draws, and the unsolvable verdicts of At^k for
        every corpus complex and k = 1..q, as text."""
        from atkernel import selftest

        lines = []

        def recorded(c):
            report = solve_coboundary(c)
            if report.solvable:
                assert self.canonical(report.witness)
                lines.append(map_to_text(report.witness, "h"))
            else:
                lines.append("unsolvable")
            return report

        monkeypatch.setattr(selftest, "solve_coboundary", recorded)
        for group in ("check_centrality", "check_connection_independence", "check_functoriality"):
            _, passed, total, _ = getattr(selftest, group)()
            assert passed == total
        for entry in corpus_entries():
            at = atiyah_cocycle(build_koszul(entry.ideal).complex)
            for k in range(1, entry.ideal.q + 1):
                assert not recorded(atiyah_power(at, k).chain_map).solvable
        assert len(lines) == 257
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == self.PINNED


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
        assert cx.entry(-1, 0, 0) == parse_poly("x", XY)
        assert cx.entry(-1, 0, 1) == parse_poly("y", XY)

    @pytest.mark.parametrize(
        "items, message",
        [
            ("deg 0: [e]; deg 0: [f]", "degree 0 declared twice"),
            ("deg -1: [g:1]; deg 0: [e]; d(-1) = [[x]]; d(-1) = [[x^2]]", "d(-1) given twice"),
            ("deg 0: [e:1:2]", "got '1:2' in item 'deg 0: [e:1:2]'"),
            ("deg a: [e]", "got 'a' in item 'deg a: [e]'"),
            ("deg 0: [e]; d(b) = [[x]]", "got 'b' in item 'd(b) = [[x]]'"),
            # ASCII digits only, as in ring weights: int() reads all three
            ("deg \u0661: [e]; deg 0: [f]", "got '\u0661' in item 'deg \u0661: [e]'"),
            ("deg 0: [e:\u0662]", "got '\u0662' in item 'deg 0: [e:\u0662]'"),
            ("deg 0: [e]; d(1_0) = [[x]]", "got '1_0' in item 'd(1_0) = [[x]]'"),
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
