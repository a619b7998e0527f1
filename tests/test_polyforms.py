"""Polynomial and exterior form arithmetic."""
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from oracles import contract_form_oracle, sparse

from atkernel.chaincore import _product, _settle
from atkernel.polyforms import (
    ArityError,
    Form,
    ParseError,
    Poly,
    _form_from_acc,
    _mul_into,
    _poly_from_acc,
    _wedge_into,
    contract_form,
    default_names,
    exterior_derivative,
    form_d,
    form_to_text,
    parse_form,
    parse_poly,
    poly_to_text,
    wedge,
)

XY = ("x", "y")
XYZ = ("x", "y", "z")


def P(text, names=XY):
    return parse_poly(text, names)


@st.composite
def polys(draw, max_arity=4, max_deg=6, max_terms=5):
    n = draw(st.integers(1, max_arity))
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        expt = tuple(draw(st.integers(0, max_deg // 2)) for _ in range(n))
        coeff = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 5)))
        if coeff:
            terms[expt] = coeff
    return Poly(n, terms)


class TestPolyArithmetic:
    def test_product_of_sum_and_difference(self):
        assert P("x + y") * P("x - y") == P("x^2 - y^2")

    def test_zero_annihilates(self):
        assert (Poly.zero(2) * P("x^3 - 2*y")).is_zero()

    def test_arity_mismatch_raises(self):
        with pytest.raises(ArityError):
            P("x") + parse_poly("x", ("x",))

    def test_divmod_exact_and_remainder(self):
        q, r = P("x^3*y + x^2").divmod_single(P("x^2"))
        assert q == P("x*y + 1") and r.is_zero()
        q, r = P("x^2*y + y").divmod_single(P("x^2"))
        assert r == P("y") and q == P("y")
        assert P("x^2*y^3").divmod_single(P("x^2"))[1].is_zero()
        assert not P("x*y").divmod_single(P("x^2"))[1].is_zero()

    @pytest.mark.parametrize(
        "num, den",
        [
            ("x", "3*x"),
            ("x^2*y + 5*y", "2*x"),
            ("x^3 - y^2 + 1", "3*x^2 - 2*y"),
            ("7*x*y^2 + 2/3*x - 1", "4*x*y + 6"),
            ("x^4 + y^4", "-6*x^2 + 4*x*y - 9"),
        ],
    )
    def test_divmod_by_non_monic_integer_divisor(self, num, den):
        f, g = P(num), P(den)
        quot, rem = f.divmod_single(g)
        assert quot * g + rem == f
        for coeff in [*quot.terms.values(), *rem.terms.values()]:
            assert type(coeff) is int or (type(coeff) is Fraction and coeff.denominator > 1)

    def test_divmod_quotient_is_exact(self):
        q, r = P("x").divmod_single(P("3*x"))
        assert q == Poly.const(2, Fraction(1, 3)) and r.is_zero()
        q, r = P("2*x^2 + y").divmod_single(P("4*x"))
        assert q == P("1/2*x") and r == P("y")


def _random(rng, n=2):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        expt = tuple(rng.randint(0, 3) for _ in range(n))
        terms[expt] = terms.get(expt, Fraction(0)) + rng.randint(-4, 4)
    return Poly(n, {e: c for e, c in terms.items() if c})


class TestExteriorDerivative:
    def test_kills_constants(self):
        assert exterior_derivative(Poly.const(2, 5)).is_zero()

    def test_monomial_product_rule(self):
        d = exterior_derivative(P("x^2*y"))
        assert d == parse_form("2*x*y*dx + x^2*dy", XY)

    def test_linearity(self):
        d = exterior_derivative(parse_poly("x^2 - y*z", XYZ))
        assert d == parse_form("2*x*dx - z*dy - y*dz", XYZ)

    @settings(max_examples=100, deadline=None)
    @given(polys())
    def test_d_squared_zero(self, f):
        assert form_d(exterior_derivative(f)).is_zero()

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_leibniz(self, data):
        f = data.draw(polys(max_arity=3))
        g_terms = data.draw(
            st.dictionaries(
                st.tuples(*[st.integers(0, 3)] * f.n),
                st.integers(-6, 6).map(Fraction),
                max_size=4,
            )
        )
        g = Poly(f.n, {e: c for e, c in g_terms.items() if c})
        lhs = exterior_derivative(f * g)
        rhs = exterior_derivative(f).mul_poly(g) + exterior_derivative(g).mul_poly(f)
        assert lhs == rhs


class TestWedge:
    def test_antisymmetry_on_generators(self):
        dx = parse_form("dx", XY)
        dy = parse_form("dy", XY)
        assert wedge(dx, dy) == parse_form("dx^dy", XY)
        assert wedge(dy, dx) == parse_form("-dx^dy", XY)

    def test_square_zero(self):
        dx = parse_form("dx", XY)
        assert wedge(dx, dx).is_zero()

    def test_bilinearity(self):
        a = parse_form("x*dx", XYZ)
        b = parse_form("y*dy + dz", XYZ)
        assert wedge(a, b) == parse_form("x*y*dx^dy + x*dx^dz", XYZ)

    def test_graded_commutativity(self):
        rng = random.Random(1)
        for _ in range(20):
            n = 3
            a = Form(n, 1, {(rng.randrange(n),): _random(rng, n)})
            b = Form(n, 2, {tuple(sorted(rng.sample(range(n), 2))): _random(rng, n)})
            assert wedge(a, b) == wedge(b, a).scale((-1) ** (1 * 2))

    def test_degree_overflow_is_zero(self):
        a = parse_form("dx^dy", XY)
        assert wedge(a, parse_form("dx", XY)).is_zero()

    def test_associativity(self):
        rng = random.Random(2)
        for _ in range(10):
            a = Form(3, 1, {(0,): _random(rng, 3)})
            b = Form(3, 1, {(1,): _random(rng, 3)})
            c = Form(3, 1, {(2,): _random(rng, 3)})
            assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


class TestCanonicalText:
    def test_unit_coefficients_and_first_powers_elided(self):
        assert poly_to_text(P("x^2*y - x + 1/3")) == "x^2*y - x + 1/3"

    def test_form_text(self):
        w = parse_form("x^2*dx^dy - 2*dx^dz", XYZ)
        assert form_to_text(w, XYZ) == "x^2*dx^dy - 2*dx^dz"
        with pytest.raises(ParseError):
            parse_form("x*dx + dy^dz", XYZ)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("dy^dx", "-dx^dy"),
            ("x*dz^dy^dx", "-x*dx^dy^dz"),
            ("dx^dx", "0"),
            ("dy^dx + dx^dy", "0"),
        ],
    )
    def test_out_of_order_wedge_sorts_with_its_sign(self, text, expected):
        assert form_to_text(parse_form(text, XYZ), XYZ) == expected

    def test_whitespace_insensitive(self):
        assert P(" x ^ 2*y-  x ") == P("x^2*y - x")

    @settings(max_examples=150, deadline=None)
    @given(polys())
    def test_roundtrip_poly(self, f):
        text = poly_to_text(f)
        again = parse_poly(text, default_names(f.n))
        assert again == f
        assert poly_to_text(again) == text

    def test_degree_zero_form_roundtrips_to_poly(self):
        f = P("x^2 - y")
        assert Form.from_poly(f).to_poly() == f

    def test_parse_error_position(self):
        with pytest.raises(ParseError):
            parse_poly("x +* y", XY)
        with pytest.raises(ParseError):
            parse_poly("q + 1", XY)

    @pytest.mark.parametrize("text, col", [("x + dx", 5), ("dx^dy - 0*dx + y*dx", 16)])
    def test_mixed_degrees_name_the_offending_term(self, text, col):
        with pytest.raises(ParseError) as exc:
            parse_form(text, XY)
        assert (exc.value.line, exc.value.col) == (1, col)
        # a zero term of another degree is absorbed, not refused
        assert parse_form("0*dx + x", XY) == parse_form("x", XY)

    def test_zero_denominator_is_a_parse_error(self):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_poly("x + 1/0*y", XY)

    def test_parsed_coefficients_are_canonical(self):
        f = P("4/2*x + 3/6*y - 5")
        assert f.terms == {(1, 0): 2, (0, 1): Fraction(1, 2), (0, 0): -5}
        assert [type(c) for c in f.terms.values()] == [int, Fraction, int]


class TestContract:
    def test_interior_product_on_generators(self):
        one = Poly.one(2)
        zero = Poly.zero(2)
        dx = parse_form("dx", XY)
        dy = parse_form("dy", XY)
        assert contract_form([one, zero], dx) == Form.from_poly(one)
        assert contract_form([one, zero], dy).is_zero()

    def test_antisymmetry_of_slots(self):
        one = Poly.one(2)
        zero = Poly.zero(2)
        dxdy = parse_form("dx^dy", XY)
        assert contract_form([one, zero], dxdy) == parse_form("dy", XY)
        assert contract_form([zero, one], dxdy) == parse_form("-dx", XY)

    def test_degree_zero_refused(self):
        with pytest.raises(ValueError):
            contract_form([Poly.one(2), Poly.zero(2)], Form.from_poly(Poly.one(2)))

    def test_value_arity_mismatch_refused(self):
        with pytest.raises(ArityError):
            contract_form([Poly.one(2), Poly.zero(3)], parse_form("dx", XY))


def _rand_poly(rng, n, terms=3, max_exp=2):
    out = {}
    for _ in range(rng.randint(0, terms)):
        expt = tuple(rng.randint(0, max_exp) for _ in range(n))
        out[expt] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return Poly(n, out)


def _rand_form(rng, n, degree):
    combos = list(itertools.combinations(range(n), degree))
    picked = rng.sample(combos, rng.randint(0, len(combos)))
    return Form(n, degree, {idx: _rand_poly(rng, n) for idx in picked})


def assert_canonical_poly(p, n):
    assert p.n == n
    assert p == Poly(p.n, p.terms)
    for expt, coeff in p.terms.items():
        assert type(expt) is tuple and len(expt) == n
        assert all(type(e) is int and e >= 0 for e in expt)
        # one type per value: int when integral, Fraction otherwise
        assert coeff != 0
        if coeff.denominator == 1:
            assert type(coeff) is int
        else:
            assert type(coeff) is Fraction


def assert_canonical_form(w, n, degree):
    assert w.n == n and w.degree == degree
    assert w == Form(w.n, w.degree, w.terms)
    for idx, coeff in w.terms.items():
        assert type(idx) is tuple and len(idx) == degree
        assert not coeff.is_zero()
        assert_canonical_poly(coeff, n)


class TestTrustedResultsAreCanonical:
    """Internal arithmetic builds results without revalidation, so each
    result must already be what the public constructor would make."""

    def test_poly_operations(self):
        rng = random.Random(3)
        for _ in range(300):
            n = rng.randint(1, 3)
            f, g = _rand_poly(rng, n), _rand_poly(rng, n)
            # g - f shares f's support, so sums and products cancel terms
            h = g - f
            results = [f + g, f + h, f + (-f), f - g, -f, f * g, (f + g) * (f - g), f * h]
            results += [f.scale(c) for c in (0, Fraction(1, 2), -3, Fraction(2), Fraction(-4, 2))]
            # halves summed, scaled or multiplied back to integral values
            half = f.scale(Fraction(1, 2))
            results += [half + half, half + f.scale(Fraction(3, 2))]
            results += [half.scale(2), half * Poly.const(n, 2)]
            results += [f.derivative(i) for i in range(n)]
            results += [half.derivative(i) for i in range(n)]
            for r in results:
                assert_canonical_poly(r, n)

    def test_form_operations(self):
        rng = random.Random(4)
        for _ in range(300):
            n = rng.randint(1, 4)
            da, db = rng.randint(0, n), rng.randint(0, n)
            a, a2 = _rand_form(rng, n, da), _rand_form(rng, n, da)
            b = _rand_form(rng, n, db)
            p = _rand_poly(rng, n)
            half = a.scale(Fraction(1, 2))
            for r in (a + a2, a + (a2 - a), a - a, -a, a.scale(0), a.scale(Fraction(-2, 3)),
                      a.scale(Fraction(2)), half.scale(2), half + half):
                assert_canonical_form(r, n, da)
            for r in (a.mul_poly(p), a.mul_poly(Poly.zero(n))):
                assert_canonical_form(r, n, da)
            if da:
                # some values zero, so that slots drop out
                values = [_rand_poly(rng, n) for _ in range(n)]
                c = contract_form(values, a)
                assert_canonical_form(c, n, da - 1)
                assert c == contract_form_oracle(values, a)
            w = wedge(a, b)
            assert_canonical_form(w, n, min(da + db, n))
            if da + db <= n:
                # a ^ b + (-a) ^ b cancels every term
                assert_canonical_form(wedge(a, b) + wedge(-a, b), n, da + db)

    def test_matrix_products(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(1, 3)
            rows, mid, cols = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
            a = [[_rand_poly(rng, n) for _ in range(mid)] for _ in range(rows)]
            b = [[_rand_poly(rng, n) for _ in range(cols)] for _ in range(mid)]
            product = _product({}, sparse(a), sparse(b), _mul_into)
            for row in _settle(product, lambda raw: _poly_from_acc(n, raw)).values():
                for r in row.values():
                    assert_canonical_poly(r, n)
            da, db = rng.randint(0, n), rng.randint(0, n)
            fa = [[_rand_form(rng, n, da) for _ in range(mid)] for _ in range(rows)]
            fb = [[_rand_form(rng, n, db) for _ in range(cols)] for _ in range(mid)]
            out_deg = min(da + db, n)
            product = _product({}, sparse(fa), sparse(fb), _wedge_into)
            for row in _settle(product, lambda raw: _form_from_acc(n, out_deg, raw)).values():
                for w in row.values():
                    assert_canonical_form(w, n, out_deg)


class TestPublicBoundary:
    """The public constructors and operators keep every check."""

    @pytest.mark.parametrize("terms", [{(1,): 1}, {(1, 0, 0): 1}, {(-1, 0): 1}])
    def test_poly_rejects_bad_exponent_vectors(self, terms):
        with pytest.raises(ValueError):
            Poly(2, terms)

    @pytest.mark.parametrize("n", [0, 17])
    def test_poly_rejects_arity_out_of_range(self, n):
        with pytest.raises(ArityError):
            Poly(n, {})

    @pytest.mark.parametrize(
        "degree, idx", [(2, (1, 0)), (2, (0, 0)), (1, (2,)), (1, (-1,)), (2, (0,))]
    )
    def test_form_rejects_bad_index_tuples(self, degree, idx):
        with pytest.raises(ValueError):
            Form(2, degree, {idx: Poly.one(2)})

    def test_form_rejects_degree_out_of_range(self):
        with pytest.raises(ValueError):
            Form(2, 3, {})

    def test_form_rejects_coefficient_arity_mismatch(self):
        with pytest.raises(ArityError):
            Form(2, 1, {(0,): Poly.one(3)})

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Poly(2, {(1, 0): 0.5}),
            lambda: Poly(2, {(1, 0): 2.0}),
            lambda: Poly.const(2, 0.5),
            lambda: Poly.monomial(2, (1, 0), 0.5),
            lambda: P("x + y").scale(0.5),
            # (-1) ** i is a float for negative i
            lambda: P("x + y").scale((-1) ** -1),
            lambda: parse_form("x*dx", XY).scale(0.5),
        ],
    )
    def test_float_coefficients_refused(self, make):
        with pytest.raises(ValueError, match="float"):
            make()

    def test_public_constructors_store_canonical_coefficients(self):
        assert type(Poly.const(2, Fraction(6, 3)).terms[(0, 0)]) is int
        assert type(Poly.monomial(2, (1, 1), Fraction(3)).terms[(1, 1)]) is int
        assert type(Poly(2, {(0, 1): Fraction(1, 2)}).terms[(0, 1)]) is Fraction
        assert Poly.variable(2, 1).terms == {(0, 1): 1}
        assert type(Poly.zero(2).constant_term()) is int

    def test_operators_reject_mixed_arity(self):
        p2, p3 = P("x + y"), parse_poly("x + z", XYZ)
        w2, w3 = parse_form("x*dx", XY), parse_form("y*dz", XYZ)
        for op in (
            lambda: p2 + p3,
            lambda: p2 * p3,
            lambda: p2 - p3,
            lambda: w2 + w3,
            lambda: wedge(w2, w3),
            lambda: w2.mul_poly(p3),
        ):
            with pytest.raises(ArityError):
                op()
