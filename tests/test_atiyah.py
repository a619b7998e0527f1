"""Atiyah cocycles, powers, contractions, and the obstruction bracket."""
import random
from fractions import Fraction
from math import comb, factorial

import pytest

from atkernel import atiyah, cousin
from atkernel.atiyah import (
    AtiyahCocycle,
    ConnectionSpec,
    DerivationSpec,
    atiyah_cocycle,
    atiyah_power,
    contract_derivation,
    obstruction_cocycle,
)
from atkernel.chaincore import (
    BasisElement,
    FreeComplex,
    ShapeError,
    compose,
    hom_bracket,
    identity_map,
    is_cocycle,
    solve_coboundary,
)
from atkernel.corpus import (corpus_entries, derivations_for, graded_random_connection,
                             random_chain_map)
from atkernel.cousin import local_trace
from atkernel.koszul import RegularSequenceIdeal, build_koszul, index_sets
from atkernel.polyforms import (
    ArityError,
    Form,
    Poly,
    exterior_derivative,
    parse_form,
    parse_poly,
    wedge,
)
from atkernel.semireg import chern_character
from oracles import (
    atiyah_power_closed_form,
    atiyah_power_oracle,
    contract_derivation_oracle,
    local_trace_oracle,
    square_ladder,
)

X = ("x",)
XY = ("x", "y")


def kos(texts, names, weights):
    return build_koszul(
        RegularSequenceIdeal(
            len(names), tuple(parse_poly(t, names) for t in texts), weights
        )
    )


class TestCocycle:
    def test_free_module_has_zero_cocycle(self):
        free = FreeComplex(2, {0: [BasisElement("e")]}, {}, (1, 1))
        assert atiyah_cocycle(free).chain_map.is_zero()

    def test_double_point_matrix(self):
        kz = kos(["x^2"], X, (1,))
        at = atiyah_cocycle(kz.complex).chain_map
        assert at.entry(-1, 0, 0) == parse_form("-2*x*dx", X)

    def test_two_variable_matrix(self):
        kz = kos(["x", "y"], XY, (1, 1))
        at = atiyah_cocycle(kz.complex).chain_map
        assert at.entry(-1, 0, 0) == parse_form("-dx", XY)
        assert at.entry(-1, 0, 1) == parse_form("-dy", XY)

    def test_always_a_cocycle(self):
        for entry in corpus_entries():
            kz = build_koszul(entry.ideal)
            at = atiyah_cocycle(kz.complex)
            for k in range(1, kz.q + 1):
                assert is_cocycle(atiyah_power(at, k).chain_map)

    def test_negated_entrywise_derivative_of_differential(self):
        for entry in corpus_entries():
            cx = build_koszul(entry.ideal).complex
            at = atiyah_cocycle(cx).chain_map
            for i in cx.support():
                for t in range(cx.rank(i + 1)):
                    for s in range(cx.rank(i)):
                        assert at.entry(i, t, s) == -exterior_derivative(cx.entry(i, t, s))


class TestPowers:
    def test_power_zero_is_identity(self):
        kz = kos(["x", "y"], XY, (1, 1))
        at = atiyah_cocycle(kz.complex)
        from atkernel.chaincore import identity_map

        assert atiyah_power(at, 0).chain_map == identity_map(kz.complex)

    def test_vanishes_beyond_length(self):
        kz = kos(["x", "y"], XY, (1, 1))
        at = atiyah_cocycle(kz.complex)
        assert atiyah_power(at, 3).chain_map.is_zero()

    def test_zero_beyond_length_matches_composition(self):
        # q = 1 < n = 2 for x^2, q = n = 2 for (x, y); with a perturbed
        # connection too, the short cut must equal the k-fold composition
        rng = random.Random(5)
        for texts in (["x^2"], ["x", "y"]):
            kz = kos(texts, XY, (1, 1))
            for conn in (None, graded_random_connection(rng, kz.complex, internal_degree=1)):
                at = atiyah_cocycle(kz.complex, conn)
                acc = at.chain_map
                for k in range(2, 5):
                    acc = compose(at.chain_map, acc)
                    power = atiyah_power(at, k)
                    assert power.chain_map == acc and acc.is_zero() == (k > kz.q)
                    assert power.chain_map.form_degree == acc.form_degree
                    assert power.power == k

    def test_huge_power_is_immediate(self):
        at = atiyah_cocycle(kos(["x", "y"], XY, (1, 1)).complex)
        power = atiyah_power(at, 10**8)
        assert power.chain_map.is_zero() and power.chain_map.degree == 10**8

    def test_component_on_codim_one_layer(self):
        # top-but-one source: gamma with one index removed maps to
        # (-1)^{binom(q,2)} 1 (x) (df wedge with that slot removed)
        for texts, names, weights in ((["x", "y"], XY, (1, 1)), (["x", "y", "z"], ("x", "y", "z"), (1, 1, 1))):
            kz = kos(texts, names, weights)
            q = kz.q
            power = atiyah_power(atiyah_cocycle(kz.complex), q - 1).chain_map.scale(
                1 / __import__("fractions").Fraction(factorial(q - 1))
            )
            dfs = [exterior_derivative(f) for f in kz.ideal.polys]
            for col, alpha in enumerate(index_sets(q, q - 1)):
                (missing,) = [i for i in range(1, q + 1) if i not in alpha]
                expected = Form.from_poly(Poly.const(kz.n, (-1) ** comb(q, 2)))
                for j in range(1, q + 1):
                    if j != missing:
                        expected = wedge(expected, dfs[j - 1])
                assert power.entry(-(q - 1), 0, col) == expected

    def test_component_on_top_layer(self):
        # the top gamma maps to the signed sum of gamma_i (x) df-hat-i;
        # the global sign is opposite to the codim-one display's companion
        for texts, names, weights in ((["x", "y"], XY, (1, 1)), (["x", "y", "z"], ("x", "y", "z"), (1, 1, 1))):
            kz = kos(texts, names, weights)
            q = kz.q
            from fractions import Fraction

            power = atiyah_power(atiyah_cocycle(kz.complex), q - 1).chain_map.scale(
                Fraction(1, factorial(q - 1))
            )
            dfs = [exterior_derivative(f) for f in kz.ideal.polys]
            for row in range(q):
                i = row + 1
                expected = Form.from_poly(
                    Poly.const(kz.n, -((-1) ** (comb(q - 1, 2) + i)))
                )
                for j in range(1, q + 1):
                    if j != i:
                        expected = wedge(expected, dfs[j - 1])
                assert power.entry(-q, row, 0) == expected


def _top_power(cx):
    """min(length, n): the largest k for which At^k is composed."""
    support = cx.support()
    return min(support[-1] - support[0], cx.n)


def _fresh_complex(ideal):
    """The Koszul complex of an equal ideal that has none built yet."""
    return build_koszul(RegularSequenceIdeal(ideal.n, ideal.polys, ideal.var_weights)).complex


class TestPowerLadder:
    """Powers read from the cocycle's kept powers equal fresh compositions."""

    @pytest.mark.parametrize("order", ["ascending", "largest_first"])
    @pytest.mark.parametrize("connection", ["basis", "random"])
    def test_matches_oracle_on_corpus(self, order, connection):
        rng = random.Random(11)
        for entry in corpus_entries():
            cx = _fresh_complex(entry.ideal)
            top = _top_power(cx)
            conn = None if connection == "basis" else graded_random_connection(rng, cx, 1)
            at = atiyah_cocycle(cx, conn)
            ks = list(range(top + 2))
            for k in ks if order == "ascending" else ks[::-1]:
                power = atiyah_power(at, k)
                expected = atiyah_power_oracle(at, k)
                assert power.chain_map == expected and power.power == k
                assert power.chain_map.form_degree == expected.form_degree
            assert sorted(at._powers) == list(range(2, top + 1))

    @pytest.mark.parametrize("order", ["ascending", "largest_first"])
    def test_chern_character_traces_power_of_negated_cocycle(self, order):
        for entry in corpus_entries():
            ideal = RegularSequenceIdeal(entry.ideal.n, entry.ideal.polys, entry.ideal.var_weights)
            kz = build_koszul(ideal)
            at = atiyah_cocycle(kz.complex)
            negated = AtiyahCocycle(at.chain_map.scale(-1), 1)
            ks = list(range(_top_power(kz.complex) + 2))
            for k in ks if order == "ascending" else ks[::-1]:
                power = atiyah_power_oracle(negated, k).scale(Fraction(1, factorial(k)))
                assert chern_character(ideal, k) == local_trace(power, kz)

    def test_one_basis_cocycle_per_complex(self):
        cx = kos(["x", "y"], XY, (1, 1)).complex
        assert atiyah_cocycle(cx) is atiyah_cocycle(cx)
        other = _fresh_complex(kos(["x", "y"], XY, (1, 1)).ideal)
        assert other == cx and atiyah_cocycle(other) is not atiyah_cocycle(cx)
        explicit = ConnectionSpec(cx)
        assert atiyah_cocycle(cx, explicit) is not atiyah_cocycle(cx, explicit)
        assert atiyah_cocycle(cx, explicit).chain_map == atiyah_cocycle(cx).chain_map

    def test_power_composed_once(self, monkeypatch):
        at = atiyah_cocycle(kos(["x", "y", "z"], ("x", "y", "z"), (1, 1, 1)).complex)
        first = atiyah_power(at, 3).chain_map
        monkeypatch.setattr(atiyah, "compose", None)
        assert atiyah_power(at, 3).chain_map is first
        assert atiyah_power(at, 2).chain_map is at._powers[2]

    @pytest.mark.parametrize("k", [2, 4])
    def test_power_of_a_power_refused(self, k):
        at = atiyah_cocycle(kos(["x", "y", "z"], ("x", "y", "z"), (1, 1, 1)).complex)
        with pytest.raises(ShapeError, match="degree-1 cocycle"):
            atiyah_power(atiyah_power(at, 2), k)

    def test_huge_power_keeps_the_ladder(self, monkeypatch):
        at = atiyah_cocycle(kos(["x", "y"], XY, (1, 1)).complex)
        atiyah_power(at, 2)
        kept = dict(at._powers)
        monkeypatch.setattr(atiyah, "compose", None)
        power = atiyah_power(at, 10**8)
        assert power.chain_map.is_zero() and power.chain_map.form_degree == 2
        assert at._powers == kept


class TestConnections:
    def test_perturbation_changes_cocycle_by_bracket(self):
        rng = random.Random(21)
        for entry in corpus_entries()[:3]:
            cx = build_koszul(entry.ideal).complex
            conn = graded_random_connection(rng, cx, internal_degree=1)
            base = atiyah_cocycle(cx).chain_map
            perturbed = atiyah_cocycle(cx, conn).chain_map
            assert perturbed - base == hom_bracket(conn.perturbation)
            assert is_cocycle(perturbed)

    def test_difference_is_certified_coboundary(self):
        rng = random.Random(22)
        cx = build_koszul(corpus_entries()[1].ideal).complex
        conn = graded_random_connection(rng, cx, internal_degree=2)
        diff = atiyah_cocycle(cx, conn).chain_map - atiyah_cocycle(cx).chain_map
        assert solve_coboundary(diff).solvable

    def test_wrong_complex_refused(self):
        cx = build_koszul(corpus_entries()[1].ideal).complex
        other = build_koszul(corpus_entries()[0].ideal).complex
        with pytest.raises(ShapeError):
            atiyah_cocycle(cx, ConnectionSpec(other))


class TestContraction:
    def test_at_of_double_point(self):
        kz = kos(["x^2"], X, (1,))
        at = atiyah_cocycle(kz.complex)
        xi = DerivationSpec((Poly.one(1),))
        contracted = contract_derivation(xi, at)
        assert contracted.entry(-1, 0, 0).to_poly() == parse_poly("-2*x", X)

    def test_refuses_form_degree_zero(self):
        kz = kos(["x^2"], X, (1,))
        xi = DerivationSpec((Poly.one(1),))
        with pytest.raises(ShapeError):
            contract_derivation(xi, contract_derivation(xi, atiyah_cocycle(kz.complex)))

    # contract_form is a trusted kernel: contract_derivation checks its input
    def test_degree_zero_refused(self):
        kz = kos(["x", "y"], XY, (1, 1))
        xi = DerivationSpec((Poly.one(2), Poly.zero(2)))
        with pytest.raises(ShapeError):
            contract_derivation(xi, identity_map(kz.complex))

    def test_value_arity_mismatch_refused(self):
        kz = kos(["x", "y"], XY, (1, 1))
        xi = DerivationSpec((Poly.one(2), Poly.zero(3)))
        with pytest.raises(ArityError):
            contract_derivation(xi, atiyah_cocycle(kz.complex))

    def test_leibniz_on_wedges(self):
        # <xi, a^b> = <xi,a>^b + (-1)^{deg a} a^<xi,b> on coefficients
        from atkernel.polyforms import contract_form

        rng = random.Random(23)
        checked = 0
        while checked < 30:
            n = 3
            values = [
                Poly.monomial(n, tuple(rng.randint(0, 1) for _ in range(n)), rng.randint(-2, 2))
                for _ in range(n)
            ]
            a = Form(n, 1, {(rng.randrange(n),): Poly.one(n)})
            b = Form(n, rng.choice([1, 2]), {})
            if b.degree == 1:
                b = Form(n, 1, {(rng.randrange(n),): Poly.one(n)})
            else:
                idx = tuple(sorted(rng.sample(range(n), 2)))
                b = Form(n, 2, {idx: Poly.one(n)})
            ab = wedge(a, b)
            if ab.is_zero():
                continue
            lhs = contract_form(values, ab)
            rhs = wedge(contract_form(values, a), b) - wedge(a, contract_form(values, b))
            assert lhs == rhs
            checked += 1


class TestObstruction:
    def test_zero_derivation(self):
        kz = kos(["x^2"], X, (1,))
        delta = DerivationSpec((Poly.zero(1),))
        assert obstruction_cocycle(kz, delta).is_zero()

    def test_double_point(self):
        kz = kos(["x^2"], X, (1,))
        delta = DerivationSpec((Poly.one(1),))
        ob = obstruction_cocycle(kz, delta)
        assert ob.entry(-1, 0, 0).to_poly() == parse_poly("-2*x", X)
        assert ob == contract_derivation(delta, atiyah_cocycle(kz.complex))

    def test_two_variables_coordinate_derivation(self):
        kz = kos(["x", "y"], XY, (1, 1))
        delta = DerivationSpec((Poly.one(2), Poly.zero(2)))
        ob = obstruction_cocycle(kz, delta)
        assert ob.entry(-1, 0, 0).to_poly() == Poly.const(2, -1)
        assert ob.entry(-1, 0, 1).is_zero()

    def test_matches_contraction_on_corpus(self):
        from atkernel.corpus import derivations_for

        for entry in corpus_entries():
            kz = build_koszul(entry.ideal)
            at = atiyah_cocycle(kz.complex)
            for delta in derivations_for(entry):
                assert obstruction_cocycle(kz, delta) == contract_derivation(delta, at)


def _koszul_family():
    """(name, Koszul complex, derivations) for every corpus entry, then for
    the x_i^2 ladder with q <= 6 and a seeded derivation of degree <= 1."""
    family = [(entry.name, build_koszul(entry.ideal), derivations_for(entry))
              for entry in corpus_entries()]
    for q in range(1, 7):
        rng = random.Random(f"ladder:{q}")
        values = tuple(Poly.monomial(q, [rng.randint(0, 1) * (j == i) for j in range(q)],
                                     rng.randint(1, 3)) for i in range(q))
        family.append((f"ladder{q}", build_koszul(square_ladder(q)), [DerivationSpec(values)]))
    return family


def _objects(u):
    """The distinct entry objects of a map, by id."""
    return {id(f): f for *_, f in u.nonzeros()}


class TestSharedEntries:
    """Each kept Atiyah power holds one object per distinct entry value, and
    the contraction and the trace do their work once per object."""

    def test_powers_equal_the_closed_form(self):
        """At^k = (-1)^k k! sum_{|I|=k} df_I ^ iota_I for every k, zero and
        past the length included: the formula that bounds the distinct entries."""
        for name, kz, _ in _koszul_family():
            at = atiyah_cocycle(kz.complex)
            for k in range(kz.q + 2):
                assert atiyah_power(at, k).chain_map == atiyah_power_closed_form(kz, k), (name, k)

    def test_one_object_per_distinct_entry_value(self):
        for name, kz, _ in _koszul_family():
            at = atiyah_cocycle(kz.complex)
            for k in range(1, kz.q + 1):
                u = atiyah_power(at, k).chain_map
                values = {f for *_, f in u.nonzeros()}
                assert len(_objects(u)) == len(values) <= 2 * comb(kz.q, k), (name, k)
        # ladder q = 6, k = 1: 6 * 2^5 entries -2 x_i dx_i and, for i > 1, 2 x_i dx_i
        u = atiyah_cocycle(build_koszul(square_ladder(6)).complex).chain_map
        assert (sum(1 for _ in u.nonzeros()), len(_objects(u))) == (192, 11)

    def test_one_contraction_per_distinct_entry_object(self, monkeypatch):
        calls = []
        original = atiyah.contract_form
        monkeypatch.setattr(atiyah, "contract_form",
                            lambda values, w: calls.append(id(w)) or original(values, w))
        for name, kz, derivations in _koszul_family():
            at = atiyah_cocycle(kz.complex)
            for k in range(1, kz.q + 1):
                u = atiyah_power(at, k).chain_map
                fresh = u.scale(1)  # a new object for every entry
                assert len(_objects(fresh)) == sum(1 for _ in fresh.nonzeros())
                for delta in derivations:
                    calls.clear()
                    got = contract_derivation(delta, u)
                    assert sorted(calls) == sorted(_objects(u)), (name, k)
                    # equal entries in distinct objects: one call per entry, the same map
                    calls.clear()
                    assert contract_derivation(delta, fresh) == got
                    assert len(calls) == sum(1 for _ in fresh.nonzeros())
                    assert got == contract_derivation_oracle(delta.values, u)

    def test_one_trace_addition_per_target_and_object(self, monkeypatch):
        """local_trace adds each entry object once into each delta f_{alpha minus
        beta} that it reaches with a nonzero summed sign, and equals the
        entry-by-entry oracle whether entries are shared or not."""
        calls = []
        original = cousin._add_into
        monkeypatch.setattr(cousin, "_add_into",
                            lambda acc, w, times: calls.append((id(w), times)) or original(acc, w, times))
        for name, kz, _ in _koszul_family():
            at = atiyah_cocycle(kz.complex)
            for k in range(1, kz.q + 1):
                u = atiyah_power(at, k).chain_map
                calls.clear()
                got, added = local_trace(u, kz), list(calls)
                plans = {i: cousin._trace_plan(kz.q, -i, k) for i in u.mats}
                reads = {(plans[i][t, s][0], id(f)) for i, t, s, f in u.nonzeros() if (t, s) in plans[i]}
                assert len(added) <= len(reads) and all(times for _, times in added), (name, k)
                assert got == local_trace_oracle(u, kz) == local_trace(atiyah_power_oracle(at, k), kz)
        # the ladder's top power is one entry, read once
        assert len(added) == 1

    def test_unshared_inputs_agree_with_the_oracles(self):
        """Perturbed-connection cocycles, seeded random maps and repeated
        contractions, as `atk --power --derivation` makes, against the
        per-entry contraction and trace."""
        rng = random.Random(38)
        for name, kz, derivations in _koszul_family():
            cx = kz.complex
            maps = [atiyah_cocycle(cx, graded_random_connection(rng, cx, 1)).chain_map]
            maps += [random_chain_map(rng, kz, d, 1) for d in (1, 2)]
            for k in range(2, kz.q + 1):
                maps.append(contract_derivation(derivations[-1], atiyah_power(atiyah_cocycle(cx), k)))
            for u in maps:
                assert local_trace(u, kz) == local_trace_oracle(u, kz), name
                if u.form_degree < 1:
                    continue
                for delta in derivations:
                    once = contract_derivation(delta, u)
                    assert once == contract_derivation_oracle(delta.values, u), name
                    if once.form_degree >= 1 and not once.is_zero():
                        assert (contract_derivation(delta, once)
                                == contract_derivation_oracle(delta.values, once)), name

    def test_kept_powers_are_unchanged_by_contraction_and_trace(self):
        for name, kz, derivations in _koszul_family():
            at = atiyah_cocycle(kz.complex)
            kept = {k: atiyah_power(at, k).chain_map for k in range(1, kz.q + 1)}
            for k, u in kept.items():
                for delta in derivations:
                    local_trace(contract_derivation(delta, u), kz)
                local_trace(u, kz)
                chern_character(kz.ideal, k)
            for k, u in kept.items():
                assert atiyah_power(at, k).chain_map is u
                assert u == atiyah_power_oracle(at, k) == atiyah_power_closed_form(kz, k), (name, k)
