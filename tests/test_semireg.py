"""Chern characters, both semiregularity routes, and the second
fundamental form."""
import random
from fractions import Fraction

import pytest

from atkernel import cousin, semireg
from atkernel.atiyah import atiyah_cocycle, atiyah_power
from atkernel.chaincore import (
    MAX_TOTAL_RANK,
    ChainMap,
    ShapeError,
    identity_map,
    is_cocycle,
    map_to_text,
    monomials_of_weighted_degree,
)
from atkernel.corpus import corpus_entries, derivations_for, normal_homs_for
from atkernel.cousin import CousinElement, LocalizedForm, _lf_canonical, cousin_to_text
from atkernel.koszul import RegularSequenceIdeal, _derivation_matrices, build_koszul, index_sets
from atkernel.ladder import (
    _free_module,
    _poly_map,
    connecting_delta,
    delta_dprime_matches_minus_atiyah,
    euler_generator_forms,
    euler_preset,
    hypersurface_ladder,
    second_fundamental_form,
)
from atkernel.polyforms import (
    Form,
    Poly,
    default_names,
    exterior_derivative,
    parse_form,
    parse_poly,
    wedge,
)
from atkernel.semireg import (
    NormalHom,
    bloch_mu,
    chern_character,
    compare_semireg,
    ext1_representative,
    sigma_component,
    tau_atiyah,
)
from oracles import (
    _lf_add,
    connecting_delta_oracle,
    contract_cousin,
    koszul_differential_oracle,
    ladder_verdict_oracle,
    poly_rows,
    second_fundamental_form_oracle,
    split_free_ladder,
    stored_invariant,
)

X = ("x",)
XY = ("x", "y")
XYZ = ("x", "y", "z")


def scale_ladder(q):
    """The sequence x_i^2 in q variables, graded, and the hom x_i on it."""
    ideal = RegularSequenceIdeal(q, tuple(Poly.variable(q, i) ** 2 for i in range(q)), (1,) * q)
    return ideal, NormalHom(ideal, tuple(Poly.variable(q, i) for i in range(q)))


def ideal_of(texts, names, weights=None):
    weights = weights or (1,) * len(names)
    return RegularSequenceIdeal(
        len(names), tuple(parse_poly(t, names) for t in texts), weights
    )


class TestExt1Representative:
    def test_zero_hom_gives_zero_map(self):
        ideal = ideal_of(["x", "y"], XY)
        phi = NormalHom(ideal, (Poly.zero(2), Poly.zero(2)))
        assert ext1_representative(phi, build_koszul(phi.ideal)).is_zero()

    def test_principal(self):
        ideal = ideal_of(["x^2"], X)
        phi = NormalHom(ideal, (Poly.one(1),))
        rep = ext1_representative(phi, build_koszul(phi.ideal))
        assert rep.entry(-1, 0, 0).to_poly() == Poly.one(1)

    def test_derivation_extension_to_top(self):
        ideal = ideal_of(["x", "y"], XY)
        phi = NormalHom(ideal, (Poly.one(2), Poly.zero(2)))
        rep = ext1_representative(phi, build_koszul(phi.ideal))
        assert rep.entry(-1, 0, 0).to_poly() == Poly.one(2)
        assert rep.entry(-1, 0, 1).is_zero()
        # phi(gx ^ gy) = phi1 gy - phi2 gx = gy
        assert rep.entry(-2, 0, 0).is_zero()  # gx coordinate
        assert rep.entry(-2, 1, 0).to_poly() == Poly.one(2)  # gy coordinate

    def test_stored_as_the_public_constructor_stores(self):
        # the trusted map equals the one the validating constructor builds
        # from the same entries, and keeps no zero entry, empty row or
        # empty matrix
        cases = [(["x", "y"], XY, ["0", "0"]), (["x", "y"], XY, ["1", "0"]),
                 (["x", "y^2", "z"], XYZ, ["0", "x", "0"]), (["x", "y^2", "z"], XYZ, ["0"] * 3),
                 (["x^2"], X, ["0"])]
        homs = [NormalHom(ideal_of(seq, names), tuple(parse_poly(v, names) for v in values))
                for seq, names, values in cases]
        homs += [phi for entry in corpus_entries() for phi in normal_homs_for(entry)]
        assert any(not p.terms for phi in homs for p in phi.values)
        for phi in homs:
            kz = build_koszul(phi.ideal)
            mats = {
                i: {t: {s: Form.from_poly(p) for s, p in row.items()} for t, row in mat.items()}
                for i, mat in _derivation_matrices(phi.values).items()
            }
            rep = ext1_representative(phi, kz)
            assert rep == ChainMap(kz.complex, kz.complex, 1, 0, mats)
            assert stored_invariant(rep.mats)
            assert rep.is_zero() == all(not p.terms for p in phi.values)

    def test_is_cocycle_on_the_nose(self):
        for entry in corpus_entries():
            for phi in normal_homs_for(entry):
                assert is_cocycle(ext1_representative(phi, build_koszul(phi.ideal)))

    def test_cocycle_assert_fires_on_each_negated_entry(self, monkeypatch):
        # negating one stored entry v of D adds -2v at one place, whose
        # bracket with d is nonzero for q >= 2: the assert must see it
        ideal, phi = scale_ladder(3)
        kz = build_koszul(ideal)
        stored = [(i, t, s) for i, mat in _derivation_matrices(phi.values).items()
                  for t, row in mat.items() for s in row]
        assert len(stored) == 12
        for i, t, s in stored:
            def negated(values, i=i, t=t, s=s):
                mats = _derivation_matrices(values)
                mats[i][t][s] = -mats[i][t][s]
                return mats

            monkeypatch.setattr(semireg, "_derivation_matrices", negated)
            with pytest.raises(AssertionError, match="^derivation extension failed to be a cocycle$"):
                ext1_representative(phi, kz)


class TestOncePerCall:
    """Work that depends only on the call's arguments is done once per
    call, counted at the call sites on the ladder q = 4."""

    def test_local_trace_looks_up_one_plan_per_stored_degree(self, monkeypatch):
        ideal, _ = scale_ladder(4)
        kz = build_koszul(ideal)
        at2 = atiyah_power(atiyah_cocycle(kz.complex), 2).chain_map
        expected = cousin.local_trace(at2, kz)
        lookups = []
        original = cousin._trace_plan
        monkeypatch.setattr(cousin, "_trace_plan",
                            lambda *key: lookups.append(key) or original(*key))
        assert cousin.local_trace(at2, kz) == expected
        entries = sum(len(row) for mat in at2.mats.values() for row in mat.values())
        assert sorted(lookups) == sorted((4, -i, 2) for i in at2.mats)
        assert len(lookups) == len(at2.mats) == 3 < entries

    def test_bloch_mu_takes_one_exterior_derivative_per_generator(self, monkeypatch):
        _, phi = scale_ladder(4)
        expected = bloch_mu(phi)
        calls = []
        monkeypatch.setattr(semireg, "exterior_derivative",
                            lambda f: calls.append(f) or exterior_derivative(f))
        assert bloch_mu(phi) == expected
        assert calls == list(phi.ideal.polys)

    def test_derivation_matrices_form_at_most_two_polynomials_per_value(self, monkeypatch):
        _, phi = scale_ladder(4)
        made = []
        raw, init = Poly._raw, Poly.__init__
        monkeypatch.setattr(Poly, "_raw", staticmethod(lambda n, t: made.append(t) or raw(n, t)))
        monkeypatch.setattr(Poly, "__init__",
                            lambda self, *a: made.append(a) or init(self, *a))
        got = _derivation_matrices(phi.values)
        monkeypatch.undo()
        assert len(made) <= 2 * len(phi.values)
        entries = 0
        for p in range(1, 5):
            for s, alpha in enumerate(index_sets(4, p)):
                column = {index_sets(4, p - 1)[t]: row[s] for t, row in got[-p].items() if s in row}
                assert column == koszul_differential_oracle(phi.values, alpha)
                entries += len(column)
        assert entries == 32


class TestChernCharacter:
    def test_component_zero_vanishes_for_positive_codim(self):
        assert chern_character(ideal_of(["x", "y"], XY), 0).is_zero()

    def test_top_component_is_fundamental_class_with_one_sign(self):
        # the global sign is +1, fixed by the principal-ideal hand chain
        for entry in corpus_entries():
            ideal = entry.ideal
            num = Form.from_poly(Poly.one(ideal.n))
            for f in ideal.polys:
                num = wedge(num, exterior_derivative(f))
            full = tuple(range(1, ideal.q + 1))
            expected = CousinElement(
                ideal.n,
                ideal.polys,
                ideal.q,
                {full: LocalizedForm(num, 1)} if not num.is_zero() else {},
            )
            assert chern_character(ideal, ideal.q) == expected

    def test_given_complex_is_used_and_must_match(self):
        ideal = ideal_of(["x", "y^2"], XY)
        kz = build_koszul(ideal)
        phi = NormalHom(ideal, (Poly.one(2), Poly.variable(2, 0)))
        assert ext1_representative(phi, kz).source is kz.complex
        other = build_koszul(ideal_of(["x", "y"], XY))
        with pytest.raises(ShapeError, match="different sequence"):
            ext1_representative(phi, other)

    def test_principal_hand_chain(self):
        # At(K(x^2)) = [-d(x^2)]; tracing -At gives (d(x^2))/x^2
        ideal = ideal_of(["x^2"], X)
        got = chern_character(ideal, 1)
        expected = CousinElement(
            1,
            ideal.polys,
            1,
            {(1,): LocalizedForm(parse_form("2*x*dx", X), 1)},
        )
        assert got == expected


class TestBlochMu:
    def test_principal_formula(self):
        ideal = ideal_of(["x^2"], X)
        phi = NormalHom(ideal, (Poly.const(1, 5),))
        mu = bloch_mu(phi)
        assert mu.entries[(1,)] == LocalizedForm(Form.from_poly(Poly.const(1, 5)), 1)

    def test_pair_coordinate_homs(self):
        ideal = ideal_of(["x", "y"], XY)
        mu1 = bloch_mu(NormalHom(ideal, (Poly.one(2), Poly.zero(2))))
        assert mu1.entries[(1, 2)].num == parse_form("dy", XY)
        mu2 = bloch_mu(NormalHom(ideal, (Poly.zero(2), Poly.one(2))))
        assert mu2.entries[(1, 2)].num == parse_form("-dx", XY)


class TestComparison:
    def test_tau_is_mu_on_coordinate_sequences(self):
        """The proof that compare_semireg is always representative-exact.

        Both numerators are sums of phi_i df_K with integer coefficients
        that depend only on q, so f = (x_1..x_q) with the coordinate homs
        e_i settles every sequence and hom of length q; the rank cap
        2^q <= MAX_TOTAL_RANK bounds q."""
        for q in range(1, MAX_TOTAL_RANK.bit_length()):
            ideal = ideal_of([f"x{j}" for j in range(q)], tuple(f"x{j}" for j in range(q)))
            for i in range(q):
                phi = NormalHom(ideal, tuple(Poly.const(q, int(j == i)) for j in range(q)))
                mu = bloch_mu(phi)
                assert tau_atiyah(phi) == mu and not mu.is_zero(), (q, i)

    def test_corpus_agrees(self):
        for entry in corpus_entries():
            for phi in normal_homs_for(entry):
                report = compare_semireg(phi)
                assert report.verdict == "representative-exact"

    def test_zero_hom(self):
        ideal = ideal_of(["x", "y"], XY)
        report = compare_semireg(NormalHom(ideal, (Poly.zero(2), Poly.zero(2))))
        assert report.atiyah_route.is_zero() and report.mu_route.is_zero()

    def test_golden_mixed_weights(self):
        ideal = ideal_of(["x", "y^2"], XY)
        phi = NormalHom(ideal, (parse_poly("y", XY), parse_poly("x", XY)))
        report = compare_semireg(phi)
        assert report.verdict == "representative-exact"
        golden = "(-x*dx + 2*y^2*dy) / (x*y^2)^1 * delta[f1^f2]"
        assert cousin_to_text(report.mu_route, XY) == golden
        assert cousin_to_text(report.atiyah_route, XY) == golden

    def test_changing_hom_by_ideal_element_shifts_output_by_ideal_terms(self):
        ideal = ideal_of(["x", "y"], XY)
        base = NormalHom(ideal, (Poly.one(2), Poly.zero(2)))
        # perturb phi_1 by g = x*h1 + y*h2 with known coefficients
        h1, h2 = parse_poly("y", XY), parse_poly("3", XY)
        g = ideal.polys[0] * h1 + ideal.polys[1] * h2
        shifted = NormalHom(ideal, (base.values[0] + g, base.values[1]))
        expected_num = Form.from_poly(g)
        expected_num = wedge(expected_num, exterior_derivative(ideal.polys[1]))
        full = (1, 2)
        f_full = ideal.polys[0] * ideal.polys[1]
        shifted_lf = bloch_mu(shifted).entries[full]
        base_lf = bloch_mu(base).entries[full]
        summed = _lf_add(base_lf, LocalizedForm(expected_num, 1), f_full)
        assert shifted_lf == _lf_canonical(summed, f_full)


class TestSigma:
    def test_identity_at_top_matches_chern(self):
        for texts, names in ((["x^2"], X), (["x", "y"], XY)):
            ideal = ideal_of(texts, names)
            kz = build_koszul(ideal)
            got = sigma_component(identity_map(kz.complex), kz.q, kz)
            assert got == chern_character(ideal, kz.q)

    def test_zero_cocycle(self):
        ideal = ideal_of(["x", "y"], XY)
        kz = build_koszul(ideal)
        from atkernel.chaincore import zero_map

        assert sigma_component(zero_map(kz.complex, kz.complex, 1, 0), 1, kz).is_zero()

    def test_non_cocycle_refused(self):
        from atkernel.corpus import random_chain_map

        rng = random.Random(41)
        kz = build_koszul(ideal_of(["x", "y"], XY))
        bad = random_chain_map(rng, kz, 1, 0)
        with pytest.raises(ShapeError):
            sigma_component(bad, 1, kz)

    def test_obstruction_route_matches_contracted_chern(self):
        # the contraction of the next chern component agrees with tracing
        # the contracted cocycle against the same power
        for entry in corpus_entries():
            ideal = entry.ideal
            kz = build_koszul(ideal)
            k = ideal.q - 1
            at = atiyah_cocycle(kz.complex)
            for delta in derivations_for(entry)[: ideal.n]:
                from atkernel.atiyah import contract_derivation

                xi = contract_derivation(delta, at.chain_map.scale(-1))
                lhs = sigma_component(xi, k, kz)
                rhs = contract_cousin(delta.values, chern_character(ideal, k + 1))
                assert lhs == rhs


class TestSecondFundamentalForm:
    def test_euler_sigma_is_minus_identity(self):
        for n_proj in (1, 2):
            sigma, _ = euler_preset(n_proj)
            gens = euler_generator_forms(n_proj)
            for s, gen in enumerate(gens):
                assert sigma.entry(0, 0, s) == -gen

    def test_zero_inclusion_gives_zero(self):
        middle = _free_module(2, ["e"], (1, 1))
        j = _poly_map(_free_module(2, ["w"]), middle, [[Poly.zero(2)]])
        p = _poly_map(middle, _free_module(2, ["v"]), [[Poly.one(2)]])
        assert second_fundamental_form(j, p).is_zero()

    def test_hypersurface_sigma_is_df(self):
        f = parse_poly("x^2", X)
        ladder = hypersurface_ladder(f, (1,))
        sigma = second_fundamental_form(ladder.j, ladder.p, ladder.relation)
        assert sigma.entry(0, 0, 0) == exterior_derivative(f)

    def test_p_j_nonzero_refused(self):
        middle = _free_module(1, ["e"], (1,))
        j = _poly_map(_free_module(1, ["w"]), middle, [[parse_poly("x", X)]])
        p = _poly_map(middle, _free_module(1, ["v"]), [[Poly.one(1)]])
        with pytest.raises(ShapeError):
            second_fundamental_form(j, p)

    def test_linearity_over_ring(self):
        # sigma(w . g) = sigma(w) . g given p o j = 0: scaling a generator
        # column by g scales the output column by g plus a term killed by
        # the vanishing of p o j
        sigma, _ = euler_preset(1)
        n = 2
        g = Poly.monomial(n, (1, 1), 2)
        j_scaled = [[entry * g for entry in row] for row in _euler_j(n)]
        sigma_scaled = second_fundamental_form(*_euler_maps(n, j_scaled))
        base = sigma.entry(0, 0, 0)
        scaled = sigma_scaled.entry(0, 0, 0)
        assert scaled == base.mul_poly(g)


def _euler_j(n):
    out = []
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for m in range(n):
        row = []
        for (i, j) in pairs:
            if m == j:
                row.append(Poly.variable(n, i))
            elif m == i:
                row.append(-Poly.variable(n, j))
            else:
                row.append(Poly.zero(n))
        out.append(row)
    return out


def _euler_p(n):
    return [[Poly.variable(n, m) for m in range(n)]]


def _euler_middle(n):
    return _free_module(n, [f"e{i}" for i in range(n)], (1,) * n)


def _euler_maps(n, j_rows):
    """j and p of the Euler sequence over n variables, with j's rows given."""
    middle = _euler_middle(n)
    f_prime = _free_module(n, [f"w{s}" for s in range(len(j_rows[0]))])
    return (_poly_map(f_prime, middle, j_rows),
            _poly_map(middle, _free_module(n, ["v0"]), _euler_p(n)))


def _random_hypersurface(rng, n, graded):
    """A nonzero equation with no constant term: homogeneous of degree 2 or 3
    when graded, else with terms of degrees 1 to 3."""
    deg = rng.choice((2, 3))
    while True:
        terms = {}
        for _ in range(rng.randint(1, 4)):
            d = deg if graded else rng.randint(1, 3)
            expt = rng.choice(monomials_of_weighted_degree(n, (1,) * n, d))
            terms[expt] = Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2)))
        f = Poly(n, terms)
        if not f.is_zero():
            return f


class TestLadderOracle:
    """sigma, delta'' and the verdict, composed as chain maps, against the
    dense loops they replaced (tests/oracles.py)."""

    @staticmethod
    def assert_same(new, old, names):
        assert new == old
        assert map_to_text(new, "m", names) == map_to_text(old, "m", names)

    @pytest.mark.parametrize("n_proj", [1, 2, 3])
    def test_euler_sigma(self, n_proj):
        n = n_proj + 1
        sigma, names = euler_preset(n_proj)
        old = second_fundamental_form_oracle(_euler_j(n), _euler_p(n), _euler_middle(n))
        self.assert_same(sigma, old, names)

    @pytest.mark.parametrize("ranks", [(1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 3)])
    def test_split_free_ladder(self, ranks):
        self.check_ladder(split_free_ladder(*ranks))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("graded", [True, False])
    def test_random_hypersurfaces(self, n, graded):
        rng = random.Random(f"ladder-{n}-{graded}")
        for _ in range(3):
            f = _random_hypersurface(rng, n, graded)
            ladder = hypersurface_ladder(f, (1,) * n if graded else None)
            assert self.check_ladder(ladder) == "exact"

    def check_ladder(self, ladder):
        """Assert both routes agree on the ladder; return the verdict."""
        names = default_names(ladder.n)
        sigma = second_fundamental_form(ladder.j, ladder.p, ladder.relation)
        old_sigma = second_fundamental_form_oracle(
            poly_rows(ladder.j, 0), poly_rows(ladder.p, 0), ladder.j.target, ladder.relation
        )
        self.assert_same(sigma, old_sigma, names)
        delta = connecting_delta(ladder)
        split = {i: min(mat) for i, mat in ladder.iota.mats.items()}
        old_delta = connecting_delta_oracle(
            poly_rows(ladder.p, 0), poly_rows(ladder.pi, 0), ladder.total, split, ladder.p_dprime
        )
        self.assert_same(delta, old_delta, names)
        verdict = delta_dprime_matches_minus_atiyah(ladder, delta)
        assert verdict == ladder_verdict_oracle(
            old_delta, poly_rows(ladder.pi_dprime, 0), ladder.p_dprime
        )
        return verdict


class TestConnectingDelta:
    def test_split_free_gives_zero(self):
        ladder = split_free_ladder(1, 2, 2)
        sigma = second_fundamental_form(ladder.j, ladder.p, ladder.relation)
        assert sigma.is_zero()
        # computed, not short-cut: delta'' depends on the ladder alone
        assert connecting_delta(ladder).is_zero()

    def test_hypersurface_delta_second_cancels_cocycle(self):
        for text, names, weights in (("x^2", X, (1,)), ("x^2 - y*z", XYZ, (1, 1, 1))):
            f = parse_poly(text, names)
            ladder = hypersurface_ladder(f, weights)
            dd = connecting_delta(ladder)
            assert delta_dprime_matches_minus_atiyah(ladder, dd) == "exact"
            assert not ladder.p_prime.diff  # F' free, so delta' vanishes
            assert dd.entry(-1, 0, 0) == exterior_derivative(f)

    @pytest.mark.parametrize("zero", [False, True])
    def test_prime_with_differential_refused(self, zero):
        # delta' = 0 only because F' is free; a resolved F' is refused
        # whether the ladder's sigma is zero (split) or not
        resolved = hypersurface_ladder(parse_poly("x^2", X), (1,)).p_dprime
        assert resolved.diff
        ladder = split_free_ladder(1, 1, 1) if zero else hypersurface_ladder(
            parse_poly("x^2", X), (1,)
        )
        sigma = second_fundamental_form(ladder.j, ladder.p, ladder.relation)
        assert sigma.is_zero() == zero
        ladder.p_prime = resolved
        with pytest.raises(ShapeError, match="free F'"):
            connecting_delta(ladder)
