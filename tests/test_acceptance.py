"""Acceptance criteria, one test each, printing a PASS/FAIL line apiece.

Every assertion is an exact equality over Q; the only tolerances are the
wall-clock budgets stated alongside the timed criteria.
"""
import random
import time

from atkernel.atiyah import atiyah_cocycle, atiyah_power, contract_derivation, obstruction_cocycle
from atkernel.chaincore import compose, shift, shift_map, solve_coboundary
from atkernel.corpus import (
    corpus_entries,
    derivations_for,
    functoriality_pairs,
    graded_random_connection,
    normal_homs_for,
    random_chain_map,
    random_cocycle,
)
from atkernel.cousin import CousinElement, LocalizedForm, local_trace, omega_class
from atkernel.integraldep import MonomialIdeal, closure_member, curvilinear_dim, dim_bound_check
from atkernel.koszul import RegularSequenceIdeal, build_koszul, dual_basis_map
from atkernel.polyforms import Form, Poly, exterior_derivative, parse_poly, wedge
from atkernel.semireg import chern_character, compare_semireg
from oracles import newton_membership_oracle


def report(num, name, ok):
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_01_bloch_comparison():
    total_start = time.monotonic()
    ok = True
    for entry in corpus_entries():
        homs = normal_homs_for(entry)
        assert len(homs) >= 3
        for phi in homs:
            case_start = time.monotonic()
            verdict = compare_semireg(phi).verdict
            elapsed = time.monotonic() - case_start
            ok = ok and verdict in ("representative-exact", "coboundary")
            ok = ok and elapsed < 10.0
    ok = ok and (time.monotonic() - total_start) < 180.0
    report(1, "both semiregularity routes agree on the corpus", ok)


def test_criterion_02_trace_formula():
    ok = True
    cases = (
        (["x^2"], ("x",)),
        (["x", "y"], ("x", "y")),
        (["x", "y", "z"], ("x", "y", "z")),
    )
    for texts, names in cases:
        ideal = RegularSequenceIdeal(
            len(names), tuple(parse_poly(t, names) for t in texts), (1,) * len(names)
        )
        kz = build_koszul(ideal)
        top = tuple(range(1, kz.q + 1))
        traced = local_trace(dual_basis_map(kz, top), kz)
        expected = omega_class(ideal)
        ok = ok and traced == expected
        # bit-exact: the stored representative is literally 1 / f_1..f_q
        lf = traced.entries.get(top)
        ok = ok and lf is not None and lf.m == 1
        ok = ok and lf.num == Form.from_poly(Poly.one(kz.n))
    report(2, "top dual map traces to the canonical fraction", ok)


def test_criterion_03_fundamental_class():
    # global sign +1 is pinned by the principal-ideal hand chain:
    # At(K(f)) = [-df], so tracing (-1) At / 1! gives  +omega . df
    ok = True
    hand = RegularSequenceIdeal(1, (parse_poly("x^2", ("x",)),), (1,))
    hand_expected = CousinElement(
        1,
        hand.polys,
        1,
        {(1,): LocalizedForm(exterior_derivative(hand.polys[0]), 1)},
    )
    ok = ok and chern_character(hand, 1) == hand_expected
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
        ok = ok and chern_character(ideal, ideal.q) == expected
    report(3, "top chern character is the fundamental class, one sign", ok)


def test_criterion_04_commutator_vanishing():
    # exact representative-level vanishing holds for pairs of opposite
    # degree, where the trace is the honest supertrace
    ok = True
    for entry in corpus_entries():
        kz = build_koszul(entry.ideal)
        rng = random.Random(f"acc4:{entry.name}")
        for _ in range(50):
            d = rng.randint(-kz.q, kz.q)
            ku = rng.randint(0, min(1, kz.n))
            kv = rng.randint(0, min(1, kz.n - ku)) if kz.n > ku else 0
            u = random_chain_map(rng, kz, d, ku)
            v = random_chain_map(rng, kz, -d, kv)
            sign = (-1) ** ((d * (-d) + ku * kv) % 2)
            comm = compose(u, v) - compose(v, u).scale(sign)
            ok = ok and local_trace(comm, kz).is_zero()
    report(4, "trace kills graded commutators exactly", ok)


def test_criterion_05_connection_independence_and_functoriality():
    ok = True
    for entry in corpus_entries():
        cx = build_koszul(entry.ideal).complex
        rng = random.Random(f"acc5:{entry.name}")
        base = atiyah_cocycle(cx).chain_map
        for _ in range(20):
            conn = graded_random_connection(rng, cx, internal_degree=rng.choice([1, 2]))
            perturbed = atiyah_cocycle(cx, conn).chain_map
            ok = ok and solve_coboundary(perturbed - base).solvable
    for f, src, tgt in functoriality_pairs():
        at_src = atiyah_cocycle(src.complex)
        at_tgt = atiyah_cocycle(tgt.complex)
        for k in range(1, min(src.q, tgt.q) + 1):
            lhs = compose(f, atiyah_power(at_src, k).chain_map)
            rhs = compose(atiyah_power(at_tgt, k).chain_map, f)
            ok = ok and solve_coboundary(lhs - rhs).solvable
    report(5, "connection independence and functoriality certified", ok)


def test_criterion_06_centrality():
    ok = True
    for entry in corpus_entries():
        kz = build_koszul(entry.ideal)
        rng = random.Random(f"acc6:{entry.name}")
        at = atiyah_cocycle(kz.complex)
        for _ in range(10):
            degree = rng.choice([0, 1])
            xi = random_cocycle(rng, kz, degree)
            for k in range(1, kz.q + 1):
                atk = atiyah_power(at, k).chain_map
                diff = compose(xi, atk) - compose(atk, xi).scale((-1) ** (degree * k))
                ok = ok and solve_coboundary(diff).solvable
    report(6, "powers are central up to certified coboundary", ok)


def test_criterion_07_second_fundamental_form():
    from atkernel.ladder import (
        connecting_delta,
        delta_dprime_matches_minus_atiyah,
        euler_generator_forms,
        euler_preset,
        hypersurface_ladder,
        second_fundamental_form,
    )

    ok = True
    for n_proj in (1, 2):
        sigma, _ = euler_preset(n_proj)
        gens = euler_generator_forms(n_proj)
        mat = sigma.matrix(0)
        for s, gen in enumerate(gens):
            ok = ok and mat[0][s] == -gen
    for text, names, weights in (
        ("x^2", ("x",), (1,)),
        ("x^2 - y*z", ("x", "y", "z"), (1, 1, 1)),
    ):
        f = parse_poly(text, names)
        ladder = hypersurface_ladder(f, weights)
        sigma = second_fundamental_form(
            ladder.j_matrix, ladder.p_matrix, ladder.middle, relations=ladder.relations
        )
        verdict = delta_dprime_matches_minus_atiyah(ladder, sigma)
        ok = ok and verdict in ("exact", "coboundary")
        delta_prime, _ = connecting_delta(ladder, sigma)
        ok = ok and delta_prime.is_zero()  # F' free: its class vanishes
    report(7, "second fundamental form connects to the cocycles", ok)


def test_criterion_08_obstruction_contraction():
    ok = True
    for entry in corpus_entries():
        kz = build_koszul(entry.ideal)
        at = atiyah_cocycle(kz.complex)
        for delta in derivations_for(entry):
            lhs = obstruction_cocycle(kz, delta)
            rhs = contract_derivation(delta, at)  # <delta, -(-1)^1 At>
            ok = ok and lhs == rhs
    report(8, "obstruction bracket equals the contraction, bit-exact", ok)


def test_criterion_09_shift_sign():
    ok = True
    for entry in corpus_entries():
        kz = build_koszul(entry.ideal)
        at = atiyah_cocycle(kz.complex)
        for i in range(-2, 3):
            shifted = shift(kz.complex, i)
            at_shifted = atiyah_cocycle(shifted)
            for k in range(1, kz.q + 1):
                lhs = atiyah_power(at_shifted, k).chain_map
                rhs = shift_map(atiyah_power(at, k).chain_map, i).scale((-1) ** (k * i % 2))
                ok = ok and lhs == rhs
    report(9, "shift twists the cocycle by exactly the predicted sign", ok)


def test_criterion_10_appendix():
    ok = True
    rng = random.Random("acc10")
    queries = 0
    while queries < 200:
        n = rng.randint(2, 3)
        gens = [
            tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(1, 4))
        ]
        gens = [g for g in gens if sum(g) > 0]
        if not gens:
            continue
        ideal = MonomialIdeal.from_exponents(n, gens)
        query = tuple(rng.randint(0, 5) for _ in range(n))
        cert = closure_member(ideal, query)
        ok = ok and cert.verify(ideal)
        ok = ok and cert.verdict == newton_membership_oracle(ideal.gens, query)
        queries += 1
    for _ in range(30):
        n = rng.randint(2, 4)
        gens = [
            tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 4))
        ]
        gens = [g for g in gens if sum(g) > 0]
        if not gens:
            gens = [(2,) + (0,) * (n - 1)]
        ok = ok and dim_bound_check(MonomialIdeal.from_exponents(n, gens)).holds
    principal = MonomialIdeal.from_exponents(2, [(2, 0)])
    ok = ok and curvilinear_dim(principal) == 1
    bound_report = dim_bound_check(principal)
    ok = ok and bound_report.holds and bound_report.dim_quotient == bound_report.bound
    report(10, "closure oracle match, dimension bound, curvilinear dim", ok)


def test_criterion_11_foundations_and_selftest_budget():
    from atkernel.selftest import (
        check_bracket_squared,
        check_cone_identity,
        check_d_squared,
        check_koszul_squares,
        check_leibniz,
        check_roundtrip,
        run_selftest,
    )

    ok = True
    for group, minimum in (
        (check_d_squared, 200),
        (check_leibniz, 200),
        (check_koszul_squares, 20),
        (check_bracket_squared, 100),
        (check_cone_identity, 6),
        (check_roundtrip, 200),
    ):
        name, passed, total = group()
        ok = ok and passed == total and total >= minimum
    start = time.monotonic()
    results, all_pass = run_selftest()
    elapsed = time.monotonic() - start
    ok = ok and all_pass and elapsed < 300.0
    report(11, "foundations randomized suites and selftest budget", ok)
