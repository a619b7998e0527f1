"""Acceptance criteria, one test each, printing a PASS/FAIL line apiece.

Every assertion is an exact equality over Q; the only tolerances are the
wall-clock budgets stated alongside the timed criteria.
"""
import random
import time

from atkernel.corpus import corpus_entries, normal_homs_for
from atkernel.cousin import CousinElement, LocalizedForm, local_trace
from atkernel.integraldep import MonomialIdeal, closure_member, curvilinear_dim, dim_bound_check
from atkernel.koszul import RegularSequenceIdeal, build_koszul
from atkernel.polyforms import Form, Poly, exterior_derivative, parse_poly
from atkernel.selftest import (
    ALL_GROUPS,
    SFF_HYPERSURFACES,
    check_bracket_squared,
    check_centrality,
    check_commutators,
    check_cone_identity,
    check_connection_independence,
    check_d_squared,
    check_functoriality,
    check_fundamental_class,
    check_koszul_squares,
    check_leibniz,
    check_obstruction,
    check_roundtrip,
    check_second_fundamental_form,
    check_shift_sign,
    dual_basis_map,
    omega_class,
    run_selftest,
)
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
            ok = ok and verdict == "representative-exact"
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
    _, passed, total, _ = check_fundamental_class()
    ok = ok and passed == total == 6
    report(3, "top chern character is the fundamental class, one sign", ok)


def test_criterion_04_commutator_vanishing():
    # exact representative-level vanishing holds for pairs of opposite
    # degree, where the trace is the honest supertrace
    _, passed, total, _ = check_commutators(seed="acc4")
    report(4, "trace kills graded commutators exactly", passed == total == 300)


def test_criterion_05_connection_independence_and_functoriality():
    _, conn_passed, conn_total, _ = check_connection_independence(seed="acc5")
    _, func_passed, func_total, _ = check_functoriality()
    ok = conn_passed == conn_total == 120 and func_passed == func_total == 5
    report(5, "connection independence and functoriality certified", ok)


def test_criterion_06_centrality():
    _, passed, total, _ = check_centrality(seed="acc6")
    report(6, "powers are central up to certified coboundary", passed == total == 120)


def test_criterion_07_second_fundamental_form():
    from atkernel.ladder import hypersurface_ladder

    _, passed, total, _ = check_second_fundamental_form()
    ok = passed == total == 6
    # `sff` prints delta_first: 0 without computing it: delta' vanishes
    # because F' is free, which holds when P' has no differential
    for text, names, weights in SFF_HYPERSURFACES:
        ok = ok and not hypersurface_ladder(parse_poly(text, names), weights).p_prime.diff
    report(7, "second fundamental form connects to the cocycles", ok)


def test_criterion_08_obstruction_contraction():
    # bit-exact: obstruction_cocycle == contract_derivation(delta, At)
    _, passed, total, _ = check_obstruction()
    report(8, "obstruction bracket equals the contraction, bit-exact", passed == total == 20)


def test_criterion_09_shift_sign():
    _, passed, total, _ = check_shift_sign()
    report(9, "shift twists the cocycle by exactly the predicted sign", passed == total == 60)


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
    start = time.monotonic()
    results, all_pass = run_selftest()
    elapsed = time.monotonic() - start
    by_group = dict(zip(ALL_GROUPS, results))
    ok = all_pass and elapsed < 300.0
    for group, minimum in (
        (check_d_squared, 200),
        (check_leibniz, 200),
        (check_koszul_squares, 20),
        (check_bracket_squared, 100),
        (check_cone_identity, 6),
        (check_roundtrip, 200),
    ):
        _, passed, total, _ = by_group[group]
        ok = ok and passed == total and total >= minimum
    report(11, "foundations randomized suites and selftest budget", ok)
