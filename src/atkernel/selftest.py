"""Randomized and corpus-wide invariant checks behind `atk selftest` and
the acceptance suite.

Each group function returns (group name, passed, total).  Counts follow
the stated verification matrix; everything is seeded and deterministic.
The acceptance criteria call these same groups; the commutator,
connection and centrality groups take a seed prefix, so the criteria
draw their own cases with the same counts.
"""
from __future__ import annotations

import random

from .atiyah import (
    atiyah_cocycle,
    atiyah_power,
    contract_derivation,
    obstruction_cocycle,
)
from .chaincore import (
    ChainMap,
    complex_to_text,
    compose,
    cone,
    hom_bracket,
    identity_map,
    parse_complex,
    shift,
    shift_map,
    solve_coboundary,
)
from .corpus import (
    corpus_entries,
    derivations_for,
    functoriality_pairs,
    graded_random_connection,
    normal_homs_for,
    random_chain_map,
    random_cocycle,
    random_form,
    random_poly,
)
from .cousin import (
    CousinElement,
    LocalizedForm,
    cousin_coboundary_solve,
    cousin_differential,
    local_trace,
    omega_class,
)
from .integraldep import MonomialIdeal, closure_member, curvilinear_dim, dim_bound_check
from .koszul import (
    RegularSequenceIdeal,
    build_koszul,
    dual_basis_map,
    dual_left_multiplication,
    index_sets,
)
from .ladder import (
    delta_dprime_matches_minus_atiyah,
    euler_preset,
    euler_sigma_is_minus_identity,
    hypersurface_ladder,
)
from .polyforms import (
    Form,
    Poly,
    default_names,
    exterior_derivative,
    form_d,
    form_to_text,
    parse_form,
    parse_poly,
    poly_to_text,
    wedge,
)
from .semireg import chern_character, compare_semireg

Group = tuple[str, int, int]


def check_d_squared() -> Group:
    rng = random.Random("d2")
    ok = 0
    count = 200
    for _ in range(count):
        n = rng.randint(1, 4)
        f = random_poly(rng, n, max_deg=6, terms=4)
        if form_d(exterior_derivative(f)).is_zero():
            ok += 1
    return ("d squared is zero", ok, count)


def check_leibniz() -> Group:
    rng = random.Random("leibniz")
    ok = 0
    count = 200
    for _ in range(count):
        n = rng.randint(1, 4)
        f = random_poly(rng, n, max_deg=4, terms=3)
        g = random_poly(rng, n, max_deg=4, terms=3)
        lhs = exterior_derivative(f * g)
        rhs = exterior_derivative(f).mul_poly(g) + exterior_derivative(g).mul_poly(f)
        if lhs == rhs:
            ok += 1
    return ("exterior derivative Leibniz rule", ok, count)


def check_koszul_squares() -> Group:
    rng = random.Random("koszul-d2")
    ok = 0
    total = 0
    for q in range(1, 6):
        for _ in range(4):
            total += 1
            n = max(q, 3)
            polys = []
            for _ in range(q):
                p = random_poly(rng, n, max_deg=3, terms=2)
                p = p - Poly.const(n, p.constant_term())
                if p.is_zero():
                    p = Poly.variable(n, rng.randrange(n))
                polys.append(p)
            try:
                build_koszul(RegularSequenceIdeal(n, tuple(polys), None))
                ok += 1  # construction validates d o d = 0
            except Exception:
                pass
    return ("koszul differential squares to zero", ok, total)


def check_bracket_squared() -> Group:
    rng = random.Random("bracket2")
    entries = corpus_entries()
    ok = 0
    count = 100
    for case in range(count):
        entry = entries[case % len(entries)]
        kz = build_koszul(entry.ideal)
        degree = rng.choice([-1, 0, 1, 2])
        form_degree = rng.choice([0, 1])
        h = random_chain_map(rng, kz, degree, form_degree)
        if hom_bracket(hom_bracket(h)).is_zero():
            ok += 1
    return ("bracket of bracket vanishes", ok, count)


def cone_homotopy(f: ChainMap) -> ChainMap:
    """h(n, Tn') = (0, -Tn) on cone(f), for a chain endomorphism f of N.

    [d, h] = dh + hd applies f to both summands, so it is the identity,
    and the cone is acyclic in every degree, when f is the identity.
    """
    c = cone(f)
    minus_one = Form.from_poly(Poly.const(c.n, -1))
    # degree i - 1 of the cone is N_{i-1} followed by T N_i
    mats = {
        i: {f.target.rank(i - 1) + s: {s: minus_one} for s in range(f.target.rank(i))}
        for i in c.support()
    }
    return ChainMap(c, c, -1, 0, mats)


def check_cone_identity() -> Group:
    ok = total = 0
    for entry in corpus_entries():
        total += 1
        h = cone_homotopy(identity_map(build_koszul(entry.ideal).complex))
        if hom_bracket(h) == identity_map(h.source):
            ok += 1
    return ("cone of identity is acyclic", ok, total)


def check_roundtrip() -> Group:
    rng = random.Random("roundtrip")
    ok = total = 0
    for _ in range(200):
        total += 1
        n = rng.randint(1, 4)
        if rng.random() < 0.5:
            value = random_poly(rng, n, max_deg=5, terms=4)
            text = poly_to_text(value)
            back = parse_poly(text, default_names(n))
            again = poly_to_text(back)
        else:
            deg = rng.randint(0, min(2, n))
            value = random_form(rng, n, deg, max_deg=3)
            text = form_to_text(value)
            back = parse_form(text, default_names(n))
            again = form_to_text(back)
        if back == value and again == text:
            ok += 1
    for entry in corpus_entries():
        total += 1
        kz = build_koszul(entry.ideal)
        text = complex_to_text(kz.complex, "K", entry.var_names)
        _, parsed, _ = parse_complex(text)
        if parsed == kz.complex and complex_to_text(parsed, "K", entry.var_names) == text:
            ok += 1
    return ("serializer round-trips", ok, total)


def check_shift_bracket() -> Group:
    rng = random.Random("shiftbracket")
    entries = corpus_entries()
    ok = 0
    count = 40
    for case in range(count):
        entry = entries[case % len(entries)]
        kz = build_koszul(entry.ideal)
        i = rng.choice([-2, -1, 1, 2])
        h = random_chain_map(rng, kz, rng.choice([0, 1]), rng.choice([0, 1]))
        lhs = hom_bracket(shift_map(h, i))
        rhs = shift_map(hom_bracket(h), i).scale((-1) ** (i % 2))
        if lhs == rhs:
            ok += 1
    return ("bracket commutes with shift up to sign", ok, count)


def check_dual_basis_bracket() -> Group:
    ok = total = 0
    for entry in corpus_entries():
        if entry.ideal.q > 3:
            continue
        kz = build_koszul(entry.ideal)
        for p in range(0, kz.q):
            for alpha in index_sets(kz.q, p):
                total += 1
                lhs = hom_bracket(dual_basis_map(kz, alpha))
                rhs = dual_left_multiplication(kz, alpha)
                if lhs == rhs:
                    ok += 1
    return ("dual basis bracket is left multiplication", ok, total)


def check_trace_formula() -> Group:
    ok = total = 0
    for entry in corpus_entries():
        if entry.ideal.q < 1:
            continue
        total += 1
        kz = build_koszul(entry.ideal)
        top = tuple(range(1, kz.q + 1))
        traced = local_trace(dual_basis_map(kz, top), kz)
        if traced == omega_class(entry.ideal):
            ok += 1
    return ("top dual map traces to the canonical class", ok, total)


def check_commutators(seed: str = "commutator") -> Group:
    """Supertrace identity at representative level, 50 pairs per complex.

    The trace of a commutator is a literal zero exactly when the factors
    have opposite degrees (elsewhere it is only a coboundary), so the
    pairs are drawn with total degree zero and arbitrary form degrees.
    Each complex draws from its own generator, seeded `<seed>:<name>`.
    """
    ok = total = 0
    for entry in corpus_entries():
        kz = build_koszul(entry.ideal)
        rng = random.Random(f"{seed}:{entry.name}")
        for _ in range(50):
            total += 1
            d = rng.randint(-kz.q, kz.q)
            ku = rng.randint(0, min(1, kz.n))
            kv = rng.randint(0, min(1, kz.n - ku)) if kz.n > ku else 0
            u = random_chain_map(rng, kz, d, ku)
            v = random_chain_map(rng, kz, -d, kv)
            sign = (-1) ** ((d * (-d) + ku * kv) % 2)
            comm = compose(u, v) - compose(v, u).scale(sign)
            if local_trace(comm, kz).is_zero():
                ok += 1
    return ("trace kills graded commutators", ok, total)


def commutator_class_targets(seed: str):
    """Traces of cocycle commutators [u, v] with deg u = 1 and deg v = q - 1,
    10 per complex with q >= 2, each complex seeded `<seed>:<name>`."""
    for entry in corpus_entries():
        kz = build_koszul(entry.ideal)
        if kz.q < 2:
            continue
        rng = random.Random(f"{seed}:{entry.name}")
        for _ in range(10):
            u = random_cocycle(rng, kz, 1)
            v = random_cocycle(rng, kz, kz.q - 1)
            yield local_trace(compose(u, v) - compose(v, u).scale((-1) ** (kz.q - 1)), kz)


def check_commutator_classes() -> Group:
    """Cocycle commutators in top degree trace to Cousin coboundaries."""
    targets = list(commutator_class_targets("commclass"))
    ok = sum(t.is_zero() or cousin_coboundary_solve(t) is not None for t in targets)
    return ("cocycle commutator traces are coboundaries", ok, len(targets))


def check_bloch_comparison() -> Group:
    ok = total = 0
    for entry in corpus_entries():
        for hom in normal_homs_for(entry):
            total += 1
            report = compare_semireg(hom)
            if report.verdict in ("representative-exact", "coboundary"):
                ok += 1
    return ("both semiregularity routes agree", ok, total)


def check_fundamental_class() -> Group:
    ok = total = 0
    for entry in corpus_entries():
        total += 1
        ideal = entry.ideal
        q = ideal.q
        expected = omega_class(ideal)
        num = Form.from_poly(Poly.one(ideal.n))
        for f in ideal.polys:
            num = wedge(num, exterior_derivative(f))
        full = tuple(range(1, q + 1))
        target = CousinElement(
            ideal.n, ideal.polys, q, {full: LocalizedForm(num, 1)} if not num.is_zero() else {}
        )
        if chern_character(ideal, q) == target:
            ok += 1
    return ("top chern character is the fundamental class", ok, total)


def check_obstruction() -> Group:
    ok = total = 0
    for entry in corpus_entries():
        kz = build_koszul(entry.ideal)
        at = atiyah_cocycle(kz.complex)
        for delta in derivations_for(entry):
            total += 1
            lhs = obstruction_cocycle(kz, delta)
            rhs = contract_derivation(delta, at)
            if lhs == rhs:
                ok += 1
    return ("obstruction bracket equals contraction", ok, total)


def check_shift_sign() -> Group:
    ok = total = 0
    for entry in corpus_entries():
        kz = build_koszul(entry.ideal)
        at = atiyah_cocycle(kz.complex)
        for i in range(-2, 3):
            shifted = shift(kz.complex, i)
            at_shifted = atiyah_cocycle(shifted)
            for k in range(1, kz.q + 1):
                total += 1
                lhs = atiyah_power(at_shifted, k).chain_map
                rhs = shift_map(atiyah_power(at, k).chain_map, i).scale((-1) ** (k * i % 2))
                if lhs == rhs:
                    ok += 1
    return ("shift changes the cocycle by the predicted sign", ok, total)


def check_connection_independence(seed: str = "conn") -> Group:
    """20 random connections per complex, seeded as in check_commutators."""
    ok = total = 0
    for entry in corpus_entries():
        kz = build_koszul(entry.ideal)
        rng = random.Random(f"{seed}:{entry.name}")
        base = atiyah_cocycle(kz.complex).chain_map
        for _ in range(20):
            total += 1
            conn = graded_random_connection(rng, kz.complex, internal_degree=rng.choice([1, 2]))
            perturbed = atiyah_cocycle(kz.complex, conn).chain_map
            report = solve_coboundary(perturbed - base)
            if report.solvable:
                ok += 1
    return ("cocycle class ignores the connection", ok, total)


def check_functoriality() -> Group:
    ok = total = 0
    for f, src, tgt in functoriality_pairs():
        at_src = atiyah_cocycle(src.complex)
        at_tgt = atiyah_cocycle(tgt.complex)
        for k in range(1, min(src.q, tgt.q) + 1):
            total += 1
            lhs = compose(f, atiyah_power(at_src, k).chain_map)
            rhs = compose(atiyah_power(at_tgt, k).chain_map, f)
            report = solve_coboundary(lhs - rhs)
            if report.solvable:
                ok += 1
    return ("cocycle is functorial up to coboundary", ok, total)


def check_centrality(seed: str = "central") -> Group:
    """10 random cocycles per complex, seeded as in check_commutators."""
    ok = total = 0
    for entry in corpus_entries():
        kz = build_koszul(entry.ideal)
        rng = random.Random(f"{seed}:{entry.name}")
        at = atiyah_cocycle(kz.complex)
        for _ in range(10):
            degree = rng.choice([0, 1])
            xi = random_cocycle(rng, kz, degree)
            for k in range(1, kz.q + 1):
                total += 1
                atk = atiyah_power(at, k).chain_map
                diff = compose(xi, atk) - compose(atk, xi).scale((-1) ** (degree * k))
                report = solve_coboundary(diff)
                if report.solvable:
                    ok += 1
    return ("powers are central up to coboundary", ok, total)


# (equation, variable names, weights) of the hypersurface ladders checked
SFF_HYPERSURFACES = (
    ("x^2", ("x",), (1,)),
    ("x^2 - y*z", ("x", "y", "z"), (1, 1, 1)),
)


def check_second_fundamental_form() -> Group:
    ok = total = 0
    # Euler data: sigma must be minus the identity on every generator
    for n_proj in (1, 2):
        sigma, _ = euler_preset(n_proj)
        checks = euler_sigma_is_minus_identity(sigma, n_proj)
        total += len(checks)
        ok += sum(checks)
    # hypersurface: connecting image matches minus the resolution cocycle
    for text, names, weights in SFF_HYPERSURFACES:
        total += 1
        ladder = hypersurface_ladder(parse_poly(text, names), weights)
        if delta_dprime_matches_minus_atiyah(ladder) == "exact":
            ok += 1
    return ("second fundamental form connects to the cocycles", ok, total)


def check_appendix_invariants() -> Group:
    rng = random.Random("appendix")
    ok = total = 0
    # fixed examples
    ideal = MonomialIdeal.from_exponents(2, [(2, 0)])
    total += 1
    if curvilinear_dim(ideal) == 1:
        ok += 1
    total += 1
    report = dim_bound_check(ideal)
    if report.holds and report.dim_quotient == 1 and report.bound == 1:
        ok += 1
    # randomized bound corpus
    for _ in range(30):
        total += 1
        n = rng.randint(2, 4)
        gens = []
        for _ in range(rng.randint(1, 4)):
            e = tuple(rng.randint(0, 3) for _ in range(n))
            if sum(e) == 0:
                e = tuple(1 if i == 0 else 0 for i in range(n))
            gens.append(e)
        if dim_bound_check(MonomialIdeal.from_exponents(n, gens)).holds:
            ok += 1
    # probe grid: monotonicity and certificate verification
    base = MonomialIdeal.from_exponents(2, [(3, 0), (0, 3)])
    bigger = MonomialIdeal.from_exponents(2, [(3, 0), (0, 3), (1, 1)])
    for a in [(i, j) for i in range(5) for j in range(5)]:
        total += 1
        small = closure_member(base, a)
        large = closure_member(bigger, a)
        fine = small.verify(base) and large.verify(bigger)
        if small.verdict and not large.verdict:
            fine = False
        if fine:
            ok += 1
    return ("integral closure invariants", ok, total)


def check_cousin_squares() -> Group:
    rng = random.Random("cousin-d2")
    ok = total = 0
    for entry in corpus_entries():
        ideal = entry.ideal
        if ideal.q < 2:
            continue
        for _ in range(10):
            total += 1
            degree = rng.randint(0, ideal.q - 2)
            entries = {}
            for alpha in index_sets(ideal.q, degree):
                if rng.random() < 0.7:
                    entries[alpha] = LocalizedForm(
                        Form.from_poly(random_poly(rng, ideal.n, 2, 2)),
                        rng.randint(0, 2) if alpha else 0,
                    )
            element = CousinElement(ideal.n, ideal.polys, degree, entries)
            if cousin_differential(cousin_differential(element)).is_zero():
                ok += 1
    return ("cousin differential squares to zero", ok, total)


ALL_GROUPS = [
    check_d_squared,
    check_leibniz,
    check_koszul_squares,
    check_bracket_squared,
    check_cone_identity,
    check_roundtrip,
    check_shift_bracket,
    check_dual_basis_bracket,
    check_trace_formula,
    check_commutators,
    check_commutator_classes,
    check_cousin_squares,
    check_bloch_comparison,
    check_fundamental_class,
    check_obstruction,
    check_shift_sign,
    check_connection_independence,
    check_functoriality,
    check_centrality,
    check_second_fundamental_form,
    check_appendix_invariants,
]


def _run_group(group) -> Group:
    """The group's report; a group that raises is one miss that names the
    group function and the exception."""
    try:
        return group()
    except Exception as exc:
        return (f"{group.__name__} raised {type(exc).__name__}: {exc}", 0, 1)


def run_selftest() -> tuple[list[Group], bool]:
    """Run every group in order; one group's exception does not stop the rest."""
    results = [_run_group(g) for g in ALL_GROUPS]
    all_pass = all(passed == total for _, passed, total in results)
    return results, all_pass
