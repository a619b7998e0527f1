"""Randomized and corpus-wide invariant checks behind `atk selftest` and
the acceptance suite.

Each group is a generator that yields one verdict, a bool, per case.
`_group` registers it in ALL_GROUPS in definition order, which is the
run order, and turns it into a function that returns (group name,
verdicts that are True, verdicts, indices of the others).  Counts follow
the stated verification matrix; everything is seeded and deterministic.
The acceptance criteria call these same groups; the commutator,
connection and centrality groups take a seed prefix, so the criteria draw
their own cases with the same counts.
"""
from __future__ import annotations

import functools
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
    connecting_delta,
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

Group = tuple[str, int, int, list[int]]

ALL_GROUPS = []


def _group(name: str):
    """Register a verdict generator as the next selftest group.  Called
    with the generator's arguments, the group returns (name, number of
    verdicts that are True, number of verdicts, indices of the misses)."""

    def register(verdicts):
        @functools.wraps(verdicts)
        def group(*args, **kwargs) -> Group:
            results = list(verdicts(*args, **kwargs))
            misses = [i for i, ok in enumerate(results) if ok is not True]
            return (name, len(results) - len(misses), len(results), misses)

        ALL_GROUPS.append(group)
        return group

    return register


@_group("d squared is zero")
def check_d_squared():
    rng = random.Random("d2")
    for _ in range(200):
        n = rng.randint(1, 4)
        f = random_poly(rng, n, max_deg=6, terms=4)
        yield form_d(exterior_derivative(f)).is_zero()


@_group("exterior derivative Leibniz rule")
def check_leibniz():
    rng = random.Random("leibniz")
    for _ in range(200):
        n = rng.randint(1, 4)
        f = random_poly(rng, n, max_deg=4, terms=3)
        g = random_poly(rng, n, max_deg=4, terms=3)
        lhs = exterior_derivative(f * g)
        yield lhs == exterior_derivative(f).mul_poly(g) + exterior_derivative(g).mul_poly(f)


@_group("koszul differential squares to zero")
def check_koszul_squares():
    rng = random.Random("koszul-d2")
    for q in range(1, 6):
        for _ in range(4):
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
            except Exception:
                yield False
            else:
                yield True  # construction validates d o d = 0


@_group("bracket of bracket vanishes")
def check_bracket_squared():
    rng = random.Random("bracket2")
    entries = corpus_entries()
    for case in range(100):
        kz = build_koszul(entries[case % len(entries)].ideal)
        degree = rng.choice([-1, 0, 1, 2])
        form_degree = rng.choice([0, 1])
        h = random_chain_map(rng, kz, degree, form_degree)
        yield hom_bracket(hom_bracket(h)).is_zero()


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


@_group("cone of identity is acyclic")
def check_cone_identity():
    for entry in corpus_entries():
        h = cone_homotopy(identity_map(build_koszul(entry.ideal).complex))
        yield hom_bracket(h) == identity_map(h.source)


@_group("serializer round-trips")
def check_roundtrip():
    rng = random.Random("roundtrip")
    for _ in range(200):
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
        yield back == value and again == text
    for entry in corpus_entries():
        kz = build_koszul(entry.ideal)
        text = complex_to_text(kz.complex, "K", entry.var_names)
        _, parsed, _ = parse_complex(text)
        yield parsed == kz.complex and complex_to_text(parsed, "K", entry.var_names) == text


@_group("bracket commutes with shift up to sign")
def check_shift_bracket():
    rng = random.Random("shiftbracket")
    entries = corpus_entries()
    for case in range(40):
        kz = build_koszul(entries[case % len(entries)].ideal)
        i = rng.choice([-2, -1, 1, 2])
        h = random_chain_map(rng, kz, rng.choice([0, 1]), rng.choice([0, 1]))
        yield hom_bracket(shift_map(h, i)) == shift_map(hom_bracket(h), i).scale((-1) ** (i % 2))


@_group("dual basis bracket is left multiplication")
def check_dual_basis_bracket():
    for entry in corpus_entries():
        if entry.ideal.q > 3:
            continue
        kz = build_koszul(entry.ideal)
        for p in range(0, kz.q):
            for alpha in index_sets(kz.q, p):
                yield hom_bracket(dual_basis_map(kz, alpha)) == dual_left_multiplication(kz, alpha)


@_group("top dual map traces to the canonical class")
def check_trace_formula():
    for entry in corpus_entries():
        if entry.ideal.q < 1:
            continue
        kz = build_koszul(entry.ideal)
        top = tuple(range(1, kz.q + 1))
        yield local_trace(dual_basis_map(kz, top), kz) == omega_class(entry.ideal)


@_group("trace kills graded commutators")
def check_commutators(seed: str = "commutator"):
    """Supertrace identity at representative level, 50 pairs per complex.

    The trace of a commutator is a literal zero exactly when the factors
    have opposite degrees (elsewhere it is only a coboundary), so the
    pairs are drawn with total degree zero and arbitrary form degrees.
    Each complex draws from its own generator, seeded `<seed>:<name>`.
    """
    for entry in corpus_entries():
        kz = build_koszul(entry.ideal)
        rng = random.Random(f"{seed}:{entry.name}")
        for _ in range(50):
            d = rng.randint(-kz.q, kz.q)
            ku = rng.randint(0, min(1, kz.n))
            kv = rng.randint(0, min(1, kz.n - ku)) if kz.n > ku else 0
            u = random_chain_map(rng, kz, d, ku)
            v = random_chain_map(rng, kz, -d, kv)
            sign = (-1) ** ((d * (-d) + ku * kv) % 2)
            yield local_trace(compose(u, v) - compose(v, u).scale(sign), kz).is_zero()


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


@_group("cocycle commutator traces are coboundaries")
def check_commutator_classes():
    """Cocycle commutators in top degree trace to Cousin coboundaries."""
    for t in commutator_class_targets("commclass"):
        yield t.is_zero() or cousin_coboundary_solve(t) is not None


@_group("cousin differential squares to zero")
def check_cousin_squares():
    rng = random.Random("cousin-d2")
    for entry in corpus_entries():
        ideal = entry.ideal
        if ideal.q < 2:
            continue
        for _ in range(10):
            degree = rng.randint(0, ideal.q - 2)
            entries = {}
            for alpha in index_sets(ideal.q, degree):
                if rng.random() < 0.7:
                    entries[alpha] = LocalizedForm(
                        Form.from_poly(random_poly(rng, ideal.n, 2, 2)),
                        rng.randint(0, 2) if alpha else 0,
                    )
            element = CousinElement(ideal.n, ideal.polys, degree, entries)
            yield cousin_differential(cousin_differential(element)).is_zero()


@_group("both semiregularity routes agree")
def check_bloch_comparison():
    for entry in corpus_entries():
        for hom in normal_homs_for(entry):
            yield compare_semireg(hom).verdict == "representative-exact"


@_group("top chern character is the fundamental class")
def check_fundamental_class():
    for entry in corpus_entries():
        ideal = entry.ideal
        num = Form.from_poly(Poly.one(ideal.n))
        for f in ideal.polys:
            num = wedge(num, exterior_derivative(f))
        full = tuple(range(1, ideal.q + 1))
        target = CousinElement(
            ideal.n, ideal.polys, ideal.q,
            {full: LocalizedForm(num, 1)} if not num.is_zero() else {},
        )
        yield chern_character(ideal, ideal.q) == target


@_group("obstruction bracket equals contraction")
def check_obstruction():
    for entry in corpus_entries():
        kz = build_koszul(entry.ideal)
        at = atiyah_cocycle(kz.complex)
        for delta in derivations_for(entry):
            yield obstruction_cocycle(kz, delta) == contract_derivation(delta, at)


@_group("shift changes the cocycle by the predicted sign")
def check_shift_sign():
    for entry in corpus_entries():
        kz = build_koszul(entry.ideal)
        at = atiyah_cocycle(kz.complex)
        for i in range(-2, 3):
            at_shifted = atiyah_cocycle(shift(kz.complex, i))
            for k in range(1, kz.q + 1):
                lhs = atiyah_power(at_shifted, k).chain_map
                rhs = shift_map(atiyah_power(at, k).chain_map, i).scale((-1) ** (k * i % 2))
                yield lhs == rhs


@_group("cocycle class ignores the connection")
def check_connection_independence(seed: str = "conn"):
    """20 random connections per complex, seeded as in check_commutators."""
    for entry in corpus_entries():
        kz = build_koszul(entry.ideal)
        rng = random.Random(f"{seed}:{entry.name}")
        base = atiyah_cocycle(kz.complex).chain_map
        for _ in range(20):
            conn = graded_random_connection(rng, kz.complex, internal_degree=rng.choice([1, 2]))
            perturbed = atiyah_cocycle(kz.complex, conn).chain_map
            yield solve_coboundary(perturbed - base).solvable


@_group("cocycle is functorial up to coboundary")
def check_functoriality():
    for f, src, tgt in functoriality_pairs():
        at_src = atiyah_cocycle(src.complex)
        at_tgt = atiyah_cocycle(tgt.complex)
        for k in range(1, min(src.q, tgt.q) + 1):
            lhs = compose(f, atiyah_power(at_src, k).chain_map)
            rhs = compose(atiyah_power(at_tgt, k).chain_map, f)
            yield solve_coboundary(lhs - rhs).solvable


@_group("powers are central up to coboundary")
def check_centrality(seed: str = "central"):
    """10 random cocycles per complex, seeded as in check_commutators."""
    for entry in corpus_entries():
        kz = build_koszul(entry.ideal)
        rng = random.Random(f"{seed}:{entry.name}")
        at = atiyah_cocycle(kz.complex)
        for _ in range(10):
            degree = rng.choice([0, 1])
            xi = random_cocycle(rng, kz, degree)
            for k in range(1, kz.q + 1):
                atk = atiyah_power(at, k).chain_map
                diff = compose(xi, atk) - compose(atk, xi).scale((-1) ** (degree * k))
                yield solve_coboundary(diff).solvable


# (equation, variable names, weights) of the hypersurface ladders checked
SFF_HYPERSURFACES = (
    ("x^2", ("x",), (1,)),
    ("x^2 - y*z", ("x", "y", "z"), (1, 1, 1)),
)


@_group("second fundamental form connects to the cocycles")
def check_second_fundamental_form():
    # Euler data: sigma must be minus the identity on every generator
    for n_proj in (1, 2):
        sigma, _ = euler_preset(n_proj)
        yield from euler_sigma_is_minus_identity(sigma, n_proj)
    # hypersurface: connecting image matches minus the resolution cocycle
    for text, names, weights in SFF_HYPERSURFACES:
        ladder = hypersurface_ladder(parse_poly(text, names), weights)
        yield delta_dprime_matches_minus_atiyah(ladder, connecting_delta(ladder)) == "exact"


@_group("integral closure invariants")
def check_appendix_invariants():
    rng = random.Random("appendix")
    # fixed examples
    ideal = MonomialIdeal.from_exponents(2, [(2, 0)])
    yield curvilinear_dim(ideal) == 1
    report = dim_bound_check(ideal)
    yield report.holds and report.dim_quotient == 1 and report.bound == 1
    # randomized bound corpus
    for _ in range(30):
        n = rng.randint(2, 4)
        gens = []
        for _ in range(rng.randint(1, 4)):
            e = tuple(rng.randint(0, 3) for _ in range(n))
            if sum(e) == 0:
                e = tuple(1 if i == 0 else 0 for i in range(n))
            gens.append(e)
        yield dim_bound_check(MonomialIdeal.from_exponents(n, gens)).holds
    # probe grid: monotonicity and certificate verification
    base = MonomialIdeal.from_exponents(2, [(3, 0), (0, 3)])
    bigger = MonomialIdeal.from_exponents(2, [(3, 0), (0, 3), (1, 1)])
    for a in [(i, j) for i in range(5) for j in range(5)]:
        small = closure_member(base, a)
        large = closure_member(bigger, a)
        monotone = not (small.verdict and not large.verdict)
        yield small.verify(base) and large.verify(bigger) and monotone


def _run_group(group) -> Group:
    """The group's report; a group that raises is one miss, with no index,
    that names the group function and the exception."""
    try:
        return group()
    except Exception as exc:
        return (f"{group.__name__} raised {type(exc).__name__}: {exc}", 0, 1, [])


def run_selftest() -> tuple[list[Group], bool]:
    """Run every group in order; one group's exception does not stop the rest."""
    results = [_run_group(g) for g in ALL_GROUPS]
    all_pass = all(passed == total for _, passed, total, _ in results)
    return results, all_pass
