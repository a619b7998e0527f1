"""Seeded case lists for the four workloads.

Every case pairs a call into the library with an expected answer that is
computed another way: a theorem (centrality, connection independence,
functoriality, commutator classes), a known non-class, the direct wedge
formula for the fundamental class, regularity by construction, an
independent exact LP, or output recorded at the commit that defined the
benchmark.

The seed changes coefficients, never shapes.  Each random chain map,
connection and sequence draws its supports (which entries, which
monomials, which degrees) from a fixed stream and only its nonzero
coefficients from the seeded stream, so every seed poses problems of the
same size and the wall time of a pass depends on the program, not on
the draw.

The library is imported inside the builders, so that importing this
module costs nothing and `setup_s` measures the library's own import.
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import oracles

WORKLOADS = ("coboundary", "trace", "guard", "cli")

HERE = Path(__file__).resolve().parent


@dataclass
class Case:
    """One closed-loop request: `run` returns an answer, `expect` gives the
    oracle's answer (computed once, outside the timed region) and `check`
    compares them."""

    name: str
    run: Callable[[], object]
    expect: Callable[[], object]
    check: Callable[[object, object], bool] = lambda got, want: got == want


def build(workload: str, seed: int, workdir: Path | None = None) -> list[Case]:
    if workload == "coboundary":
        return coboundary_cases(seed)
    if workload == "trace":
        return trace_cases(seed)
    if workload == "guard":
        return guard_cases(seed)
    if workload == "cli":
        return cli_cases(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def _const(value):
    return lambda: value


def _monomials(n: int, d: int) -> list[tuple[int, ...]]:
    """Exponent vectors of total degree d in n variables."""
    return [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d]


def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))


# -- coboundary: "is this cocycle a coboundary?" ---------------------------


def _random_map(shape, coef, kz, degree, form_degree):
    """A (not necessarily chain) map of the Koszul complex: supports from
    `shape`, coefficients from `coef`."""
    from atkernel.chaincore import ChainMap
    from atkernel.polyforms import Form, Poly

    cx = kz.complex
    n = cx.n
    slots = list(itertools.combinations(range(n), form_degree))
    mats = {}
    for i in cx.support():
        rows, cols = cx.rank(i + degree), cx.rank(i)
        if rows == 0 or cols == 0:
            continue
        mat = []
        for _ in range(rows):
            row = []
            for _ in range(cols):
                terms = {}
                for idx in shape.sample(slots, min(len(slots), 2)):
                    expt = [0] * n
                    for _ in range(shape.randint(0, 2)):
                        expt[shape.randrange(n)] += 1
                    terms[idx] = Poly.monomial(n, expt, _coeff(coef))
                row.append(Form(n, form_degree, terms))
            mat.append(row)
        mats[i] = mat
    return ChainMap(cx, cx, degree, form_degree, mats)


def _cocycle_parts(shape, coef, kz, degree):
    """Inputs of a random cocycle of the given degree: a map h whose bracket
    is taken, plus (degree 1) normal-hom values or (degree 0) a scalar
    polynomial, as in the corpus's random cocycles."""
    from atkernel.polyforms import Poly

    n = kz.n

    def linear():
        expt = [0] * n
        expt[shape.randrange(n)] = shape.randint(0, 1)
        return Poly.monomial(n, expt, _coeff(coef))

    h = _random_map(shape, coef, kz, degree - 1, 0)
    extra = None
    if degree == 1:
        extra = tuple(linear() for _ in range(kz.q))
    elif degree == 0:
        extra = linear()
    return degree, h, extra


def _cocycle(kz, parts):
    from atkernel.chaincore import ChainMap, hom_bracket
    from atkernel.polyforms import Form, Poly
    from atkernel.semireg import NormalHom, ext1_representative

    degree, h, extra = parts
    out = hom_bracket(h)
    if degree == 1:
        out = out + ext1_representative(NormalHom(kz.ideal, extra), kz)
    elif degree == 0:
        n = kz.n
        mats = {}
        for i in kz.complex.support():
            r = kz.complex.rank(i)
            mats[i] = [[Form.from_poly(extra if a == b else Poly.zero(n)) for b in range(r)]
                       for a in range(r)]
        out = out + ChainMap(kz.complex, kz.complex, 0, 0, mats)
    return out


def _connection(shape, coef, cx, internal_degree):
    """A perturbed connection with homogeneous columns (cf. the corpus's
    graded_random_connection)."""
    from atkernel.atiyah import ConnectionSpec
    from atkernel.chaincore import monomials_of_weighted_degree
    from atkernel.polyforms import Form, Poly

    n, weights = cx.n, cx.var_weights
    columns = {}
    for i in cx.support():
        basis = cx.basis(i)
        r = len(basis)
        mat = [[Form.zero(n, 1) for _ in range(r)] for _ in range(r)]
        nonzero = False
        for t in range(r):
            for s in range(r):
                entry_deg = basis[s].weight - basis[t].weight + internal_degree
                choices = [
                    (v, expt)
                    for v in range(n)
                    for expt in monomials_of_weighted_degree(n, weights, entry_deg - weights[v])
                ]
                if not choices or shape.random() < 0.2:
                    continue
                v, expt = shape.choice(choices)
                mat[t][s] = Form(n, 1, {(v,): Poly.monomial(n, expt, _coeff(coef))})
                nonzero = True
        if nonzero:
            columns[i] = mat
    return ConnectionSpec(cx, columns)


def _centrality(kz, at, parts, k):
    from atkernel.atiyah import atiyah_power
    from atkernel.chaincore import compose, solve_coboundary

    xi = _cocycle(kz, parts)
    atk = atiyah_power(at, k).chain_map
    diff = compose(xi, atk) - compose(atk, xi).scale((-1) ** (parts[0] * k))
    return solve_coboundary(diff).solvable


def _connection_independence(kz, at, conn):
    from atkernel.atiyah import atiyah_cocycle
    from atkernel.chaincore import solve_coboundary

    perturbed = atiyah_cocycle(kz.complex, conn).chain_map
    return solve_coboundary(perturbed - at.chain_map).solvable


def _commutator_class(kz, u_parts, v_parts):
    from atkernel.chaincore import compose
    from atkernel.cousin import cousin_coboundary_solve, local_trace

    u, v = _cocycle(kz, u_parts), _cocycle(kz, v_parts)
    sign = (-1) ** (u_parts[0] * v_parts[0])
    traced = local_trace(compose(u, v) - compose(v, u).scale(sign), kz)
    return traced.is_zero() or cousin_coboundary_solve(traced) is not None


def _functoriality(f, at_src, at_tgt, k):
    from atkernel.atiyah import atiyah_power
    from atkernel.chaincore import compose, solve_coboundary

    lhs = compose(f, atiyah_power(at_src, k).chain_map)
    rhs = compose(atiyah_power(at_tgt, k).chain_map, f)
    return solve_coboundary(lhs - rhs).solvable


def _at_power_class(at, k):
    from atkernel.atiyah import atiyah_power
    from atkernel.chaincore import solve_coboundary

    return solve_coboundary(atiyah_power(at, k).chain_map).solvable


def _at_power_plus_coboundary(at, h, k):
    from atkernel.atiyah import atiyah_power
    from atkernel.chaincore import hom_bracket, solve_coboundary

    return solve_coboundary(atiyah_power(at, k).chain_map + hom_bracket(h)).solvable


def _cousin_search(ideal):
    from atkernel.cousin import cousin_coboundary_solve
    from atkernel.semireg import chern_character

    return cousin_coboundary_solve(chern_character(ideal, ideal.q)) is not None


def coboundary_cases(seed: int) -> list[Case]:
    from atkernel.atiyah import atiyah_cocycle
    from atkernel.corpus import corpus_entries, functoriality_pairs
    from atkernel.koszul import build_koszul

    solvable, unsolvable = _const(True), _const(False)
    cases = []
    entries = corpus_entries()
    for entry in entries:
        kz = build_koszul(entry.ideal)
        at = atiyah_cocycle(kz.complex)
        shape = random.Random(f"shape:coboundary:{entry.name}")
        coef = random.Random(f"{seed}:coboundary:{entry.name}")
        # theorems: At^k is central, connection-independent, and cocycle
        # commutators trace to Cousin coboundaries
        for degree in (0, 1, 2)[: kz.q + 1]:
            parts = _cocycle_parts(shape, coef, kz, degree)
            for k in range(1, kz.q + 1):
                cases.append(Case(f"centrality/{entry.name}/deg{degree}/k{k}",
                                  partial(_centrality, kz, at, parts, k), solvable))
        for index, internal in enumerate((1, 2, 1, 2)):
            conn = _connection(shape, coef, kz.complex, internal)
            cases.append(Case(f"connection/{entry.name}/{index}/d{internal}",
                              partial(_connection_independence, kz, at, conn), solvable))
        if kz.q >= 2:
            for pair in range(2):
                u = _cocycle_parts(shape, coef, kz, 1)
                v = _cocycle_parts(shape, coef, kz, kz.q - 1)
                cases.append(Case(f"commutator/{entry.name}/{pair}",
                                  partial(_commutator_class, kz, u, v), solvable))
        # known non-classes: At^k restricts to the k-th exterior power of the
        # conormal map, which is nonzero for k <= q
        for k in range(1, kz.q + 1):
            cases.append(Case(f"at_power/{entry.name}/k{k}",
                              partial(_at_power_class, at, k), unsolvable))
            # adding a coboundary does not change the class
            h = _random_map(shape, coef, kz, k - 1, k)
            cases.append(Case(f"at_power_plus_coboundary/{entry.name}/k{k}",
                              partial(_at_power_plus_coboundary, at, h, k), unsolvable))
    for index, (f, src, tgt) in enumerate(functoriality_pairs()):
        at_src, at_tgt = atiyah_cocycle(src.complex), atiyah_cocycle(tgt.complex)
        for k in range(1, min(src.q, tgt.q) + 1):
            cases.append(Case(f"functoriality/{index}/k{k}",
                              partial(_functoriality, f, at_src, at_tgt, k), solvable))
    # ch_q is the fundamental class, which is not a Cousin coboundary; the
    # cone sequence is left out because its search alone takes about 70 s
    for entry in entries:
        if entry.name in ("x_y", "x^2_y^3", "x_y_z"):
            cases.append(Case(f"cousin/ch_q/{entry.name}",
                              partial(_cousin_search, entry.ideal), unsolvable))
    return cases


# -- trace: both semiregularity routes, Chern characters, contractions ------


def _ladder(q):
    """x_i^2 in q variables, with the hom x_i."""
    from atkernel.koszul import RegularSequenceIdeal
    from atkernel.polyforms import Poly
    from atkernel.semireg import NormalHom

    ideal = RegularSequenceIdeal(q, tuple(Poly.variable(q, i) ** 2 for i in range(q)), (1,) * q)
    hom = NormalHom(ideal, tuple(Poly.variable(q, i) for i in range(q)))
    return f"ladder{q}", ideal, hom


def _compare(hom):
    from atkernel.semireg import compare_semireg

    report = compare_semireg(hom)
    return report.verdict, report.atiyah_route


def _expect_compare(hom):
    from atkernel.semireg import bloch_mu

    return "representative-exact", bloch_mu(hom)


def _chern(ideal, k):
    from atkernel.semireg import chern_character

    return chern_character(ideal, k)


def _contract_power(at, delta, k):
    from atkernel.atiyah import atiyah_power, contract_derivation

    return contract_derivation(delta, atiyah_power(at, k))


def trace_cases(seed: int) -> list[Case]:
    from atkernel.atiyah import DerivationSpec, atiyah_cocycle
    from atkernel.corpus import corpus_entries, derivations_for, normal_homs_for
    from atkernel.koszul import build_koszul
    from atkernel.polyforms import Poly

    groups = []
    for entry in corpus_entries():
        homs = normal_homs_for(entry, seed=f"{seed}:trace")
        derivs = derivations_for(entry, seed=f"{seed}:trace")
        groups.append((entry.name, entry.ideal, homs, [derivs[0], derivs[-1]]))
    for q in range(1, 7):
        name, ideal, hom = _ladder(q)
        rng = random.Random(f"{seed}:trace:{name}")
        delta = DerivationSpec(tuple(Poly.monomial(q, [0] * q, _coeff(rng)) for _ in range(q)))
        groups.append((name, ideal, [hom], [delta]))
    cases = []
    for name, ideal, homs, derivs in groups:
        kz = build_koszul(ideal)
        at = atiyah_cocycle(kz.complex)
        for i, hom in enumerate(homs):
            cases.append(Case(f"semireg/{name}/{i}", partial(_compare, hom),
                              partial(_expect_compare, hom)))
        for k in range(1, ideal.q + 1):
            cases.append(Case(f"chern/{name}/k{k}", partial(_chern, ideal, k),
                              partial(oracles.chern_expected, ideal, k)))
        for j, delta in enumerate(derivs):
            for k in range(1, ideal.q + 1):
                cases.append(Case(f"contract/{name}/{j}/k{k}",
                                  partial(_contract_power, at, delta, k),
                                  partial(oracles.contraction_expected, kz, delta, k)))
    return cases


# -- guard: the regularity check in front of every Koszul resolution -------

# (variables, degrees) of the seeded sequences that are regular by
# construction, and (variables, cofactor degree) of those that share a
# linear factor.  The mix fixes the cost of a pass, which two fixed cases
# (ladder q = 5 and the cone with w^3) dominate; the (4, 4) pairs form
# the cluster that p90 falls in.
REGULAR_SHAPES = [(2, (2, 2))] * 54 + [(2, (2, 3))] * 16 + [(2, (4, 4))] * 14
SHARED_FACTOR_SHAPES = [(3, 1)] * 10 + [(3, 2)] * 5


def _verify_regular(ideal):
    from atkernel.koszul import verify_regular

    return verify_regular(ideal)


def _poly_from_terms(n, terms):
    from atkernel.polyforms import Poly

    out = Poly.zero(n)
    for expt, c in terms:
        out = out + Poly.monomial(n, expt, c)
    return out


def _regular_by_construction(shape, coef, n, degrees):
    """f_i = x_i^{d_i} + terms of degree d_i in x_i..x_n with x_i-exponent
    below d_i.  Under lex order the leading monomials are powers of
    distinct variables, so the f_i are a Groebner basis of a homogeneous
    complete intersection, hence a regular sequence."""
    polys = []
    for i, d in enumerate(degrees):
        lead = [0] * n
        lead[i] = d
        tails = [
            e for e in _monomials(n, d)
            if all(e[j] == 0 for j in range(i)) and e[i] < d
        ]
        terms = [(tuple(lead), Fraction(1))]
        for e in shape.sample(tails, min(len(tails), 3)):
            terms.append((e, _coeff(coef)))
        polys.append(_poly_from_terms(n, terms))
    return polys


def _shared_factor(shape, coef, n, cofactor_degree):
    """f_1 = l*a, f_2 = l*b for a linear form l: a*f_2 = b*f_1 is a
    syzygy of degree deg f_1 + deg f_2 - 1 that no Koszul relation
    explains, so the sequence is not regular and the guard sees it below
    its degree bound."""
    def form(d):
        monos = _monomials(n, d)
        return _poly_from_terms(n, [(e, _coeff(coef)) for e in shape.sample(monos, min(len(monos), 2))])

    l = form(1)
    return [l * form(cofactor_degree), l * form(cofactor_degree)]


def guard_cases(seed: int) -> list[Case]:
    from atkernel.koszul import RegularSequenceIdeal
    from atkernel.polyforms import parse_poly

    regular, not_regular = _const(True), _const(False)

    def ideal_of(names, texts):
        return RegularSequenceIdeal(len(names), tuple(parse_poly(t, names) for t in texts),
                                    (1,) * len(names))

    cases = []
    for q in range(2, 6):
        name, ideal, _ = _ladder(q)
        cases.append(Case(f"regular/{name}", partial(_verify_regular, ideal), regular))
    cases.append(Case("regular/cone+w^3", partial(_verify_regular, ideal_of(
        ("x", "y", "z", "w"), ["x^2 - y*z", "y^2 - x*z", "w^3"])), regular))
    cases.append(Case("not_regular/xy;xz", partial(_verify_regular, ideal_of(
        ("x", "y", "z"), ["x*y", "x*z"])), not_regular))
    # V(xy, zw, x^2 - w^2) contains the plane x = w = 0, so height < 3
    cases.append(Case("not_regular/xy;zw;x2-w2", partial(_verify_regular, ideal_of(
        ("x", "y", "z", "w"), ["x*y", "z*w", "x^2 - w^2"])), not_regular))
    shape = random.Random("shape:guard")
    coef = random.Random(f"{seed}:guard")
    for i, (n, degrees) in enumerate(REGULAR_SHAPES):
        polys = _regular_by_construction(shape, coef, n, degrees)
        ideal = RegularSequenceIdeal(n, tuple(polys), (1,) * n)
        cases.append(Case(f"regular/seeded{i}", partial(_verify_regular, ideal), regular))
    for i, (n, d) in enumerate(SHARED_FACTOR_SHAPES):
        polys = _shared_factor(shape, coef, n, d)
        ideal = RegularSequenceIdeal(n, tuple(polys), (1,) * n)
        cases.append(Case(f"not_regular/seeded{i}", partial(_verify_regular, ideal), not_regular))
    return cases


# -- cli: fresh `atk` processes ---------------------------------------------

DEMO_SESSION = """\
ring Q[x, y, z]
seq Z = x^2 - y*z ; y^2 - x*z
hom phi on Z = 1 ; 0
hom rho on Z = y ; x
der ddx = x: 1
"""

README_SESSION = """\
ring Q[x, y]
seq Z = x ; y
hom phi on Z = 1 ; 0
"""

NONREGULAR_SESSION = """\
ring Q[x, y, z]
seq B = x*y ; x*z
hom bad on B = 1 ; 0
"""

BAD_SESSION = """\
ring Q[x, x]
seq Z = x
"""

SESSIONS = {
    "demo.sr": DEMO_SESSION,
    "readme.sr": README_SESSION,
    "nonregular.sr": NONREGULAR_SESSION,
    "bad.sr": BAD_SESSION,
}

# the 13 commands of the demo session; stdout recorded in cli_expected.json
DEMO_COMMANDS = [
    ["blochcmp", "--hom", "phi"],
    ["blochcmp", "--hom", "rho"],
    ["ch", "--seq", "Z"],
    ["ch", "--seq", "Z", "--k", "1"],
    ["atk", "--seq", "Z", "--power", "2"],
    ["atk", "--seq", "Z", "--power", "1", "--derivation", "ddx"],
    ["obstruct", "--seq", "Z", "--derivation", "ddx"],
    ["semireg", "--hom", "phi", "--k", "1"],
    ["sff", "--preset", "euler"],
    ["sff", "--preset", "hypersurface:x^2"],
    ["iclosure", "--ideal", "x^3,y^3", "--test", "x^2*y"],
    ["curvdim", "--ideal", "x^2,x*y,y^2"],
    ["dimcheck", "--ideal", "x*y"],
]

# inputs the CLI must refuse with exit 2 and no stdout
REFUSALS = [
    ["ch", "--seq", "B", "--input", "nonregular.sr"],
    ["ch", "--seq", "W", "--input", "demo.sr"],
    ["blochcmp", "--hom", "phi", "--input", "bad.sr"],
    ["atk", "--seq", "Z", "--power", "-1", "--input", "demo.sr"],
    ["iclosure", "--ideal", "x+y", "--test", "x"],
    ["curvdim", "--ideal", "1"],
]

# ROADMAP item 3, reproduced at the commit that defined the benchmark: each
# should exit 2 but does not.  They run only in the report, because the
# timed workloads must be ones on which no operation fails.
KNOWN_DEFECTS = [
    ["blochcmp", "--hom", "bad", "--input", "nonregular.sr"],
    ["iclosure", "--ideal", "x^3,y^3", "--test", "2*x"],
    ["sff", "--preset", "euler:0"],
    ["atk", "--seq", "Z", "--power", "100000000", "--input", "demo.sr"],
]

SESSION_COMMANDS = ("atk", "ch", "semireg", "blochcmp", "obstruct")

# seeded cases: LP-heavy dimcheck/curvdim in 6 variables, blochcmp with
# the corpus's seeded homs, ch (behind the guard) on sequences regular by
# construction (the 3-variable ones sit just below the LP cases, a
# cluster of like cases for p90 to fall in), and iclosure queries in 3
# variables, to 100 cases in all
LP_IDEALS = [("dimcheck", 8), ("curvdim", 8)]
CH_SHAPES = [(2, (2, 2))] * 4 + [(2, (2, 3))] * 4 + [(3, (2, 2))] * 16
CLI_CASES = 100


@dataclass
class CliCase:
    """One `atk` command; answers are (exit code, stdout).  `expect` is
    None for a known defect, whose fix is exit 2."""

    name: str
    argv: list[str]
    expect: Callable[[], tuple[int, str]] | None
    check: Callable[[tuple[int, str], object], bool] = lambda got, want: got == want


def _with_input(argv, session):
    return argv + ["--input", session] if argv[0] in SESSION_COMMANDS else argv


def _monomial_text(expt, names):
    parts = [f"{v}^{e}" if e > 1 else v for v, e in zip(names, expt) if e]
    return "*".join(parts)


def _ideal_text(gens, names):
    return ",".join(_monomial_text(g, names) for g in gens)


def _seeded_monomial_ideal(shape, coef, n, count, degree):
    """`count` distinct monomials of one total degree, so that all are
    minimal generators, and every variable appears.  The fixed stream
    picks supports, the seeded one splits the degree among them."""
    gens = []
    while len(gens) < count:
        support = sorted({len(gens) % n, *shape.sample(range(n), 2)})
        cuts = sorted(coef.sample(range(1, degree), len(support) - 1))
        parts = [b - a for a, b in zip([0, *cuts], [*cuts, degree])]
        expt = [0] * n
        for v, e in zip(support, parts):
            expt[v] = e
        if tuple(expt) not in gens:
            gens.append(tuple(expt))
    return gens


def _session_text(names, weights, polys, homs=()) -> str:
    from atkernel.polyforms import poly_to_text

    ring = ", ".join(f"{v}:{w}" for v, w in zip(names, weights))
    lines = [f"ring Q[{ring}]", "seq S = " + " ; ".join(poly_to_text(f, names) for f in polys)]
    for i, hom in enumerate(homs):
        lines.append(f"hom h{i} on S = " + " ; ".join(poly_to_text(v, names) for v in hom.values))
    return "\n".join(lines) + "\n"


def _expect_blochcmp(hom, names):
    from atkernel.cousin import cousin_to_text
    from atkernel.semireg import bloch_mu

    text = cousin_to_text(bloch_mu(hom), names)
    return 0, f"mu:  {text}\ntau: {text}\nVERDICT: exact\n"


def _expect_ch(ideal, names):
    from atkernel.cousin import cousin_to_text

    return 0, cousin_to_text(oracles.chern_expected(ideal, ideal.q), names) + "\n"


def cli_cases(seed: int, workdir: Path | None) -> list[CliCase]:
    from atkernel.corpus import corpus_entries, normal_homs_for
    from atkernel.koszul import RegularSequenceIdeal

    sessions = dict(SESSIONS)
    recorded = json.loads((HERE / "cli_expected.json").read_text())
    cases = []
    for argv in DEMO_COMMANDS:
        key = " ".join(argv)
        cases.append(CliCase(f"demo/{key}", _with_input(argv, "demo.sr"),
                             _const((0, recorded[key]))))
    # the hand-checkable numbers of the README
    readme_blochcmp = ("mu:  (dy) / (x*y)^1 * delta[f1^f2]\n"
                       "tau: (dy) / (x*y)^1 * delta[f1^f2]\n"
                       "VERDICT: exact\n")
    cases.append(CliCase("readme/blochcmp", ["blochcmp", "--hom", "phi", "--input", "readme.sr"],
                         _const((0, readme_blochcmp))))
    cases.append(CliCase("readme/ch", ["ch", "--seq", "Z", "--input", "readme.sr"],
                         _const((0, "(dx^dy) / (x*y)^1 * delta[f1^f2]\n"))))
    for argv in REFUSALS:
        cases.append(CliCase(f"refuse/{' '.join(argv)}", argv, _const((2, ""))))
    shape = random.Random("shape:cli")
    coef = random.Random(f"{seed}:cli")
    names6 = tuple(f"x{i + 1}" for i in range(6))
    for command, count in LP_IDEALS:
        gens = _seeded_monomial_ideal(shape, coef, 6, count, 6)
        argv = [command, "--ideal", _ideal_text(gens, names6)]
        cases.append(CliCase(f"lp/{command}", argv, partial(oracles.cli_lp_expected, command, gens)))
    for e, entry in enumerate(corpus_entries()):
        homs = normal_homs_for(entry, seed=f"{seed}:cli")
        session = f"seeded_homs{e}.sr"
        sessions[session] = _session_text(entry.var_names, entry.ideal.var_weights,
                                          entry.ideal.polys, homs)
        for i, hom in enumerate(homs):
            cases.append(CliCase(f"blochcmp/{entry.name}/{i}",
                                 ["blochcmp", "--hom", f"h{i}", "--input", session],
                                 partial(_expect_blochcmp, hom, entry.var_names)))
    for i, (n, degrees) in enumerate(CH_SHAPES):
        polys = _regular_by_construction(shape, coef, n, degrees)
        names = ("x", "y", "z")[:n]
        session = f"seeded_seq{i}.sr"
        sessions[session] = _session_text(names, (1,) * n, polys)
        ideal = RegularSequenceIdeal(n, tuple(polys), (1,) * n)
        cases.append(CliCase(f"ch/seeded{i}", ["ch", "--seq", "S", "--input", session],
                             partial(_expect_ch, ideal, names)))
    names3 = ("x", "y", "z")
    for i in range(CLI_CASES - len(cases)):
        gens = _seeded_monomial_ideal(shape, coef, 3, 4, 4)
        query = tuple(coef.randint(0, 4) for _ in range(3))
        if not any(query):
            query = (1, 1, 1)
        argv = ["iclosure", "--ideal", _ideal_text(gens, names3),
                "--test", _monomial_text(query, names3)]
        cases.append(CliCase(f"iclosure/{i}", argv,
                             partial(oracles.membership_verdict, gens, query),
                             partial(oracles.check_iclosure, gens, query)))
    if workdir is not None:
        workdir.mkdir(parents=True, exist_ok=True)
        for name, text in sessions.items():
            (workdir / name).write_text(text)
    return cases


def defect_cases() -> list[CliCase]:
    return [CliCase(f"defect/{' '.join(argv)}", argv, None) for argv in KNOWN_DEFECTS]
