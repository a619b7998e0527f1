"""Randomized and corpus-wide invariant checks behind `atk selftest` and
the acceptance suite, and what only they use: shifts, mapping cones, the
text format for complexes, the Koszul dual basis maps, the exterior
derivative of forms and the canonical class omega.

Each group is a generator that takes the run's Corpus and yields one
verdict, a bool, per case; `run_selftest` builds the corpus once and
passes it to every group.  `_group` registers the group in ALL_GROUPS in
definition order, which is the run order, and turns it into a function
that returns (group name, verdicts that are True, verdicts, indices of
the others).  Counts follow the stated verification matrix; everything
is seeded and deterministic.  The acceptance criteria call these same
groups, each on a new corpus; the commutator, connection and centrality
groups take a seed prefix, so the criteria draw their own cases with the
same counts.
"""
from __future__ import annotations

import functools
import random
import re
from collections.abc import Sequence
from math import comb

from .atiyah import (
    atiyah_cocycle,
    atiyah_power,
    contract_derivation,
    obstruction_cocycle,
)
from .chaincore import (
    BasisElement,
    ChainMap,
    FreeComplex,
    ShapeError,
    _entrywise,
    compose,
    hom_bracket,
    identity_map,
    is_cocycle,
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
)
from .integraldep import MonomialIdeal, closure_member, curvilinear_dim, dim_bound_check
from .koszul import KoszulComplex, RegularSequenceIdeal, build_koszul, index_sets
from .ladder import (
    connecting_delta,
    delta_dprime_matches_minus_atiyah,
    euler_preset,
    euler_sigma_is_minus_identity,
    hypersurface_ladder,
)
from .polyforms import (
    Form,
    ParseError,
    Poly,
    _merge_indices,
    default_names,
    digit_excess,
    exterior_derivative,
    form_to_text,
    parse_form,
    parse_poly,
    parse_ring,
    poly_to_text,
    wedge,
)
from .semireg import chern_character, compare_semireg

Group = tuple[str, int, int, list[int]]

ALL_GROUPS = []


class Corpus:
    """The corpus entries and functoriality pairs of one run, each built on
    first use; the groups of a run share them, and so share each ideal's
    Koszul complex and the coboundary blocks kept on it."""

    @functools.cached_property
    def entries(self):
        return corpus_entries()

    @functools.cached_property
    def pairs(self):
        return functoriality_pairs()


def _group(name: str):
    """Register a verdict generator as the next selftest group.  Called
    with the generator's arguments after the first, a Corpus (a new one
    unless given as `corpus=`), the group returns (name, number of
    verdicts that are True, number of verdicts, indices of the misses)."""

    def register(verdicts):
        @functools.wraps(verdicts)
        def group(*args, corpus: Corpus | None = None, **kwargs) -> Group:
            results = list(verdicts(corpus or Corpus(), *args, **kwargs))
            misses = [i for i, ok in enumerate(results) if ok is not True]
            return (name, len(results) - len(misses), len(results), misses)

        ALL_GROUPS.append(group)
        return group

    return register


def form_d(w: Form) -> Form:
    """Wedge-extended exterior derivative on forms."""
    out = Form.zero(w.n, min(w.degree + 1, w.n))
    for idx, coeff in w.terms.items():
        dcoeff = exterior_derivative(coeff)
        out = out + wedge(dcoeff, Form(w.n, w.degree, {idx: Poly.one(w.n)}))
    return out


@_group("d squared is zero")
def check_d_squared(corpus: Corpus):
    rng = random.Random("d2")
    for _ in range(200):
        n = rng.randint(1, 4)
        f = random_poly(rng, n, max_deg=6, terms=4)
        yield form_d(exterior_derivative(f)).is_zero()


@_group("exterior derivative Leibniz rule")
def check_leibniz(corpus: Corpus):
    rng = random.Random("leibniz")
    for _ in range(200):
        n = rng.randint(1, 4)
        f = random_poly(rng, n, max_deg=4, terms=3)
        g = random_poly(rng, n, max_deg=4, terms=3)
        lhs = exterior_derivative(f * g)
        yield lhs == exterior_derivative(f).mul_poly(g) + exterior_derivative(g).mul_poly(f)


@_group("koszul differential squares to zero")
def check_koszul_squares(corpus: Corpus):
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
def check_bracket_squared(corpus: Corpus):
    rng = random.Random("bracket2")
    entries = corpus.entries
    for case in range(100):
        kz = build_koszul(entries[case % len(entries)].ideal)
        degree = rng.choice([-1, 0, 1, 2])
        form_degree = rng.choice([0, 1])
        h = random_chain_map(rng, kz, degree, form_degree)
        yield hom_bracket(hom_bracket(h)).is_zero()


def shift(c: FreeComplex, i: int) -> FreeComplex:
    """Shifted complex with degrees translated and differential times (-1)^i."""
    if i == 0:
        return c
    sign = (-1) ** (i % 2)
    degrees = {n - i: b for n, b in c.degrees.items()}
    diff = {n - i: mat for n, mat in _entrywise(c.diff, lambda p: p.scale(sign)).items()}
    return FreeComplex(c.n, degrees, diff, c.var_weights)


def shift_map(u: ChainMap, i: int) -> ChainMap:
    """The same matrices viewed between shifted complexes."""
    return ChainMap._raw(
        shift(u.source, i),
        shift(u.target, i),
        u.degree,
        u.form_degree,
        {n - i: mat for n, mat in u.mats.items()},
    )


def cone(f: ChainMap) -> FreeComplex:
    """Mapping cone of a degree-0 chain map f: N' -> N.

    The module is N + N'[1]; the differential sends (n, Tn') to
    (dn - f(n'), -Td'n').
    """
    if f.degree != 0 or f.form_degree != 0:
        raise ShapeError("cone needs a degree-0 map with polynomial entries")
    if not is_cocycle(f):
        raise ShapeError("cone needs a chain map ([d,f] = 0)")
    nprime, ncx = f.source, f.target
    degrees: dict[int, list[BasisElement]] = {}
    for i in set(ncx.support()) | {j - 1 for j in nprime.support()}:
        combined = list(ncx.basis(i)) + [
            BasisElement("T_" + b.label, b.weight) for b in nprime.basis(i + 1)
        ]
        if combined:
            degrees[i] = combined
    diff: dict[int, dict] = {}
    for i, t, s, p in ncx.nonzeros():
        diff.setdefault(i, {}).setdefault(t, {})[s] = p
    for i, t, s, w in f.nonzeros():
        diff.setdefault(i - 1, {}).setdefault(t, {})[ncx.rank(i - 1) + s] = -w.to_poly()
    for i, t, s, p in nprime.nonzeros():
        diff.setdefault(i - 1, {}).setdefault(ncx.rank(i) + t, {})[ncx.rank(i - 1) + s] = -p
    var_weights = ncx.var_weights if ncx.var_weights == nprime.var_weights else None
    return FreeComplex(ncx.n, degrees, diff, var_weights)


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
def check_cone_identity(corpus: Corpus):
    for entry in corpus.entries:
        h = cone_homotopy(identity_map(build_koszul(entry.ideal).complex))
        yield hom_bracket(h) == identity_map(h.source)


# -- the text format for complexes, read back by the round-trip group -------


def complex_to_text(c: FreeComplex, name: str, names: Sequence[str] | None = None) -> str:
    names = list(names or default_names(c.n))
    ring_vars = [v if w == 1 else f"{v}:{w}" for v, w in zip(names, c.var_weights or (1,) * c.n)]
    items = [f"ring Q[{', '.join(ring_vars)}]{'' if c.graded else ' ungraded'};"]
    for i in c.support():
        labels = [b.label if b.weight == 0 else f"{b.label}:{b.weight}" for b in c.basis(i)]
        items.append(f"deg {i}: [{', '.join(labels)}];")
    for i in sorted(c.diff):
        cols = []
        for s in range(c.rank(i)):
            col = [poly_to_text(c.entry(i, t, s), names) for t in range(c.rank(i + 1))]
            cols.append("[" + ", ".join(col) + "]")
        items.append(f"d({i}) = [{', '.join(cols)}];")
    body = "\n  ".join(items)
    return f"complex {name} {{\n  {body}\n}}"


def _parse_bracket_list(text: str) -> list[str]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(f"expected a bracketed list, got {text!r}")
    inner = text[1:-1]
    items, depth, start = [], 0, 0
    for pos, ch in enumerate(inner):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "," and depth == 0:
            items.append(inner[start:pos].strip())
            start = pos + 1
    tail = inner[start:].strip()
    if tail:
        items.append(tail)
    return items


def _item_int(text: str, item: str) -> int:
    if excess := digit_excess(text):
        raise ParseError(f"expected an integer, got one of {excess}")
    if not re.fullmatch(r"\s*-?[0-9]+\s*", text):  # int() also takes '١' and '1_0'
        raise ParseError(f"expected an integer, got {text.strip()!r} in item {item!r}")
    return int(text)


def parse_complex(text: str) -> tuple[str, FreeComplex, tuple[str, ...]]:
    """Read a `complex <name> { item; ... }` block as complex_to_text writes
    it; the `ring` item is a session ring declaration, tagged ` ungraded` or not."""
    head, _, rest = text.strip().partition("{")
    parts = head.split()
    if len(parts) != 2 or parts[0] != "complex":
        raise ParseError("expected `complex <name> {...}`")
    if not rest.rstrip().endswith("}"):
        raise ParseError("missing closing brace")
    name = parts[1]
    items = [chunk.strip() for chunk in rest.rstrip()[:-1].split(";") if chunk.strip()]
    names: tuple[str, ...] = ()
    weights: tuple[int, ...] = ()
    graded = True
    degrees: dict[int, list[BasisElement]] = {}
    diff_raw: dict[int, list[str]] = {}
    for item in items:
        if item.startswith("ring"):
            if names:
                raise ParseError("ring declared twice in complex block")
            decl = item[len("ring") :].strip()
            if decl.endswith(" ungraded"):
                graded = False
                decl = decl[: -len(" ungraded")]
            names, weights = parse_ring(decl)
        elif item.startswith("deg"):
            head, _, rest = item.partition(":")
            i = _item_int(head[len("deg") :], item)
            if i in degrees:
                raise ParseError(f"degree {i} declared twice in complex block")
            degrees[i] = []
            for chunk in _parse_bracket_list(rest):
                label, colon, w = chunk.partition(":")
                degrees[i].append(BasisElement(label.strip(), _item_int(w, item) if colon else 0))
        elif item.startswith("d("):
            head, _, rest = item.partition("=")
            i = _item_int(head.strip()[2:-1], item)
            if i in diff_raw:
                raise ParseError(f"d({i}) given twice in complex block")
            diff_raw[i] = _parse_bracket_list(rest)
        else:
            raise ParseError(f"unknown item {item!r} in complex block")
    if not names:
        raise ParseError("complex block missing ring declaration")
    n = len(names)
    diff: dict[int, dict] = {}
    for i, cols in diff_raw.items():
        rows = len(degrees.get(i + 1, []))
        diff[i] = {t: {} for t in range(rows)}
        for s, col_text in enumerate(cols):
            entries = _parse_bracket_list(col_text)
            if len(entries) != rows:
                raise ParseError(f"d({i}) column {s} has wrong length")
            for t, entry in enumerate(entries):
                diff[i][t][s] = parse_poly(entry, names)
    cx = FreeComplex(n, degrees, diff, weights if graded else None)
    return name, cx, names


@_group("serializer round-trips")
def check_roundtrip(corpus: Corpus):
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
    for entry in corpus.entries:
        kz = build_koszul(entry.ideal)
        text = complex_to_text(kz.complex, "K", entry.var_names)
        _, parsed, _ = parse_complex(text)
        yield parsed == kz.complex and complex_to_text(parsed, "K", entry.var_names) == text


@_group("bracket commutes with shift up to sign")
def check_shift_bracket(corpus: Corpus):
    rng = random.Random("shiftbracket")
    entries = corpus.entries
    for case in range(40):
        kz = build_koszul(entries[case % len(entries)].ideal)
        i = rng.choice([-2, -1, 1, 2])
        h = random_chain_map(rng, kz, rng.choice([0, 1]), rng.choice([0, 1]))
        yield hom_bracket(shift_map(h, i)) == shift_map(hom_bracket(h), i).scale((-1) ** (i % 2))


def dual_basis_map(k: KoszulComplex, alpha: Sequence[int]) -> ChainMap:
    """The wedge of dual functionals for alpha as a map K^{-p} -> K^0.

    Normalized so that the value on gf_alpha is (-1)^{binom(p,2)}, making
    (-1)^{binom(p,2)} times this map the honest dual basis element.
    """
    alpha = tuple(sorted(alpha))
    if any(not 1 <= i <= k.q for i in alpha) or len(set(alpha)) != len(alpha):
        raise ValueError(f"bad index set {alpha}")
    p = len(alpha)
    deg, col = k.basis_position(alpha)
    sign = Form.from_poly(Poly.const(k.n, (-1) ** comb(p, 2)))
    return ChainMap(k.complex, k.complex, p, 0, {deg: {0: {col: sign}}})


def dual_left_multiplication(k: KoszulComplex, alpha: Sequence[int]) -> ChainMap:
    """The functional -sum_i f_i . (dual wedge of {i} u alpha).

    This is what the bracket of dual_basis_map(alpha) must reproduce; the
    wedge gf^_i ^ gf^_alpha sorts with the usual alternating sign and dies
    on repeated indices.
    """
    alpha = tuple(sorted(alpha))
    total = ChainMap._raw(k.complex, k.complex, len(alpha) + 1, 0, {})
    for i in range(1, k.q + 1):
        merged = _merge_indices((i,), alpha)
        if merged is None:
            continue
        sign, bigger = merged
        f = k.ideal.polys[i - 1]
        mats = dual_basis_map(k, bigger).entrywise(lambda e: e.mul_poly(f).scale(-sign))
        total = total + ChainMap._raw(k.complex, k.complex, len(bigger), 0, mats)
    return total


@_group("dual basis bracket is left multiplication")
def check_dual_basis_bracket(corpus: Corpus):
    for entry in corpus.entries:
        kz = build_koszul(entry.ideal)
        for p in range(0, kz.q):
            for alpha in index_sets(kz.q, p):
                yield hom_bracket(dual_basis_map(kz, alpha)) == dual_left_multiplication(kz, alpha)


def omega_class(ideal: RegularSequenceIdeal) -> CousinElement:
    """The top-degree class delta f_1/f_1 ^ ... ^ delta f_q/f_q."""
    full = tuple(range(1, ideal.q + 1))
    one = Form.from_poly(Poly.one(ideal.n))
    return CousinElement(
        ideal.n, ideal.polys, ideal.q, {full: LocalizedForm(one, 1)}
    )


@_group("top dual map traces to the canonical class")
def check_trace_formula(corpus: Corpus):
    for entry in corpus.entries:
        kz = build_koszul(entry.ideal)
        top = tuple(range(1, kz.q + 1))
        yield local_trace(dual_basis_map(kz, top), kz) == omega_class(entry.ideal)


@_group("trace kills graded commutators")
def check_commutators(corpus: Corpus, seed: str = "commutator"):
    """Supertrace identity at representative level, 50 pairs per complex.

    The trace of a commutator is a literal zero exactly when the factors
    have opposite degrees (elsewhere it is only a coboundary), so the
    pairs are drawn with total degree zero and arbitrary form degrees.
    Each complex draws from its own generator, seeded `<seed>:<name>`.
    """
    for entry in corpus.entries:
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


def commutator_class_targets(seed: str, corpus: Corpus | None = None):
    """Traces of cocycle commutators [u, v] with deg u = 1 and deg v = q - 1,
    10 per complex with q >= 2, each complex seeded `<seed>:<name>`."""
    for entry in (corpus or Corpus()).entries:
        kz = build_koszul(entry.ideal)
        if kz.q < 2:
            continue
        rng = random.Random(f"{seed}:{entry.name}")
        for _ in range(10):
            u = random_cocycle(rng, kz, 1)
            v = random_cocycle(rng, kz, kz.q - 1)
            yield local_trace(compose(u, v) - compose(v, u).scale((-1) ** (kz.q - 1)), kz)


@_group("cocycle commutator traces are coboundaries")
def check_commutator_classes(corpus: Corpus):
    """Cocycle commutators in top degree trace to Cousin coboundaries."""
    for t in commutator_class_targets("commclass", corpus):
        yield t.is_zero() or cousin_coboundary_solve(t) is not None


@_group("cousin differential squares to zero")
def check_cousin_squares(corpus: Corpus):
    rng = random.Random("cousin-d2")
    for entry in corpus.entries:
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
def check_bloch_comparison(corpus: Corpus):
    for entry in corpus.entries:
        for hom in normal_homs_for(entry):
            yield compare_semireg(hom).verdict == "representative-exact"


@_group("top chern character is the fundamental class")
def check_fundamental_class(corpus: Corpus):
    for entry in corpus.entries:
        ideal = entry.ideal
        num = Form.from_poly(Poly.one(ideal.n))
        for f in ideal.polys:
            num = wedge(num, exterior_derivative(f))
        full = tuple(range(1, ideal.q + 1))
        target = CousinElement(ideal.n, ideal.polys, ideal.q, {full: LocalizedForm(num, 1)})
        yield chern_character(ideal, ideal.q) == target


@_group("obstruction bracket equals contraction")
def check_obstruction(corpus: Corpus):
    for entry in corpus.entries:
        kz = build_koszul(entry.ideal)
        at = atiyah_cocycle(kz.complex)
        for delta in derivations_for(entry):
            yield obstruction_cocycle(kz, delta) == contract_derivation(delta, at)


@_group("shift changes the cocycle by the predicted sign")
def check_shift_sign(corpus: Corpus):
    for entry in corpus.entries:
        kz = build_koszul(entry.ideal)
        at = atiyah_cocycle(kz.complex)
        for i in range(-2, 3):
            at_shifted = atiyah_cocycle(shift(kz.complex, i))
            for k in range(1, kz.q + 1):
                lhs = atiyah_power(at_shifted, k).chain_map
                rhs = shift_map(atiyah_power(at, k).chain_map, i).scale((-1) ** (k * i % 2))
                yield lhs == rhs


@_group("cocycle class ignores the connection")
def check_connection_independence(corpus: Corpus, seed: str = "conn"):
    """20 random connections per complex, seeded as in check_commutators."""
    for entry in corpus.entries:
        kz = build_koszul(entry.ideal)
        rng = random.Random(f"{seed}:{entry.name}")
        base = atiyah_cocycle(kz.complex).chain_map
        for _ in range(20):
            conn = graded_random_connection(rng, kz.complex, internal_degree=rng.choice([1, 2]))
            perturbed = atiyah_cocycle(kz.complex, conn).chain_map
            yield solve_coboundary(perturbed - base).solvable


@_group("cocycle is functorial up to coboundary")
def check_functoriality(corpus: Corpus):
    for f, src, tgt in corpus.pairs:
        at_src = atiyah_cocycle(src.complex)
        at_tgt = atiyah_cocycle(tgt.complex)
        for k in range(1, min(src.q, tgt.q) + 1):
            lhs = compose(f, atiyah_power(at_src, k).chain_map)
            rhs = compose(atiyah_power(at_tgt, k).chain_map, f)
            yield solve_coboundary(lhs - rhs).solvable


@_group("powers are central up to coboundary")
def check_centrality(corpus: Corpus, seed: str = "central"):
    """10 random cocycles per complex, seeded as in check_commutators."""
    for entry in corpus.entries:
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
def check_second_fundamental_form(corpus: Corpus):
    # Euler data: sigma must be minus the identity on every generator
    for n_proj in (1, 2):
        sigma, _ = euler_preset(n_proj)
        yield from euler_sigma_is_minus_identity(sigma, n_proj)
    # hypersurface: connecting image matches minus the resolution cocycle
    for text, names, weights in SFF_HYPERSURFACES:
        ladder = hypersurface_ladder(parse_poly(text, names), weights)
        yield delta_dprime_matches_minus_atiyah(ladder, connecting_delta(ladder)) == "exact"


@_group("integral closure invariants")
def check_appendix_invariants(corpus: Corpus):
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


def _run_group(group, corpus: Corpus) -> Group:
    """The group's report on the run's corpus; a group that raises is one
    miss, with no index, that names the group function and the exception."""
    try:
        return group(corpus=corpus)
    except Exception as exc:
        return (f"{group.__name__} raised {type(exc).__name__}: {exc}", 0, 1, [])


def run_selftest() -> tuple[list[Group], bool]:
    """Run every group in order on one corpus, built once; one group's
    exception does not stop the rest."""
    corpus = Corpus()
    results = [_run_group(g, corpus) for g in ALL_GROUPS]
    all_pass = all(passed == total for _, passed, total, _ in results)
    return results, all_pass
