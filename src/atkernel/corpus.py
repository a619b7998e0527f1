"""Shared verification corpus: the standard sequences, normal homs,
derivations, chain maps, and randomized generators used by the selftest
command and the acceptance suite.

All randomness is seeded, so every run sees the same cases.
"""
from __future__ import annotations

import random
from fractions import Fraction

from .atiyah import ConnectionSpec, DerivationSpec
from .chaincore import ChainMap, FreeComplex, hom_bracket, is_cocycle, monomials_of_weighted_degree
from .koszul import KoszulComplex, NormalHom, RegularSequenceIdeal, build_koszul, index_sets
from .polyforms import Form, Poly, Record, parse_poly


class CorpusEntry(Record):
    __slots__ = ("name", "var_names", "ideal")

    def __init__(self, name: str, var_names: tuple[str, ...], ideal: RegularSequenceIdeal):
        self.name = name
        self.var_names = var_names
        self.ideal = ideal


def _mk(names, weights, texts) -> CorpusEntry:
    polys = tuple(parse_poly(t, names) for t in texts)
    ideal = RegularSequenceIdeal(len(names), polys, tuple(weights))
    return CorpusEntry("_".join(texts).replace(" ", ""), tuple(names), ideal)


def corpus_entries() -> list[CorpusEntry]:
    return [
        _mk(("x",), (1,), ["x^2"]),
        _mk(("x", "y"), (1, 1), ["x", "y"]),
        _mk(("x", "y"), (3, 2), ["x^2", "y^3"]),
        _mk(("x", "y", "z"), (1, 1, 1), ["x^2 - y*z", "y^2 - x*z"]),
        _mk(("x", "y", "z"), (1, 1, 1), ["x", "y", "z"]),
        _mk(("x", "y", "z"), (1, 1, 1), ["x*y", "z^2"]),
    ]


def random_poly(rng: random.Random, n: int, max_deg: int = 2, terms: int = 2) -> Poly:
    out = Poly.zero(n)
    for _ in range(terms):
        expt = [0] * n
        for _ in range(rng.randint(0, max_deg)):
            expt[rng.randrange(n)] += 1
        coeff = Fraction(rng.randint(-3, 3))
        out = out + Poly.monomial(n, tuple(expt), coeff)
    return out


def random_form(rng: random.Random, n: int, degree: int, max_deg: int = 2) -> Form:
    import itertools

    out = Form.zero(n, degree)
    tuples = list(itertools.combinations(range(n), degree))
    for idx in rng.sample(tuples, min(len(tuples), 2)):
        out = out + Form(n, degree, {idx: random_poly(rng, n, max_deg, 1)})
    return out


def normal_homs_for(entry: CorpusEntry, seed: int = 7) -> list[NormalHom]:
    """Coordinate normal homs plus seeded pseudo-random ones."""
    ideal = entry.ideal
    n, q = ideal.n, ideal.q
    homs = []
    for i in range(q):
        values = tuple(Poly.one(n) if j == i else Poly.zero(n) for j in range(q))
        homs.append(NormalHom(ideal, values))
    rng = random.Random(f"{seed}:{entry.name}")
    for _ in range(max(2, 3 - q)):
        values = tuple(random_poly(rng, n, 2, 2) for _ in range(q))
        homs.append(NormalHom(ideal, values))
    return homs


def derivations_for(entry: CorpusEntry, seed: int = 11) -> list[DerivationSpec]:
    n = entry.ideal.n
    out = []
    for i in range(n):
        out.append(
            DerivationSpec(tuple(Poly.one(n) if j == i else Poly.zero(n) for j in range(n)))
        )
    rng = random.Random(f"{seed}:{entry.name}")
    out.append(DerivationSpec(tuple(random_poly(rng, n, 2, 2) for _ in range(n))))
    return out


def random_chain_map(
    rng: random.Random, kz: KoszulComplex, degree: int, form_degree: int
) -> ChainMap:
    """A random (not necessarily chain) map of the Koszul complex."""
    cx = kz.complex
    mats = {}
    for i in cx.support():
        rows = cx.rank(i + degree)
        cols = cx.rank(i)
        if rows == 0 or cols == 0:
            continue
        mat = [
            [random_form(rng, cx.n, form_degree, 2) for _ in range(cols)]
            for _ in range(rows)
        ]
        mats[i] = mat
    return ChainMap(cx, cx, degree, form_degree, mats)


def random_cocycle(rng: random.Random, kz: KoszulComplex, degree: int) -> ChainMap:
    """A random cocycle: bracket of a random map plus, in degree 1, a
    derivation-type summand, plus a multiple of the identity in degree 0."""
    cx = kz.complex
    out = hom_bracket(random_chain_map(rng, kz, degree - 1, 0))
    if degree == 1:
        from .semireg import ext1_representative

        values = tuple(random_poly(rng, cx.n, 1, 1) for _ in range(kz.q))
        out = out + ext1_representative(NormalHom(kz.ideal, values), kz)
    if degree == 0:
        g = Form.from_poly(random_poly(rng, cx.n, 1, 1))
        mats = {i: {a: {a: g} for a in range(cx.rank(i))} for i in cx.support()}
        out = out + ChainMap(cx, cx, 0, 0, mats)
    return out


def graded_random_connection(
    rng: random.Random, cx: FreeComplex, internal_degree: int = 1
) -> ConnectionSpec:
    """A perturbed connection whose columns are homogeneous forms."""
    n = cx.n
    weights = cx.var_weights
    columns: dict[int, dict] = {}
    for i in cx.support():
        r = cx.rank(i)
        basis = cx.basis(i)
        for t in range(r):
            for s in range(r):
                entry_deg = basis[s].weight - basis[t].weight + internal_degree
                choices = []
                for v in range(n):
                    for expt in monomials_of_weighted_degree(
                        n, weights, entry_deg - weights[v]
                    ):
                        choices.append((v, expt))
                if not choices:
                    continue
                v, expt = rng.choice(choices)
                coeff = Fraction(rng.randint(-2, 2))
                if coeff:
                    entry = Form(n, 1, {(v,): Poly.monomial(n, expt, coeff)})
                    columns.setdefault(i, {}).setdefault(t, {})[s] = entry
    return ConnectionSpec(cx, columns)


def functoriality_pairs() -> list[tuple[ChainMap, KoszulComplex, KoszulComplex]]:
    """Degree-0 chain maps between corpus-adjacent Koszul complexes."""
    out = []

    def lift_map(src_texts, tgt_texts, names, weights, factors):
        src = build_koszul(_mk(names, weights, src_texts).ideal)
        tgt = build_koszul(_mk(names, weights, tgt_texts).ideal)
        # gamma_i -> factor_i * gamma_i extended multiplicatively over wedges
        q = src.q
        n = len(names)
        fpolys = [parse_poly(t, names) for t in factors]
        mats: dict[int, dict] = {}
        for p in range(q + 1):
            mat = mats[-p] = {}
            for s, alpha in enumerate(index_sets(q, p)):
                coeff = Poly.one(n)
                for i in alpha:
                    coeff = coeff * fpolys[i - 1]
                mat[s] = {s: Form.from_poly(coeff)}
        return ChainMap(src.complex, tgt.complex, 0, 0, mats), src, tgt

    out.append(lift_map(["x^2"], ["x"], ("x",), (1,), ["x"]))
    out.append(lift_map(["x^2", "y^3"], ["x", "y^3"], ("x", "y"), (3, 2), ["x", "1"]))
    out.append(
        lift_map(["x*y", "z^2"], ["x*y", "z"], ("x", "y", "z"), (1, 1, 1), ["1", "z"])
    )
    for f, src, tgt in out:
        if not is_cocycle(f):
            raise AssertionError("corpus chain map is not a chain map")
    return out
