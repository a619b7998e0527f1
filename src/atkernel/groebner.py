"""Groebner bases over Q in the grlex order of Poly.leading_term, on raw
{exponent: coefficient} dicts kept primitive over Z with a positive leading
coefficient.  Buchberger's algorithm takes S-pairs smallest lcm first and
skips those the coprime or the chain criterion shows reduce to 0
(Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, ch. 2 sections 6-10).
"""
from __future__ import annotations

import heapq
import itertools
from collections.abc import Iterable, Sequence
from math import gcd, lcm
from operator import add, sub

from .polyforms import Poly, _grlex_key

# Term operations per basis (an S-polynomial costs its pair's terms, a division
# step the dividend's and divisor's): Buchberger's algorithm has no useful
# worst-case bound, and one reduction can span hundreds of thousand-bit terms.
MAX_TERM_OPS = 1_000_000


def _lead(p: dict) -> tuple[int, ...]:
    return max(p, key=_grlex_key)


def _primitive(p: dict) -> dict:
    """p times the rational that makes it integral, of content 1, with a
    positive leading coefficient."""
    den = lcm(*(c.denominator for c in p.values()))
    ints = {e: c.numerator * (den // c.denominator) for e, c in p.items()}
    g = gcd(*ints.values())
    if ints[_lead(ints)] < 0:
        g = -g
    return {e: c // g for e, c in ints.items()}


def _add_multiple(acc: dict, b: int, shift: tuple[int, ...], g: dict) -> None:
    """acc += b * x^shift * g, dropping the terms that cancel."""
    for e, c in g.items():
        x = tuple(map(add, shift, e))
        v = acc.get(x, 0) + b * c
        if v:
            acc[x] = v
        else:
            del acc[x]


def _spend(budget: list[int], ops: int) -> None:
    budget[0] -= ops
    if budget[0] < 0:
        raise ValueError("regularity guard exceeded its work bound")


def _reduce(p: dict, basis: Sequence[dict], leads: Sequence[tuple], budget: list[int]) -> dict:
    """The full normal form of p, made primitive: no term of it is divisible
    by a leading monomial.  budget[0] is the term operations left."""
    p = dict(p)
    rem: dict = {}
    while p:
        e = _lead(p)
        c = p[e]
        for lt, g in zip(leads, basis):
            if all(map(int.__ge__, e, lt)):
                _spend(budget, len(p) + len(g))
                k = gcd(c, g[lt])
                a = g[lt] // k
                if a != 1:
                    p = {x: a * v for x, v in p.items()}
                    rem = {x: a * v for x, v in rem.items()}
                _add_multiple(p, -(c // k), tuple(map(sub, e, lt)), g)
                break
        else:
            rem[e] = p.pop(e)
    return _primitive(rem) if rem else rem


def _basis(polys: Iterable[dict]) -> list[dict]:
    basis = [_primitive(p) for p in polys]
    leads = [_lead(g) for g in basis]
    pairs: list = []
    pending: set[tuple[int, int]] = set()
    budget = [MAX_TERM_OPS]

    def add_pairs(j: int) -> None:
        for i in range(j):
            if any(map(min, leads[i], leads[j])):  # coprime pairs reduce to 0
                pending.add((i, j))
                heapq.heappush(pairs, (_grlex_key(tuple(map(max, leads[i], leads[j]))), i, j))

    for j in range(len(basis)):
        add_pairs(j)
    while pairs:
        (_, m), i, j = heapq.heappop(pairs)
        pending.discard((i, j))
        # chain criterion: S(i, j) reduces to 0 when a third leading monomial
        # divides m and its pairs with i and with j are done
        if any(k != i and k != j and all(map(int.__ge__, m, lk))
               and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending for k, lk in enumerate(leads)):
            continue
        f, g = basis[i], basis[j]
        _spend(budget, len(f) + len(g))
        k = gcd(f[leads[i]], g[leads[j]])
        s: dict = {}
        _add_multiple(s, g[leads[j]] // k, tuple(map(sub, m, leads[i])), f)
        _add_multiple(s, -(f[leads[i]] // k), tuple(map(sub, m, leads[j])), g)
        h = _reduce(s, basis, leads, budget)
        if h:
            basis.append(h)
            leads.append(_lead(h))
            add_pairs(len(basis) - 1)
    return basis


def groebner_basis(polys: Sequence[Poly]) -> list[Poly]:
    """A Groebner basis of the ideal the nonzero polys generate: the inputs
    made primitive, then the S-polynomials whose full normal form did not
    vanish.  Raises ValueError after MAX_TERM_OPS term operations."""
    return [Poly._raw(polys[0].n, g) for g in _basis(p.terms for p in polys if p.terms)]


def monomial_quotient_dimension(n: int, gens: Iterable[Sequence[int]]) -> int:
    """Krull dimension of Q[x_1..x_n]/(x^g for g in gens): n minus the size
    of the smallest set of variables that meets every generator's support."""
    supports = [{i for i, e in enumerate(g) if e > 0} for g in gens]
    for size in range(n + 1):
        for cover in itertools.combinations(range(n), size):
            if all(s.intersection(cover) for s in supports):
                return n - size
    raise AssertionError("no vertex cover found")
