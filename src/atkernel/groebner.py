"""Groebner bases over Q in this module's own monomial order (`_lead`: the
largest packed key, so grlex), on raw {key: coefficient} dicts kept
primitive over Z with a positive leading coefficient.  Buchberger's
algorithm takes S-pairs smallest lcm first and skips those the coprime or
the chain criterion shows reduce to 0 (Cox-Little-O'Shea, Ideals,
Varieties, and Algorithms, ch. 2 sections 6-10).  A Basis is built once
per task and holds its elements, their leads, its excess and its work
budget; callers read a lead from Basis.leads, not Poly.leading_term, so
that it is taken in the order the basis was computed in.
"""
from __future__ import annotations

import heapq
import itertools
from collections.abc import Iterable, Sequence
from math import gcd, lcm

from .polyforms import FIELD, GUARD, Poly, pack, unpack

# Term operations per basis (an S-polynomial costs its pair's terms, a division
# step the dividend's and divisor's): Buchberger's algorithm has no useful
# worst-case bound, and one reduction can span hundreds of thousand-bit terms.
MAX_TERM_OPS = 1_000_000
_lead = max


def _primitive(p: dict) -> dict:
    """p times the rational that makes it integral, of content 1, with a
    positive leading coefficient."""
    den = lcm(*(c.denominator for c in p.values()))
    ints = {e: c.numerator * (den // c.denominator) for e, c in p.items()}
    g = gcd(*ints.values()) if ints[_lead(ints)] > 0 else -gcd(*ints.values())
    return {e: c // g for e, c in ints.items()}


def _add_multiple(acc: dict, b: int, shift: int, g: dict) -> None:
    """acc += b * x^shift * g, dropping the terms that cancel."""
    for e, c in g.items():
        x = shift + e
        v = acc.get(x, 0) + b * c
        if v:
            acc[x] = v
        else:
            del acc[x]


def _spend(budget: list, ops: int) -> None:
    budget[0] -= ops
    if budget[0] < 0:
        raise ValueError(f"{budget[1]} exceeded its work bound")


def _reduce(p: dict, basis: Sequence[dict], leads: Sequence[int], budget: list) -> dict:
    """The full normal form of p, made primitive: no term of it is divisible
    by a leading monomial.  budget is [term operations left, task name]."""
    p = dict(p)
    rem: dict = {}
    while p:
        e = _lead(p)
        c = p[e]
        for lt, g in zip(leads, basis):
            if (shift := e - lt) >= 0 and not shift & GUARD:  # lt divides e
                _spend(budget, len(p) + len(g))
                k = gcd(c, g[lt])
                a = g[lt] // k
                if a != 1:
                    p = {x: a * v for x, v in p.items()}
                    rem = {x: a * v for x, v in rem.items()}
                _add_multiple(p, -(c // k), shift, g)
                break
        else:
            rem[e] = p.pop(e)
    return _primitive(rem) if rem else rem


def _basis(polys: Sequence[Poly], budget: list) -> tuple[list[dict], list[tuple], int]:
    """A basis, the exponent vectors of its leads and its excess E: each
    element h is sum c_i p_i over the nonzero polys with deg(c_i p_i) <= deg h + E.
    An S-pair with lcm L and its reduction stay in degree |L| (grlex is
    degree-compatible), so each new h adds |L| - deg h; E stays 0 on
    homogeneous input.  Each lead is unpacked once, for the pairs' lcms."""
    basis = [_primitive(p.terms) for p in polys if p.terms]
    leads = [_lead(g) for g in basis]
    n = polys[0].n
    expts = [unpack(lt, n) for lt in leads]
    pairs, pending, excess = [], set(), 0  # pending: the (i, j) still in pairs
    named = f"{budget[1]}: "  # a pair's lcm past the degree ceiling names the task

    def add_pairs(j: int) -> None:
        for i in range(j):
            if any(map(min, expts[i], expts[j])):  # coprime pairs reduce to 0
                pending.add((i, j))
                heapq.heappush(pairs, (pack([*map(max, expts[i], expts[j])], named), i, j))

    for j in range(len(basis)):
        add_pairs(j)
    while pairs:
        m, i, j = heapq.heappop(pairs)
        pending.discard((i, j))
        # chain criterion: S(i, j) reduces to 0 when a third leading monomial
        # divides m and its pairs with i and with j are done
        if any(k != i and k != j and (d := m - lk) >= 0 and not d & GUARD
               and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending for k, lk in enumerate(leads)):
            continue
        f, g = basis[i], basis[j]
        _spend(budget, len(f) + len(g))
        k = gcd(f[leads[i]], g[leads[j]])
        s: dict = {}
        _add_multiple(s, g[leads[j]] // k, m - leads[i], f)
        _add_multiple(s, -(f[leads[i]] // k), m - leads[j], g)
        h = _reduce(s, basis, leads, budget)
        if h:
            basis.append(h)
            leads.append(_lead(h))
            expts.append(unpack(leads[-1], n))
            excess += (m >> FIELD * n) - sum(expts[-1])
            add_pairs(len(basis) - 1)
    return basis, expts, excess


class Basis:
    """A Groebner basis of the ideal the nonzero polys generate, for one
    task: elements are the inputs made primitive, then the S-polynomials
    whose full normal form did not vanish; leads are the exponent vectors
    of their leading monomials in this module's order; excess is the E of
    _basis.  The build and every `contains` spend one budget of
    MAX_TERM_OPS term operations, past which a ValueError names the task, as
    it does when a pair's lcm reaches the degree ceiling."""

    __slots__ = ("elements", "leads", "excess", "_budget")

    def __init__(self, polys: Sequence[Poly], task: str):
        self._budget = [MAX_TERM_OPS, task]
        basis, self.leads, self.excess = _basis(polys, self._budget)
        self.elements = [Poly._raw(polys[0].n, g) for g in basis]

    def contains(self, polys: Iterable[Poly]) -> bool:
        """Whether every poly lies in the ideal.  A member g is then
        sum c_i p_i over the inputs with deg(c_i p_i) <= deg g + excess, as
        reduction to 0 only subtracts multiples of degree <= deg g."""
        basis = [g.terms for g in self.elements]
        leads = [_lead(g) for g in basis]
        return not any(_reduce(_primitive(p.terms), basis, leads, self._budget)
                       for p in polys if p.terms)


def monomial_quotient_dimension(n: int, gens: Iterable[Sequence[int]]) -> int:
    """Krull dimension of Q[x_1..x_n]/(x^g for g in gens): n minus the size
    of the smallest set of variables that meets every generator's support."""
    supports = [{i for i, e in enumerate(g) if e > 0} for g in gens]
    for size in range(n + 1):
        for cover in itertools.combinations(range(n), size):
            if all(s.intersection(cover) for s in supports):
                return n - size
    raise AssertionError("no vertex cover found")
