"""Expected answers computed without the route under test.

- `chern_expected`: ch_q is the fundamental class, built here by wedging
  the df_i directly; for k < q the local trace of At^k is a signed sum
  over index sets beta disjoint from a fixed alpha', which is the
  alternating binomial sum sum_j (-1)^j C(q-k, j) = 0, so ch_k is 0 as a
  representative.
- `contraction_expected`: contraction is a graded derivation of degree
  -1 on forms and every entry of At is a 1-form, so
  i(At^k) = sum_j (-1)^j At^j o i(At) o At^(k-1-j), with i(At) taken as
  the obstruction cocycle [d, delta~] rather than a contraction.
- Newton-polyhedron membership by this module's own exact simplex
  (maximise sum(lambda) subject to G lambda <= a, sum(lambda) <= 1), and
  the dimension of R/I from the smallest vertex cover of the supports.
"""
from __future__ import annotations

import itertools
from fractions import Fraction


# -- trace workload ----------------------------------------------------------


def chern_expected(ideal, k: int):
    from atkernel.cousin import CousinElement, LocalizedForm
    from atkernel.polyforms import Form, Poly, exterior_derivative, wedge

    if k < ideal.q:
        return CousinElement(ideal.n, ideal.polys, k, {})
    num = Form.from_poly(Poly.one(ideal.n))
    for f in ideal.polys:
        num = wedge(num, exterior_derivative(f))
    full = tuple(range(1, ideal.q + 1))
    entries = {} if num.is_zero() else {full: LocalizedForm(num, 1)}
    return CousinElement(ideal.n, ideal.polys, ideal.q, entries)


def contraction_expected(kz, delta, k: int):
    from atkernel.atiyah import atiyah_cocycle, obstruction_cocycle
    from atkernel.chaincore import compose, identity_map

    at = atiyah_cocycle(kz.complex).chain_map
    contracted_at = obstruction_cocycle(kz, delta)
    powers = [identity_map(kz.complex)]
    for _ in range(k - 1):
        powers.append(compose(at, powers[-1]))
    total = None
    for j in range(k):
        term = compose(powers[j], compose(contracted_at, powers[k - 1 - j])).scale((-1) ** j)
        total = term if total is None else total + term
    return total


# -- Newton-polyhedron membership ---------------------------------------------


def minimal_generators(gens) -> list[tuple[int, ...]]:
    vecs = sorted(set(tuple(g) for g in gens))
    return [v for v in vecs
            if not any(w != v and all(a <= b for a, b in zip(w, v)) for w in vecs)]


def member(gens, a) -> bool:
    """Is a in conv(gens) + R_+^n?  Primal simplex with Bland's rule from
    the all-slack basis; a is a member exactly when sum(lambda) reaches 1."""
    gens = list(gens)
    n, m = len(a), len(gens)
    rows = n + 1
    # tableau rows: [lambda_1..lambda_m | slack_0..slack_n | rhs]
    tab = []
    for i in range(rows):
        coeffs = [Fraction(g[i]) if i < n else Fraction(1) for g in gens]
        slack = [Fraction(int(j == i)) for j in range(rows)]
        tab.append(coeffs + slack + [Fraction(a[i]) if i < n else Fraction(1)])
    basis = [m + i for i in range(rows)]
    width = m + rows
    cost = [Fraction(-1)] * m + [Fraction(0)] * rows + [Fraction(0)]
    while True:
        entering = next((j for j in range(width) if cost[j] < 0), None)
        if entering is None:
            break
        best = None
        for i in range(rows):
            if tab[i][entering] > 0:
                key = (tab[i][-1] / tab[i][entering], basis[i])
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            raise AssertionError("bounded LP reported unbounded")
        r = best[1]
        pivot = tab[r][entering]
        tab[r] = [v / pivot for v in tab[r]]
        for i in range(rows):
            if i != r and tab[i][entering]:
                f = tab[i][entering]
                tab[i] = [u - f * v for u, v in zip(tab[i], tab[r])]
        f = cost[entering]
        cost = [u - f * v for u, v in zip(cost, tab[r])]
        basis[r] = entering
    return cost[-1] == 1


def quotient_dimension(n: int, gens) -> int:
    supports = [frozenset(i for i, e in enumerate(g) if e) for g in minimal_generators(gens)]
    for size in range(n + 1):
        for cover in itertools.combinations(range(n), size):
            if all(s & set(cover) for s in supports):
                return n - size
    raise AssertionError("no vertex cover")


def curvilinear(n: int, gens) -> int:
    minimal = minimal_generators(gens)
    bumped = [tuple(e + (j == i) for j, e in enumerate(g)) for g in minimal for i in range(n)]
    return sum(1 for g in minimal if not member(bumped, g))


def cli_lp_expected(command: str, gens) -> tuple[int, str]:
    n = len(gens[0])
    curv = curvilinear(n, gens)
    if command == "curvdim":
        return 0, f"{curv}\n"
    dim = quotient_dimension(n, gens)
    bound = n - curv
    holds = bound <= dim
    text = (f"dim = {dim}; bound = {bound}; curvilinear = {curv}; "
            f"holds: {'yes' if holds else 'NO'}\n")
    return (0 if holds else 1), text


def membership_verdict(gens, query) -> tuple[int, str]:
    return 0, "YES" if member(minimal_generators(gens), query) else "NO"


def _vector(text: str, key: str) -> list[Fraction]:
    body = text.split(f"{key}=(", 1)[1].split(")", 1)[0]
    return [Fraction(v) for v in body.split(", ")] if body else []


def check_iclosure(gens, query, got, want) -> bool:
    """The verdict matches the oracle and the printed certificate holds
    exactly: a convex combination under the query on YES, a separating
    nonnegative functional on NO."""
    rc, out = got
    want_rc, verdict = want
    lines = out.splitlines()
    if rc != want_rc or len(lines) != 1 or not lines[0].startswith(verdict + " "):
        return False
    line = lines[0]
    minimal = minimal_generators(gens)
    if verdict == "YES":
        lam, slack = _vector(line, "lambda"), _vector(line, "slack")
        if len(lam) != len(minimal) or len(slack) != len(query):
            return False
        if any(v < 0 for v in lam + slack) or sum(lam) != 1:
            return False
        return all(sum(l * g[i] for l, g in zip(lam, minimal)) + slack[i] == query[i]
                   for i in range(len(query)))
    sep = _vector(line, "separator")
    threshold = Fraction(line.split("threshold=", 1)[1])
    if len(sep) != len(query) or any(v < 0 for v in sep):
        return False
    if sum(c * a for c, a in zip(sep, query)) >= threshold:
        return False
    return all(sum(c * e for c, e in zip(sep, g)) >= threshold for g in minimal)
