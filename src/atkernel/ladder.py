"""Extension ladders and the second fundamental form.

A short exact sequence 0 -> F' -> F -> F'' -> 0 with a split resolution
ladder, the form sigma = nabla o j, its connecting image delta'', and the
comparison of delta'' with -At of the F'' resolution.  Every matrix of
the ladder is a degree-0 ChainMap between free modules, and every
product of them is a chaincore.compose.
The Euler-sequence and hypersurface presets behind `atk sff` live here,
with sff_preset, which reads a preset name and gives the command's output.
"""
from __future__ import annotations

from collections.abc import Sequence

from .atiyah import atiyah_cocycle
from .chaincore import (MAX_TOTAL_RANK, BasisElement, ChainMap, FreeComplex, ShapeError, compose,
                        map_to_text)
from .koszul import RegularSequenceIdeal, build_koszul
from .polyforms import (MAX_ARITY, ArityError, Form, Poly, digit_excess, exterior_derivative,
                        parse_poly, variable_names, wedge)


def _free_module(n: int, labels: Sequence[str], var_weights=None, weights=None) -> FreeComplex:
    basis = [
        BasisElement(lab, 0 if weights is None else weights[i])
        for i, lab in enumerate(labels)
    ]
    return FreeComplex(n, {0: basis}, {}, var_weights)


def _poly_map(source: FreeComplex, target: FreeComplex, rows) -> ChainMap:
    """The degree-0 map whose degree-0 matrix has the polynomial rows."""
    return ChainMap(source, target, 0, 0, {0: [[Form.from_poly(p) for p in row] for row in rows]})


def _d(u: ChainMap) -> ChainMap:
    """The entrywise exterior derivative of a polynomial map."""
    return ChainMap._raw(u.source, u.target, u.degree, 1,
                         u.entrywise(lambda f: exterior_derivative(f.to_poly())))


def second_fundamental_form(j: ChainMap, p: ChainMap, relation: Poly | None = None) -> ChainMap:
    """sigma = nabla o j for the product-rule map determined on the middle.

    nabla kills the middle basis, so sigma = p o d(j), with d(j) the
    entrywise exterior derivative of j.  p o j = 0 modulo the relation
    cutting out the right-hand module, if any, is required; it is what
    makes sigma linear.  One polynomial is its own Groebner basis, so one
    division decides membership in its ideal.
    """
    middle = j.target
    if middle.support() != [0] or middle.rank(0) == 0:
        raise ShapeError("middle term must be a free module in degree 0")
    for _, _, _, x in compose(p, j).nonzeros():
        if relation is None or x.to_poly().exact_quotient(relation) is None:
            raise ShapeError("p o j != 0")
    return compose(p, _d(j))


class ExtensionLadder:
    """A short exact sequence of modules with a split resolution ladder.

    j: F' -> F and p: F -> F'' are maps of free modules, F'' standing for
    its free cover.  The total resolution carries the module-part
    splitting P = P' + P'' (P'-part columns first in every degree), and
    iota: P'' -> total includes the P''-part; pi: total -> F and
    pi_dprime: P'' -> F'' are the augmentations onto generator
    coordinates; relation cuts F'' out of its free cover (None means F''
    is free).
    """

    __slots__ = ("n", "j", "p", "p_prime", "p_dprime", "total", "iota", "pi", "pi_dprime",
                 "relation")

    def __init__(self, n: int, j: ChainMap, p: ChainMap, p_prime: FreeComplex,
                 p_dprime: FreeComplex, total: FreeComplex, iota: ChainMap, pi: ChainMap,
                 pi_dprime: ChainMap, relation: Poly | None = None):
        self.n = n
        self.j = j
        self.p = p
        self.p_prime = p_prime
        self.p_dprime = p_dprime
        self.total = total
        self.iota = iota
        self.pi = pi
        self.pi_dprime = pi_dprime
        self.relation = relation


def hypersurface_ladder(f: Poly, var_weights: Sequence[int] | None = None) -> ExtensionLadder:
    """The sequence 0 -> R --(.f)--> R -> R/f -> 0 with its Koszul ladder."""
    n = f.n
    if f.is_zero() or f.constant_term() != 0:
        raise ShapeError("hypersurface needs a nonunit, nonzero equation")
    wdeg = f.homogeneous_degree(var_weights) if var_weights else None
    f_prime = _free_module(n, ["w0"])
    middle = _free_module(n, ["e0"], var_weights)
    f_dprime = _free_module(n, ["v0"])
    p_prime = _free_module(
        n, ["q0"], var_weights, [wdeg] if wdeg is not None else None
    )
    kz = build_koszul(RegularSequenceIdeal(n, (f,), tuple(var_weights) if var_weights else None))
    p_dprime = kz.complex
    one = Poly.one(n)
    total = FreeComplex(
        n,
        {
            0: [
                BasisElement("a0", wdeg if wdeg is not None else 0),
                BasisElement("b0", 0),
            ],
            -1: [BasisElement("g1", wdeg if wdeg is not None else 0)],
        },
        {-1: [[-one], [f]]},
        tuple(var_weights) if var_weights else None,
    )
    unit = Form.from_poly(one)
    return ExtensionLadder(
        n=n,
        j=_poly_map(f_prime, middle, [[f]]),
        p=_poly_map(middle, f_dprime, [[one]]),
        p_prime=p_prime,
        p_dprime=p_dprime,
        total=total,
        iota=ChainMap(p_dprime, total, 0, 0, {0: {1: {0: unit}}, -1: {0: {0: unit}}}),
        pi=_poly_map(total, middle, [[f, one]]),
        pi_dprime=_poly_map(p_dprime, f_dprime, [[one]]),
        relation=f,
    )


def connecting_delta(ladder: ExtensionLadder) -> ChainMap:
    """A representative of delta'', the connecting image on P'' of the
    ladder's second fundamental form sigma, and so a function of the ladder
    alone: sigma is extended over the total resolution as
    sigma~ = nabla o pi - (pi'' x 1) o nabla'' o ptilde, and
    delta'' = -sigma~ o d o iota.  The basis connection on P'' kills its
    basis, so on basis elements sigma~ = p o d(pi).  The other image
    delta' is zero because F' is free; a ladder whose P' has a
    differential would need the lift-and-bracket route, so it is refused.
    """
    if ladder.p_prime.diff:
        raise ShapeError("connecting_delta supports resolutions of free F' only")
    total = ladder.total
    d_total = ChainMap._raw(total, total, 1, 0, total.entrywise(Form.from_poly))
    sigma_tilde = compose(ladder.p, _d(ladder.pi))
    return -compose(compose(sigma_tilde, d_total), ladder.iota)


def delta_dprime_matches_minus_atiyah(ladder: ExtensionLadder, delta: ChainMap) -> str:
    """Compare delta'' = connecting_delta(ladder) with -At of the F''
    resolution projected onto the F'' generators by pi'': exact when their
    sum is zero, else FAIL."""
    at = atiyah_cocycle(ladder.p_dprime).chain_map
    projected = compose(ladder.pi_dprime, at)
    return "exact" if (delta + projected).is_zero() else "FAIL"


def euler_preset(n_proj: int = 1) -> tuple[ChainMap, list[str]]:
    """Euler-sequence data over Q[x_0..x_n]: returns sigma and var names.

    j sends x_i dx_j - x_j dx_i to e_j x_i - e_i x_j and p sends e_i to
    x_i; with the basis connection sigma is minus the identity on the
    generators.
    """
    n = n_proj + 1
    # refuse as FreeComplex and Poly would, before the C(n, 2) pairs exist
    if n * (n - 1) // 2 > MAX_TOTAL_RANK:
        raise ShapeError(f"complex exceeds {MAX_TOTAL_RANK} total basis elements")
    if n > MAX_ARITY:
        raise ArityError(f"ring arity must be in 1..{MAX_ARITY}, got {n}")
    names = [f"x{i}" for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    f_prime = _free_module(n, [f"w{s}" for s in range(len(pairs))])
    middle = _free_module(n, [f"e{i}" for i in range(n)])
    f_dprime = _free_module(n, ["v0"])
    j_rows = []
    for m in range(n):
        row = []
        for (i, j) in pairs:
            if m == j:
                row.append(Poly.variable(n, i))
            elif m == i:
                row.append(-Poly.variable(n, j))
            else:
                row.append(Poly.zero(n))
        j_rows.append(row)
    p_rows = [[Poly.variable(n, m) for m in range(n)]]
    sigma = second_fundamental_form(
        _poly_map(f_prime, middle, j_rows), _poly_map(middle, f_dprime, p_rows)
    )
    return sigma, names


def euler_generator_forms(n_proj: int = 1) -> list[Form]:
    """The generators x_i dx_j - x_j dx_i as forms, in pair order."""
    n = n_proj + 1
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            w = wedge(Form.from_poly(Poly.variable(n, i)), _dx(n, j)) + wedge(
                Form.from_poly(-Poly.variable(n, j)), _dx(n, i)
            )
            out.append(w)
    return out


def euler_sigma_is_minus_identity(sigma: ChainMap, n_proj: int = 1) -> list[bool]:
    """Per Euler generator: does sigma, a map onto the single generator of
    F'', send it to minus itself?"""
    gens = euler_generator_forms(n_proj)
    return [sigma.target.rank(0) == 1 and sigma.entry(0, 0, s) == -gen
            for s, gen in enumerate(gens)]


def _dx(n: int, i: int) -> Form:
    return Form(n, 1, {(i,): Poly.one(n)})


def sff_preset(preset: str) -> tuple[list[str], bool]:
    """The lines that `atk sff --preset <preset>` prints, for exactly euler,
    euler:<n> or hypersurface:<f>, and whether its verdict holds."""
    name, colon, text = preset.partition(":")
    if name == "euler":
        n_proj = 1
        if colon:
            if excess := digit_excess(text):
                raise ValueError(f"euler needs a positive integer n, got one of {excess}")
            if not (text.isascii() and text.isdigit()) or int(text) < 1:
                raise ValueError(f"euler needs a positive integer n, got {text!r}")
            n_proj = int(text)
        sigma, names = euler_preset(n_proj)
        good = all(euler_sigma_is_minus_identity(sigma, n_proj))
        return [map_to_text(sigma, "sigma", names),
                f"sigma on generators: {'-id' if good else 'mismatch'}",
                f"VERDICT: {'exact' if good else 'FAIL'}"], good
    if name == "hypersurface" and colon:
        names = variable_names(text) or ("x",)
        f = parse_poly(text, names)
        weights = (1,) * f.n
        if f.homogeneous_degree(weights) is None:
            weights = None
        ladder = hypersurface_ladder(f, weights)
        sigma = second_fundamental_form(ladder.j, ladder.p, ladder.relation)
        delta = connecting_delta(ladder)
        verdict = delta_dprime_matches_minus_atiyah(ladder, delta)
        # not computed: delta' vanishes because F' is free, and connecting_delta
        # refuses a ladder whose P' has a differential
        return [map_to_text(sigma, "sigma", names), map_to_text(delta, "delta_second", names),
                "delta_first: 0", f"VERDICT: {verdict}"], verdict != "FAIL"
    raise ValueError(f"unknown preset {preset!r}")
