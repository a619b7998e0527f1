"""Extension ladders and the second fundamental form.

A short exact sequence 0 -> F' -> F -> F'' -> 0 with a split resolution
ladder, the form sigma = nabla o j, its connecting image delta'', and the
comparison of delta'' with -At of the F'' resolution.
The Euler-sequence and hypersurface presets behind `atk sff` live here.
"""
from __future__ import annotations

from typing import Sequence

from .atiyah import atiyah_cocycle
from .chaincore import BasisElement, ChainMap, FreeComplex, ShapeError
from .koszul import RegularSequenceIdeal, build_koszul
from .polyforms import Form, Poly, exterior_derivative, wedge

# a matrix of polynomials between free modules, as a sequence of rows
PolyRows = Sequence[Sequence[Poly]]


def _free_module(n: int, labels: Sequence[str], var_weights=None, weights=None) -> FreeComplex:
    basis = [
        BasisElement(lab, 0 if weights is None else weights[i])
        for i, lab in enumerate(labels)
    ]
    return FreeComplex(n, {0: basis}, {}, var_weights)


def _one_relation(relations: Sequence[Poly]) -> Poly | None:
    """The only relation, or None without one.

    One polynomial is its own Groebner basis, so division by it gives a
    normal form; successive division by two or more does not, and they
    are refused with ShapeError.
    """
    if len(relations) > 1:
        raise ShapeError("reduction supports at most one relation")
    return relations[0] if relations else None


def second_fundamental_form(
    j_matrix: Sequence[Sequence[Poly]],
    p_matrix: Sequence[Sequence[Poly]],
    middle: FreeComplex,
    relations: Sequence[Poly] = (),
) -> ChainMap:
    """sigma = nabla o j for the product-rule map determined on the middle.

    nabla kills the middle basis, so the value on a generator is p
    applied to the entrywise exterior derivative of j's column.
    p o j = 0 (modulo the relation cutting out the right-hand module) is
    required; it is what makes sigma linear.  At most one relation is
    accepted; two or more raise ShapeError.
    """
    rel = _one_relation(relations)
    n = middle.n
    mid_rank = middle.rank(0)
    if middle.support() != [0] or mid_rank == 0:
        raise ShapeError("middle term must be a free module in degree 0")
    cols_j = len(j_matrix[0]) if j_matrix else 0
    rows_p = len(p_matrix)
    if len(j_matrix) != mid_rank or any(len(r) != cols_j for r in j_matrix):
        raise ShapeError("j matrix shape mismatch")
    if any(len(r) != mid_rank for r in p_matrix):
        raise ShapeError("p matrix shape mismatch")
    for t in range(rows_p):
        for s in range(cols_j):
            acc = Poly.zero(n)
            for m in range(mid_rank):
                acc = acc + p_matrix[t][m] * j_matrix[m][s]
            if rel is not None:
                acc = acc.divmod_single(rel)[1]
            if not acc.is_zero():
                raise ShapeError("p o j != 0")
    source = _free_module(n, [f"w{s}" for s in range(cols_j)])
    target = _free_module(n, [f"v{t}" for t in range(rows_p)])
    mat = []
    for t in range(rows_p):
        row = []
        for s in range(cols_j):
            acc = Form.zero(n, 1)
            for m in range(mid_rank):
                acc = acc + exterior_derivative(j_matrix[m][s]).mul_poly(p_matrix[t][m])
            row.append(acc)
        mat.append(tuple(row))
    return ChainMap(source, target, 0, 1, {0: tuple(mat)})


class ExtensionLadder:
    """A short exact sequence of modules with a split resolution ladder.

    The total resolution carries the module-part splitting P = P' + P''
    (P'-part columns first in every degree); pi and pi_dprime are the
    augmentations onto generator coordinates of F and F''; relations cut
    F'' out of its free cover (empty means F'' is free; at most one is
    supported).
    """

    __slots__ = (
        "n", "j_matrix", "p_matrix", "middle", "p_prime", "p_dprime", "total", "split",
        "pi", "pi_dprime", "relations",
    )

    def __init__(self, n: int, j_matrix: PolyRows, p_matrix: PolyRows, middle: FreeComplex,
                 p_prime: FreeComplex, p_dprime: FreeComplex, total: FreeComplex,
                 split: dict[int, int], pi: PolyRows, pi_dprime: PolyRows,
                 relations: tuple[Poly, ...] = ()):
        self.n = n
        self.j_matrix = j_matrix
        self.p_matrix = p_matrix
        self.middle = middle
        self.p_prime = p_prime
        self.p_dprime = p_dprime
        self.total = total
        self.split = split
        self.pi = pi
        self.pi_dprime = pi_dprime
        self.relations = relations


def hypersurface_ladder(f: Poly, var_weights: Sequence[int] | None = None) -> ExtensionLadder:
    """The sequence 0 -> R --(.f)--> R -> R/f -> 0 with its Koszul ladder."""
    n = f.n
    if f.is_zero() or f.constant_term() != 0:
        raise ShapeError("hypersurface needs a nonunit, nonzero equation")
    wdeg = f.homogeneous_degree(var_weights) if var_weights else None
    middle = _free_module(n, ["e0"], var_weights)
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
    return ExtensionLadder(
        n=n,
        j_matrix=((f,),),
        p_matrix=((one,),),
        middle=middle,
        p_prime=p_prime,
        p_dprime=p_dprime,
        total=total,
        split={0: 1, -1: 0},
        pi=((f, one),),
        pi_dprime=((one,),),
        relations=(f,),
    )


def _sigma_tilde_on_basis(ladder: ExtensionLadder) -> list[list[Form]]:
    """Values of the extension nabla o pi - (pi'' x 1) o nabla'' o ptilde on
    the degree-0 basis of the total resolution, as rows over F'' generators.

    The basis connection on P'' kills its basis, so only the first summand
    survives on basis elements.
    """
    n = ladder.n
    f_rank = len(ladder.pi)
    fpp_rank = len(ladder.p_matrix)
    cols = ladder.total.rank(0)
    out = [[Form.zero(n, 1) for _ in range(cols)] for _ in range(fpp_rank)]
    for b in range(cols):
        for m in range(f_rank):
            coeff = ladder.pi[m][b]
            if coeff.is_zero():
                continue
            for t in range(fpp_rank):
                out[t][b] = out[t][b] + exterior_derivative(coeff).mul_poly(
                    ladder.p_matrix[t][m]
                )
    return out


def connecting_delta(ladder: ExtensionLadder) -> ChainMap:
    """A representative of delta'', the connecting image on P'' of the
    ladder's second fundamental form sigma, and so a function of the ladder
    alone: sigma is extended over the total resolution as
    sigma~ = nabla o pi - (pi'' x 1) o nabla'' o ptilde, and sigma~ o d is
    restricted to the P''-part (with a sign).  The other image delta' is
    zero because F' is free; a ladder whose P' has a differential would
    need the lift-and-bracket route, so it is refused.
    """
    if ladder.p_prime.diff:
        raise ShapeError("connecting_delta supports resolutions of free F' only")
    n = ladder.n
    fpp_rank = len(ladder.p_matrix)
    target_dprime = _free_module(n, [f"v{t}" for t in range(fpp_rank)])

    # delta'' on P''^{-1}: -(sigma~ o d) restricted to the P''-columns
    st = _sigma_tilde_on_basis(ladder)
    split_m1 = ladder.split.get(-1, 0)
    mat = []
    for t in range(fpp_rank):
        row = []
        for s in range(ladder.p_dprime.rank(-1)):
            acc = Form.zero(n, 1)
            for m in range(ladder.total.rank(0)):
                acc = acc + st[t][m].mul_poly(ladder.total.entry(-1, m, split_m1 + s))
            row.append(-acc)
        mat.append(row)
    return ChainMap(ladder.p_dprime, target_dprime, 1, 1, {-1: mat})


def delta_dprime_matches_minus_atiyah(ladder: ExtensionLadder) -> str:
    """Compare delta'' of the ladder with -At of the F'' resolution projected
    onto the F'' generators: exact when their sum is zero, else FAIL."""
    delta_dd = connecting_delta(ladder)
    at = atiyah_cocycle(ladder.p_dprime).chain_map
    # project At from degree -1 onto F'' generator coordinates via pi''
    mat = []
    for pi_row in ladder.pi_dprime:
        row = []
        for s in range(ladder.p_dprime.rank(-1)):
            acc = Form.zero(ladder.n, 1)
            for m, coeff in enumerate(pi_row):
                acc = acc + at.entry(-1, m, s).mul_poly(coeff)
            row.append(acc)
        mat.append(row)
    projected = ChainMap(ladder.p_dprime, delta_dd.target, 1, 1, {-1: mat})
    return "exact" if (delta_dd + projected).is_zero() else "FAIL"


def euler_preset(n_proj: int = 1) -> tuple[ChainMap, list[str]]:
    """Euler-sequence data over Q[x_0..x_n]: returns sigma and var names.

    j sends x_i dx_j - x_j dx_i to e_j x_i - e_i x_j and p sends e_i to
    x_i; with the basis connection sigma is minus the identity on the
    generators.
    """
    n = n_proj + 1
    names = [f"x{i}" for i in range(n)]
    middle = _free_module(n, [f"e{i}" for i in range(n)])
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    j_matrix = []
    for m in range(n):
        row = []
        for (i, j) in pairs:
            if m == j:
                row.append(Poly.variable(n, i))
            elif m == i:
                row.append(-Poly.variable(n, j))
            else:
                row.append(Poly.zero(n))
        j_matrix.append(tuple(row))
    p_matrix = [tuple(Poly.variable(n, m) for m in range(n))]
    sigma = second_fundamental_form(tuple(j_matrix), tuple(p_matrix), middle)
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
