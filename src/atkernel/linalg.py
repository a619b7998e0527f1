"""Exact sparse linear algebra over Q used by the graded solvers.

A row is a dict from column index to a rational (Fraction or int); absent
columns are zero.  `Factorization(rows, ncols)` factors the matrix once
by `_echelon`, the one elimination, to reduced echelon form.  Each row
has its denominators cleared once (by their lcm), carries its integer
combination comb of the input rows, and is reduced fraction-free against
the pivot rows found so far; a back pass then clears each pivot row of the
other pivot columns.  Pivot columns are the leftmost linearly independent
columns, in any row order, and free variables are zero, so the pivot row
of column c gives x_c = sum_r comb[r] * b_r / row[c] outright, the same
solution as a fresh elimination gives.  Each row r keeps its terms as its
solution column, the solution for e_r, and `Factorization.solve(b)`, b as
{row: value}, sums b_r times the column of each nonzero b_r.  The rank is
the pivot count.
"""
from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm

Row = dict[int, Fraction]


def _eliminate(row: dict, c: int, prow: dict) -> dict:
    """p*row - a*prow with a/p = row[c]/prow[c] in lowest terms, which
    clears column c on integers, divided by its content when that is not 1.
    row may be changed in place."""
    a, p = row[c], prow[c]
    g = gcd(a, p)
    a, p = a // g, p // g
    if p != 1:
        row = {j: p * v for j, v in row.items()}
    for j, v in prow.items():
        w = row.get(j, 0) - a * v
        if w:
            row[j] = w
        else:
            del row[j]
    if (g := gcd(*row.values())) != 1:
        row = {j: v // g for j, v in row.items()}
    return row


def _echelon(rows: Sequence[Row]) -> tuple[int, dict[int, dict[int, int]], list]:
    """(n, pivots, zero): the reduced echelon form of rows on integers,
    each row r extended by its combination comb of the input rows, as
    entries n + r for an n above every column.  pivots maps each pivot
    column c, highest first, to the row whose lowest column is c, zero on
    every other pivot column; zero lists (j, comb) for each row j that
    reduced to zero.  Each incoming row is reduced lowest column first
    against the pivot rows found so far, then the pivot rows are cleared
    of the higher pivot columns, highest pivot first."""
    n = max(map(max, filter(None, rows)), default=-1) + 1
    pivots: dict[int, dict[int, int]] = {}
    zero = []
    for r, row in enumerate(rows):
        den = lcm(*(v.denominator for v in row.values()))
        row = {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}
        row[n + r] = den
        while (c := min(row)) < n:
            if c not in pivots:
                pivots[c] = row
                break
            row = _eliminate(row, c, pivots[c])
        else:
            zero.append((r, row))
    pivots = dict(sorted(pivots.items(), reverse=True))
    for c, row in pivots.items():
        for i in [i for i in row if i in pivots and i != c]:
            row = _eliminate(row, i, pivots[i])
        pivots[c] = row
    return n, pivots, zero


class Factorization:
    """The factored matrix of rows with ncols unknowns: its reduced pivot
    rows, primitive with a positive pivot, highest column first, and the
    solution column of every row r: the flat tuple (i1, v1, i2, v2, ...)
    of the nonzero values of the solution for e_r, then (ncols + j, v) for
    each row j that reduced to zero, whose comb has v != 0 at r.  It holds
    no right-hand side, so one factorization serves any number of them."""

    __slots__ = ("ncols", "pivots", "columns")

    def __init__(self, rows: Sequence[Row], ncols: int):
        self.ncols = ncols
        n, reduced, zero = _echelon(rows)
        columns: list[list] = [[] for _ in rows]
        self.pivots: dict[int, dict[int, int]] = {}
        for c, row in reduced.items():
            p, prow = row[c], {}
            for j, v in row.items():
                if j < n:
                    prow[j] = v
                else:  # x_c takes b_r with weight v / p
                    columns[j - n] += (c, v // p if v % p == 0 else Fraction(v, p))
            g = gcd(*prow.values()) * (1 if p > 0 else -1)
            self.pivots[c] = prow if g == 1 else {j: v // g for j, v in prow.items()}
        for j, comb in zero:
            for r, v in comb.items():
                columns[r - n] += (ncols + j, v)
        self.columns = [tuple(column) for column in columns]

    def solve(self, b: dict[int, int | Fraction]) -> dict[int, int | Fraction] | None:
        """The particular solution of rows*x = b, b = {row: value}, as
        {column: value} of its nonzero values, each canonical
        (polyforms._canon): an int when integral, else a Fraction.  None if
        b is inconsistent: the comb of a row that reduced to zero takes b to
        a nonzero value.  A row that the matrix lacks raises ValueError."""
        acc: dict = {}
        for r, v in b.items():
            if not 0 <= r < len(self.columns):
                raise ValueError(f"row {r} is not a row of the matrix")
            if v:  # a column is never empty: x = 0 does not solve e_r
                entries = iter(self.columns[r])
                for i, w in zip(entries, entries):
                    acc[i] = acc.get(i, 0) + v * w
        if any(v for i, v in acc.items() if i >= self.ncols):
            return None
        return {i: v.numerator if type(v) is Fraction and v.denominator == 1 else v
                for i, v in acc.items() if v}
