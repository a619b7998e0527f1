"""Exact sparse linear algebra over Q used by the graded solvers.

A row is a dict from column index to a rational (Fraction or int); absent
columns are zero.  One fraction-free elimination serves both entry points:
each incoming row has its denominators cleared once (by their lcm) and is
reduced on integers against pivot rows stored primitive (content 1,
positive pivot).  `solve` eliminates once for several right-hand sides,
each one more column after the unknowns, and back-substitutes once per
column, building a Fraction only where a pivot does not divide.  Pivot
columns are the leftmost linearly independent columns, in any row order,
and free variables are zero: one solution per right-hand side.
"""
from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import compress
from math import gcd, lcm

Row = dict[int, Fraction]


def _echelon(rows: Sequence[Row], rhs_from: int | None = None) -> dict[int, dict[int, int]] | None:
    """Primitive integer pivot rows keyed by their lowest column.

    Each incoming row is reduced against the pivot rows found so far.
    Columns from `rhs_from` on hold right-hand sides: a row that reduces
    to those columns alone is inconsistent, and the answer is None.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        den = lcm(*(v.denominator for v in row.values()))
        row = ({c: v.numerator for c, v in row.items() if v} if den == 1 else
               {c: v.numerator * (den // v.denominator) for c, v in row.items() if v})
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                if rhs_from is not None and c >= rhs_from:
                    return None
                g = gcd(*row.values()) * (1 if row[c] > 0 else -1)
                pivots[c] = {j: v // g for j, v in row.items()}
                break
            # row = (p/g)*row - (a/g)*prow clears column c on integers
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
    return pivots


def rank(rows: Sequence[Row]) -> int:
    return len(_echelon(rows))


def solve(rows: Sequence[Row], rhs: Sequence[Sequence[Fraction]],
          ncols: int) -> list[list[int | Fraction]] | None:
    """One particular solution of rows*x = b per column b of rhs (a value per
    row), or None if any column is inconsistent; each value is canonical
    (polyforms._canon): an int when integral, else a Fraction."""
    if any(len(b) != len(rows) for b in rhs):
        raise ValueError("rhs length mismatch")
    augmented = list(rows)
    for j, b in enumerate(rhs, ncols):
        for r in compress(range(len(b)), b):  # the rows where b is nonzero
            augmented[r] = {**augmented[r], j: b[r]}
    pivots = _echelon(augmented, ncols)
    if pivots is None:
        return None
    solutions = []
    for j in range(ncols, ncols + len(rhs)):
        x = [0] * ncols
        for c in sorted(pivots, reverse=True):
            prow = pivots[c]
            total = prow.get(j, 0)
            for i, v in prow.items():
                if c < i < ncols and x[i]:
                    total -= v * x[i]
            x[c] = total // prow[c] if total % prow[c] == 0 else Fraction(total, prow[c])
        solutions.append(x)
    return solutions
