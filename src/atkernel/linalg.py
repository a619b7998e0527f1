"""Exact sparse linear algebra over Q used by the graded solvers.

A row is a dict from column index to a rational (Fraction or int); absent
columns are zero.  One fraction-free elimination serves both entry points:
each incoming row has its denominators cleared once (by their lcm) and is
reduced on integers against pivot rows stored primitive (content 1,
positive pivot).  Rationals appear only in back-substitution.  The pivot
columns are the leftmost linearly independent columns, whatever the row
order, and free variables are zero, so the particular solution is unique.
"""
from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm

Row = dict[int, Fraction]


def _echelon(rows: Sequence[Row], rhs_col: int | None = None) -> dict[int, dict[int, int]] | None:
    """Primitive integer pivot rows keyed by their lowest column.

    Each incoming row is reduced against the pivot rows found so far.  A
    row carrying a right-hand side at column `rhs_col` that reduces to
    that entry alone is inconsistent, and the answer is None.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        den = lcm(*(v.denominator for v in row.values()))
        row = {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                if c == rhs_col:
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


def solve(rows: Sequence[Row], rhs: Sequence[Fraction], ncols: int) -> list[Fraction] | None:
    """One particular solution of rows*x = rhs, or None if inconsistent."""
    if len(rows) != len(rhs):
        raise ValueError("rhs length mismatch")
    pivots = _echelon([{**row, ncols: b} for row, b in zip(rows, rhs)], ncols)
    if pivots is None:
        return None
    x = [Fraction(0)] * ncols
    for c in sorted(pivots, reverse=True):
        prow = pivots[c]
        total = Fraction(prow.get(ncols, 0))
        for j, v in prow.items():
            if c < j < ncols and x[j]:
                total -= v * x[j]
        x[c] = total / prow[c]
    return x
