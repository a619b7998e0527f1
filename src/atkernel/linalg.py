"""Exact sparse linear algebra over Q used by the graded solvers.

A row is a dict from column index to Fraction; absent columns are zero.
One elimination routine serves both entry points.  Its pivot columns are
the leftmost linearly independent columns, whatever the row order, and
free variables are set to zero, so the particular solution is unique.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Row = dict[int, Fraction]


def _echelon(rows: Sequence[Row], rhs_col: int | None = None) -> dict[int, Row] | None:
    """Pivot rows keyed by their lowest column, each scaled to pivot 1.

    Each incoming row is reduced against the pivot rows found so far.  A
    row carrying a right-hand side at column `rhs_col` that reduces to
    that entry alone is inconsistent, and the answer is None.
    """
    pivots: dict[int, Row] = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                if c == rhs_col:
                    return None
                inv = 1 / row[c]
                pivots[c] = {j: v * inv for j, v in row.items()}
                break
            factor = row[c]
            for j, v in prow.items():
                w = row.get(j, 0) - factor * v
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
        known = sum(v * x[j] for j, v in prow.items() if c < j < ncols)
        x[c] = prow.get(ncols, Fraction(0)) - known
    return x
