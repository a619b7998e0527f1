"""Exact sparse linear algebra over Q used by the graded solvers.

A row is a dict from column index to a rational (Fraction or int); absent
columns are zero.  One fraction-free elimination serves every entry point,
in two steps.  `Factorization(rows, ncols)` factors the matrix once: each
incoming row has its denominators cleared once (by their lcm) and is
reduced on integers against pivot rows stored primitive (content 1,
positive pivot), and the integer operations each row took are logged.
`Factorization.solve(b)` replays that log on one right-hand side, in
O(operations), and back-substitutes; any number of calls replay one
factorization, so a matrix that many right-hand sides share is factored
once.  Pivot columns are the leftmost linearly independent columns, in
any row order, and free variables are zero: one solution per right-hand
side, the same from a replay as from a fresh elimination.  The rank of
a matrix is the number of its factorization's pivots.
"""
from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm

Row = dict[int, Fraction]


def _echelon(rows: Sequence[Row]) -> tuple[dict[int, dict[int, int]], list]:
    """Primitive integer pivot rows keyed by their lowest column, highest
    column first, and the log of what each incoming row went through.

    Each incoming row is multiplied by the lcm `den` of its denominators
    and reduced against the pivot rows found so far; its log entry is
    (den, c, g, ops).  ops is the flat tuple (c1, a1, p1, c2, a2, p2, ...)
    of the steps row = p*row - a*pivots[c], in order; the row then became
    the pivot row of column c after division by its content g, or reduced
    to zero, with c = -1.
    """
    pivots: dict[int, dict[int, int]] = {}
    log = []
    for row in rows:
        den = lcm(*(v.denominator for v in row.values()))
        row = {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}
        ops = []
        new = (-1, 1)
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                g = gcd(*row.values()) * (1 if row[c] > 0 else -1)
                pivots[c] = {j: v // g for j, v in row.items()}
                new = (c, g)
                break
            # row = (p/g)*row - (a/g)*prow clears column c on integers
            a, p = row[c], prow[c]
            g = gcd(a, p)
            a, p = a // g, p // g
            ops += (c, a, p)
            if p != 1:
                row = {j: p * v for j, v in row.items()}
            for j, v in prow.items():
                w = row.get(j, 0) - a * v
                if w:
                    row[j] = w
                else:
                    del row[j]
        log.append((den, *new, tuple(ops)))
    return dict(sorted(pivots.items(), reverse=True)), log


def _quotient(total, p: int):
    """total / p, canonical (polyforms._canon): an int when integral."""
    q = total // p if type(total) is int and total % p == 0 else Fraction(total, p)
    return q.numerator if type(q) is Fraction and q.denominator == 1 else q


class Factorization:
    """The factored matrix of rows with ncols unknowns: its pivot rows,
    highest column first, and the operation log of _echelon.  It holds no
    right-hand side, so one factorization serves any number of them."""

    __slots__ = ("ncols", "pivots", "log")

    def __init__(self, rows: Sequence[Row], ncols: int):
        self.ncols = ncols
        self.pivots, self.log = _echelon(rows)

    def solve(self, b: Sequence) -> list[int | Fraction] | None:
        """The particular solution of rows*x = b (a value per row), or None
        if b is inconsistent: a row that reduced to zero replays to a
        nonzero value.  Each value is canonical (polyforms._canon): an int
        when integral, else a Fraction."""
        if len(b) != len(self.log):
            raise ValueError("rhs length mismatch")
        # the replayed value of each pivot row, divided by its content
        # as the row was, so a Fraction where the content does not divide it
        values = {}
        for (den, pivot, g, ops), v in zip(self.log, b):
            v *= den
            steps = iter(ops)
            for c, a, p in zip(steps, steps, steps):
                v = p * v - a * values[c]
            if pivot >= 0:
                values[pivot] = _quotient(v, g) if v else 0
            elif v:
                return None
        x = [0] * self.ncols
        for c, prow in self.pivots.items():
            total = values[c]
            for i, v in prow.items():
                if i != c and x[i]:
                    total -= v * x[i]
            if total:
                x[c] = _quotient(total, prow[c])
        return x
