"""Exact sparse linear algebra over Q used by the graded solvers.

A row is a dict from column index to a rational (Fraction or int); absent
columns are zero.  One fraction-free elimination serves every entry point,
in two steps.  `Factorization(rows, ncols)` factors the matrix once: each
incoming row has its denominators cleared once (by their lcm) and is
reduced on integers against pivot rows stored primitive (content 1,
positive pivot), and the integer operations each row took are logged.
`Factorization.solve(b)` sums b_r times the kept solution column of each
nonzero b_r, the solution for the unit vector e_r, which a sparse reach
from e_r builds on first use (Gilbert-Peierls), in time proportional to
its arithmetic.  Pivot columns are the leftmost linearly independent
columns, in any row order, and free variables are zero: one solution per
right-hand side, linear in it, so the sum of columns is the solution that
replaying the log on b gives, the same as from a fresh elimination.  The
rank of a matrix is the number of its factorization's pivots.
"""
from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from heapq import heappop, heappush
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
    highest column first, the operation log of _echelon, and the solution
    column of each row built so far: the flat tuple (i1, v1, i2, v2, ...) of
    the nonzero values of the solution for e_r, then (ncols + j, v) for each
    row j that reduced to zero and replays to v != 0.  It holds no
    right-hand side, so one factorization serves any number of them."""

    __slots__ = ("ncols", "pivots", "log", "columns", "_readers", "_users")

    def __init__(self, rows: Sequence[Row], ncols: int):
        self.ncols = ncols
        self.pivots, self.log = _echelon(rows)
        self.columns: dict[int, tuple] = {}
        # log rows by the pivot they read, pivot rows by the column they read
        self._readers: dict[int, list[int]] = {}
        for j, (_, _, _, ops) in enumerate(self.log):
            for c in ops[::3]:
                self._readers.setdefault(c, []).append(j)
        self._users: dict[int, list[int]] = {}
        for c, prow in self.pivots.items():
            for i in prow:
                if i != c and i in self.pivots:
                    self._users.setdefault(i, []).append(c)

    def solve(self, b: Sequence) -> list[int | Fraction] | None:
        """The particular solution of rows*x = b (a value per row), or None
        if b is inconsistent: a row that reduced to zero replays to a
        nonzero value.  Each value is canonical (polyforms._canon): an int
        when integral, else a Fraction."""
        if len(b) != len(self.log):
            raise ValueError("rhs length mismatch")
        acc: dict = {}
        for r, v in enumerate(b):
            if v:  # a column is never empty: x = 0 does not solve e_r
                entries = iter(self.columns.get(r) or self._column(r))
                for i, w in zip(entries, entries):
                    acc[i] = acc.get(i, 0) + v * w
        x = [0] * self.ncols
        for i, v in acc.items():
            if v:
                if i >= self.ncols:
                    return None
                x[i] = v.numerator if type(v) is Fraction and v.denominator == 1 else v
        return x

    def _column(self, r: int) -> tuple:
        """Build and keep row r's column by a sparse reach from e_r: replay
        a log row once a pivot it reads is nonzero, in log order (it reads
        earlier rows' pivots), dividing a pivot row's value by its content,
        then back-substitute a pivot once its value or an x it reads is
        nonzero, highest column first (its row reads higher columns)."""
        values, column = {}, []  # the replayed value of each nonzero pivot row
        heap, queued = [r], {r}
        while heap:
            j = heappop(heap)
            den, pivot, g, ops = self.log[j]
            v = den if j == r else 0
            steps = iter(ops)
            for c, a, p in zip(steps, steps, steps):
                v = p * v - a * values.get(c, 0)
            if v and pivot < 0:
                column += (self.ncols + j, v)
            elif v:
                values[pivot] = _quotient(v, g)
                for k in self._readers.get(pivot, ()):
                    if k not in queued:
                        queued.add(k)
                        heappush(heap, k)
        x = {}
        heap, queued = sorted(-c for c in values), set(values)  # a sorted list is a heap
        while heap:
            c = -heappop(heap)
            prow = self.pivots[c]
            total = values.get(c, 0)
            for i, v in prow.items():
                if i in x:
                    total -= v * x[i]
            if total:
                x[c] = _quotient(total, prow[c])
                column += (c, x[c])
                for u in self._users.get(c, ()):
                    if u not in queued:
                        queued.add(u)
                        heappush(heap, -u)
        self.columns[r] = column = tuple(column)
        return column
