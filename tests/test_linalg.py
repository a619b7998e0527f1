"""The sparse exact solver against a Gauss-Jordan reference over Fraction.

The tests draw right-hand sides as dense lists, as the reference takes
them, and pass solve only their nonzeros, as {row: value}."""
import random
from fractions import Fraction
from math import gcd

import pytest

from atkernel import linalg
from atkernel.chaincore import hom_bracket, solve_coboundary
from atkernel.corpus import corpus_entries, random_chain_map
from atkernel.koszul import build_koszul
from oracles import gauss_jordan, gauss_jordan_columns, rank_oracle


def _random_system(rng, nrows, ncols, density):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < density:
                row[c] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        rows.append(row)
    # a consistent right-hand side about half the time
    if rng.random() < 0.5:
        x = [Fraction(rng.randint(-2, 2)) for _ in range(ncols)]
        rhs = [sum((v * x[c] for c, v in row.items()), Fraction(0)) for row in rows]
    else:
        rhs = [Fraction(rng.randint(-2, 2)) for _ in rows]
    return rows, rhs


def _rank(rows, ncols):
    return len(linalg.Factorization(rows, ncols).pivots)


def _sparse(vector):
    """A dense right-hand side or solution as {index: value} of its
    nonzeros, the form solve takes and returns; None stays None."""
    return None if vector is None else {i: v for i, v in enumerate(vector) if v}


def _assert_canonical(solution, ncols):
    """Nonzero values only, on unknowns 0 .. ncols - 1, each an int when
    integral, else a Fraction with denominator > 1."""
    for c, v in solution.items():
        assert 0 <= c < ncols and v, (c, v)
        assert type(v) is int or (type(v) is Fraction and v.denominator > 1), repr(v)


def _assert_matches_reference(rows, rhs, ncols):
    ref_rank, ref_solution = gauss_jordan(rows, rhs, ncols)
    system = linalg.Factorization(rows, ncols)
    assert len(system.pivots) == ref_rank
    solution = system.solve(_sparse(rhs))
    assert solution == _sparse(ref_solution)
    if solution is not None:
        _assert_canonical(solution, ncols)
        for row, b in zip(rows, rhs):
            assert sum((v * solution.get(c, 0) for c, v in row.items()), Fraction(0)) == b


@pytest.mark.parametrize("seed", range(8))
def test_random_sparse_systems_match_dense_reference(seed):
    rng = random.Random(f"linalg:{seed}")
    for _ in range(60):
        nrows, ncols = rng.randint(1, 14), rng.randint(1, 14)
        rows, rhs = _random_system(rng, nrows, ncols, rng.choice((0.1, 0.25, 0.5)))
        _assert_matches_reference(rows, rhs, ncols)


def test_rank_oracle_matches_gauss_jordan():
    """rank_oracle, by which the regularity scan ranks, against
    gauss_jordan's rank: 300 seeded systems of Fraction rows, a third of
    them with rows that are combinations of others."""
    rng = random.Random("linalg:rank")
    deficient = 0
    for trial in range(300):
        nrows, ncols = rng.randint(0, 14), rng.randint(1, 14)
        rows, _ = _random_system(rng, nrows, ncols, rng.choice((0.1, 0.25, 0.5, 0.9)))
        if trial % 3 == 0 and rows:
            combo = {}
            for row in rng.sample(rows, min(3, len(rows))):
                k = Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 3))
                for c, v in row.items():
                    combo[c] = combo.get(c, 0) + k * v
            rows.insert(rng.randrange(len(rows) + 1), combo)
        rank = gauss_jordan(rows, [0] * len(rows), ncols)[0]
        assert rank_oracle(rows) == rank, rows
        deficient += rank < len(rows)
    assert deficient >= 100


def test_zero_rows():
    assert _rank([], 3) == 0
    assert linalg.Factorization([], 3).solve({}) == {}
    _assert_matches_reference([], [], 3)


def test_zero_columns():
    assert _rank([{}, {}], 0) == 0
    assert linalg.Factorization([{}, {}], 0).solve({0: Fraction(0), 1: Fraction(0)}) == {}
    assert linalg.Factorization([{}, {}], 0).solve({1: Fraction(1)}) is None
    _assert_matches_reference([{}, {}], [Fraction(0), Fraction(0)], 0)
    _assert_matches_reference([{}, {}], [Fraction(0), Fraction(1)], 0)


def test_all_zero_rhs_gives_zero_solution():
    rows = [{0: Fraction(1), 2: Fraction(-1)}, {1: Fraction(2)}, {0: Fraction(3), 2: Fraction(-3)}]
    rhs = [Fraction(0)] * 3
    # zero values given explicitly are zero rows of b
    assert linalg.Factorization(rows, 3).solve(dict(enumerate(rhs))) == {}
    _assert_matches_reference(rows, rhs, 3)


def test_duplicate_rows():
    row = {0: Fraction(1, 2), 3: Fraction(2)}
    rows = [row, dict(row), {1: Fraction(1)}, dict(row)]
    rhs = [Fraction(5)] * 4
    assert _rank(rows, 4) == 2
    assert linalg.Factorization(rows, 4).solve(_sparse(rhs)) == {0: 10, 1: 5}
    _assert_matches_reference(rows, rhs, 4)


def test_inconsistent_only_in_last_row():
    rows = [{0: Fraction(1)}, {1: Fraction(1)}, {0: Fraction(1), 1: Fraction(1)}]
    system = linalg.Factorization(rows, 2)
    assert system.solve({0: Fraction(1), 1: Fraction(2), 2: Fraction(3)}) == {0: 1, 1: 2}
    assert system.solve({0: Fraction(1), 1: Fraction(2), 2: Fraction(4)}) is None
    _assert_matches_reference(rows, [Fraction(1), Fraction(2), Fraction(4)], 2)


def test_cancelled_entries_and_inputs_untouched():
    rows = [{0: Fraction(0), 1: Fraction(2)}, {1: Fraction(4), 2: Fraction(0)}]
    snapshot = [dict(row) for row in rows]
    assert _rank(rows, 3) == 1
    solved = linalg.Factorization(rows, 3).solve({0: Fraction(1), 1: Fraction(2)})
    assert solved == {1: Fraction(1, 2)}
    assert rows == snapshot


def test_rhs_length_mismatch():
    """b names rows by index, so a row past the end of the matrix is
    refused, even with a zero value, and so is any row of an empty one."""
    system = linalg.Factorization([{0: Fraction(1)}], 1)
    for b in ({1: 1}, {0: 1, 5: 0}):
        with pytest.raises(ValueError):
            system.solve(b)
    with pytest.raises(ValueError):
        linalg.Factorization([], 3).solve({0: 1})


def test_column_length_mismatch_raises():
    """A negative row is refused, not read as another row's column, and so
    is a row past the end; rows inside the matrix still solve."""
    system = linalg.Factorization([{0: Fraction(1)}, {1: Fraction(1)}], 2)
    for b in ({-1: 1}, {2: 1}, {0: 1, -1: 0}, {0: 1, 5: 0}):
        with pytest.raises(ValueError):
            system.solve(b)
    assert system.solve({0: 1, 1: 2}) == {0: 1, 1: 2}


def _hilbert(n):
    return [{j: Fraction(1, i + j + 1) for j in range(n)} for i in range(n)]


def test_hilbert_matrix_large_denominators():
    rows = _hilbert(8)
    assert _rank(rows, 8) == 8
    # the solution of H x = (1, .., 1) has integer entries up to 216216
    _assert_matches_reference(rows, [Fraction(1)] * 8, 8)
    rhs = [Fraction(i + 1, 2**i) for i in range(8)]
    _assert_matches_reference(rows, rhs, 8)
    # a dependent ninth row and a right-hand side that breaks it
    extra = {j: rows[1][j] - 3 * rows[5][j] for j in range(8)}
    _assert_matches_reference(rows + [extra], rhs + [rhs[1] - 3 * rhs[5]], 8)
    _assert_matches_reference(rows + [extra], rhs + [rhs[1]], 8)


@pytest.mark.parametrize("seed", range(3))
def test_rows_mixing_int_and_fraction_values(seed):
    rng = random.Random(f"linalg:mixed:{seed}")
    for _ in range(40):
        nrows, ncols = rng.randint(1, 10), rng.randint(1, 10)
        rows, rhs = _random_system(rng, nrows, ncols, 0.4)
        rows = [{c: int(v) if v.denominator == 1 else v for c, v in row.items()} for row in rows]
        rhs = [int(b) if rng.random() < 0.5 and b.denominator == 1 else b for b in rhs]
        _assert_matches_reference(rows, rhs, ncols)


def test_solution_entries_are_canonical():
    """An int when integral, else a Fraction with denominator > 1, and
    equal to the reference's solution."""
    rows = [{0: 2, 1: 1}, {1: 3}, {0: Fraction(1, 2), 2: 1}]
    for rhs in ([1, 2, 3], [0, 0, 0], [Fraction(1, 3), 0, 5]):
        solution = linalg.Factorization(rows, 4).solve(_sparse(rhs))
        _assert_canonical(solution, 4)
        _assert_matches_reference(rows, rhs, 4)
    # seeded Fraction rows, with integral and non-integral solutions
    rng = random.Random("linalg:canonical")
    fractional = 0
    for _ in range(200):
        ncols = rng.randint(1, 10)
        rows, _ = _random_system(rng, rng.randint(1, 10), ncols, 0.4)
        x = [Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) for _ in range(ncols)]
        rhs = [sum((v * x[c] for c, v in row.items()), Fraction(0)) for row in rows]
        solution = linalg.Factorization(rows, ncols).solve(_sparse(rhs))
        _assert_canonical(solution, ncols)
        _assert_matches_reference(rows, rhs, ncols)
        fractional += any(type(v) is Fraction for v in solution.values())
    assert fractional > 0


def _assert_reduced_echelon(system):
    """Each pivot row is zero on every other pivot column, primitive, with
    a positive pivot at its lowest column; the pivots run highest column
    first."""
    assert list(system.pivots) == sorted(system.pivots, reverse=True)
    for c, prow in system.pivots.items():
        assert min(prow) == c and prow[c] > 0
        assert all(type(v) is int and v for v in prow.values())
        assert gcd(*prow.values()) == 1
        assert not prow.keys() & system.pivots.keys() - {c}


@pytest.mark.parametrize("seed", range(4))
def test_pivot_rows_are_primitive_with_positive_pivot(seed):
    rng = random.Random(f"linalg:primitive:{seed}")
    for _ in range(40):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        rows, rhs = _random_system(rng, nrows, ncols, rng.choice((0.25, 0.5)))
        with_rhs = [{**row, ncols: b} for row, b in zip(rows, rhs)]
        for system in (linalg.Factorization(rows, ncols),
                       linalg.Factorization(with_rhs, ncols + 1)):
            _assert_reduced_echelon(system)


def _assert_columns_match_reference(rows, columns, ncols):
    """Several right-hand sides on one factorization, each solved alone:
    each answer is the reference's, None for an inconsistent column.
    Returns the answers."""
    system = linalg.Factorization(rows, ncols)
    solved = [system.solve(_sparse(b)) for b in columns]
    assert solved == [_sparse(gauss_jordan(rows, b, ncols)[1]) for b in columns]
    return solved


@pytest.mark.parametrize("seed", range(6))
def test_several_right_hand_sides_match_dense_reference_column_by_column(seed):
    rng = random.Random(f"linalg:columns:{seed}")
    inconsistent = 0
    for _ in range(40):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        rows, _ = _random_system(rng, nrows, ncols, rng.choice((0.1, 0.25, 0.5)))
        columns = []
        for _ in range(rng.randint(1, 4)):
            x = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(ncols)]
            columns.append([sum((v * x[c] for c, v in row.items()), Fraction(0)) for row in rows])
        # consistent columns, then one of them replaced by a random one
        _assert_columns_match_reference(rows, columns, ncols)
        broken = list(columns)
        broken[rng.randrange(len(broken))] = [Fraction(rng.randint(-2, 2)) for _ in rows]
        inconsistent += None in _assert_columns_match_reference(rows, broken, ncols)
    assert inconsistent > 0


def test_one_inconsistent_column_makes_the_result_none():
    """A bad column alone gives None, and a good column still solves on
    the same factorization afterwards."""
    rows = [{0: Fraction(1)}, {1: Fraction(1)}, {0: Fraction(1), 1: Fraction(1)}]
    good, bad = [Fraction(1), Fraction(2), Fraction(3)], [Fraction(1), Fraction(2), Fraction(4)]
    system = linalg.Factorization(rows, 2)
    assert system.solve(_sparse(good)) == {0: 1, 1: 2}
    assert system.solve(_sparse(bad)) is None
    assert system.solve(_sparse(good)) == {0: 1, 1: 2}
    _assert_columns_match_reference(rows, [good, bad], 2)


def test_all_zero_columns_give_zero_solutions():
    rows = [{0: Fraction(1), 2: Fraction(-1)}, {1: Fraction(2)}, {0: Fraction(3), 2: Fraction(-3)}]
    zero = {0: Fraction(0), 1: Fraction(0), 2: Fraction(0)}
    system = linalg.Factorization(rows, 3)
    assert system.solve(zero) == {}
    assert system.solve({0: 1, 2: 3}) == {0: 1}
    assert system.solve(zero) == {}
    empty = linalg.Factorization([{}, {}], 0)
    assert empty.solve({}) == {}
    assert empty.solve({1: 1}) is None


def _consistent_column(rng, rows, ncols):
    x = [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 5))) for _ in range(ncols)]
    return [sum((v * x[c] for c, v in row.items()), Fraction(0)) for row in rows]


@pytest.mark.parametrize("seed", range(6))
def test_one_factorization_replays_many_right_hand_sides(seed):
    """Each system is factored once, then solved against 1-4 consistent
    columns one at a time, an inconsistent one, and consistent columns
    again; every answer is the reference's.  The systems have all-zero rows,
    0 = b rows and fractional right-hand sides."""
    rng = random.Random(f"linalg:replay:{seed}")
    seen = {"fractional": 0, "random inconsistent": 0}
    for _ in range(40):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        rows, _ = _random_system(rng, nrows, ncols, rng.choice((0.1, 0.25, 0.5)))
        zero_row = rng.randrange(len(rows) + 1)
        rows.insert(zero_row, {})
        system = linalg.Factorization(rows, ncols)
        assert len(system.pivots) == gauss_jordan(rows, [0] * len(rows), ncols)[0]

        def check(b):
            got = system.solve(_sparse(b))
            assert got == _sparse(gauss_jordan(rows, b, ncols)[1])
            if got is not None:
                _assert_canonical(got, ncols)
            return got

        def consistent():
            columns = [_consistent_column(rng, rows, ncols) for _ in range(rng.randint(1, 4))]
            seen["fractional"] += any(v.denominator > 1 for b in columns for v in b)
            return columns

        assert None not in map(check, consistent())
        # a nonzero value on the all-zero row is the equation 0 = b
        b = _consistent_column(rng, rows, ncols)
        b[zero_row] = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 3)))
        assert check(b) is None
        # a random column, inconsistent whenever the rows are dependent
        seen["random inconsistent"] += check(
            [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in rows]) is None
        assert None not in map(check, consistent())
    assert all(seen.values())


def test_factorization_is_reused_without_change():
    """Solving leaves the factorization as it was, so an inconsistent
    column between two consistent ones changes neither answer."""
    rows = [{0: Fraction(1, 2), 1: 3}, {0: 1, 1: 6}, {}, {1: Fraction(2, 3), 2: 1}]
    system = linalg.Factorization(rows, 3)
    snapshot = ({c: dict(prow) for c, prow in system.pivots.items()}, list(system.columns))
    good = [Fraction(1, 3), Fraction(2, 3), 0, 2]
    # pivots in columns 0 and 1, x2 free: x1 = 3, x0 = 2 * (1/3 - 9)
    assert system.solve(_sparse(good)) == {0: Fraction(-52, 3), 1: 3}
    assert system.solve({0: 1, 1: 2, 2: 1}) is None
    assert system.solve({0: 1, 1: 3}) is None
    assert system.solve(_sparse(good)) == {0: Fraction(-52, 3), 1: 3}
    assert (system.pivots, system.columns) == snapshot
    with pytest.raises(ValueError):
        system.solve({4: 1})


def _assert_matches_gauss_jordan(system, rows, b, ncols, want=...):
    """solve(b) equals the Gauss-Jordan reference, canonical, or want
    when the caller has it from gauss_jordan_columns.  Returns the answer."""
    got = system.solve(_sparse(b))
    assert got == _sparse(gauss_jordan(rows, b, ncols)[1] if want is ... else want)
    if got is not None:
        _assert_canonical(got, ncols)
    return got


def _zero_reduced(system):
    """The rows that reduced to zero, read off their keys ncols + j."""
    return {i - system.ncols for column in system.columns for i in column[::2]
            if i >= system.ncols}


def _dependent_system(rng):
    """Random rows, some scaled by 2, 3 or 6 so that their content is > 1,
    and 1-3 extra rows that are combinations of them, inserted anywhere,
    so that some rows reduce to zero through the others."""
    nrows, ncols = rng.randint(2, 10), rng.randint(1, 10)
    rows, _ = _random_system(rng, nrows, ncols, rng.choice((0.25, 0.5)))
    rows = [{c: v * rng.choice((1, 2, 3, 6)) for c, v in row.items()} for row in rows]
    for _ in range(rng.randint(1, 3)):
        combo = {}
        for row in rng.sample(rows, rng.randint(1, min(3, len(rows)))):
            k = Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
            for c, v in row.items():
                combo[c] = combo.get(c, 0) + k * v
        rows.insert(rng.randrange(len(rows) + 1), {c: v for c, v in combo.items() if v})
    return rows, ncols


@pytest.mark.parametrize("seed", range(6))
def test_solution_columns_match_gauss_jordan(seed):
    """Every unit vector, and then consistent fractional b and b that is
    nonzero only on pivot rows, matches Gauss-Jordan, on a fresh
    factorization and again after other right-hand sides.  b on the pivot
    rows is inconsistent exactly when a row that reduced to zero, with
    b = 0 there, depends on them (the residual path)."""
    rng = random.Random(f"linalg:columns-vs-replay:{seed}")
    seen = {"fraction in a column": 0, "fractional b": 0, "residual path": 0,
            "inconsistent unit vector": 0}
    for _ in range(40):
        rows, ncols = _dependent_system(rng)
        zero_reduced = _zero_reduced(linalg.Factorization(rows, ncols))
        consistent = _consistent_column(rng, rows, ncols)
        on_pivot_rows = [0 if j in zero_reduced else Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                         for j in range(len(rows))]
        units = linalg.Factorization(rows, ncols)
        for r in range(len(rows)):
            unit = [int(j == r) for j in range(len(rows))]
            seen["inconsistent unit vector"] += _assert_matches_gauss_jordan(
                units, rows, unit, ncols) is None
        for b in (consistent, on_pivot_rows):
            fresh = linalg.Factorization(rows, ncols)
            first = _assert_matches_gauss_jordan(fresh, rows, b, ncols)
            warmed = linalg.Factorization(rows, ncols)
            for _ in range(rng.randint(1, 3)):
                other = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if rng.random() < 0.4
                         else 0 for _ in rows]
                other[rng.randrange(len(rows))] = rng.choice((-1, 1, Fraction(1, 2)))
                _assert_matches_gauss_jordan(warmed, rows, other, ncols)
            assert _assert_matches_gauss_jordan(warmed, rows, b, ncols) == first
            assert _assert_matches_gauss_jordan(fresh, rows, b, ncols) == first
            seen["fraction in a column"] += any(
                type(v) is Fraction for column in warmed.columns for v in column[1::2])
            seen["fractional b"] += any(type(v) is Fraction and v.denominator > 1 for v in b)
            seen["residual path"] += first is None and b is on_pivot_rows
    assert all(seen.values()), seen


def test_inconsistency_on_a_zero_reduced_row_with_zero_right_hand_side():
    """Row 2 is row 0 plus row 1, so it reduces to zero; b is zero there,
    and nonzero only on the pivot rows, whose columns reach row 2."""
    rows = [{0: 2, 1: 4}, {1: 3}, {0: 2, 1: 7}]
    system = linalg.Factorization(rows, 2)
    assert list(system.pivots) == [1, 0] and _zero_reduced(system) == {2}
    assert all(2 + 2 in column[::2] for column in system.columns)
    for b in ([1, 0, 0], [0, 1, 0], [Fraction(1, 2), 1, 0]):
        assert _assert_matches_gauss_jordan(system, rows, b, 2) is None
    assert _assert_matches_gauss_jordan(system, rows, [1, 3, 4], 2) == {0: Fraction(-3, 2), 1: 1}
    # the reduced pivot row of column 0 is 6*x0 = 3*row 0 - 4*row 1
    assert system.columns[0][:2] == (0, Fraction(1, 2))


@pytest.mark.parametrize("seed", range(4))
def test_each_column_is_built_once(seed):
    """Every row's solution column is complete at construction: read as a
    solution, column r is Gauss-Jordan's for e_r, with a key ncols + j
    exactly when e_r is inconsistent.  No solve adds or changes a column,
    and solving again gives the same answer."""
    rng = random.Random(f"linalg:built-once:{seed}")
    for _ in range(20):
        rows, ncols = _dependent_system(rng)
        system = linalg.Factorization(rows, ncols)
        snapshot = list(system.columns)
        assert len(snapshot) == len(rows)
        for r, column in enumerate(snapshot):
            entries = dict(zip(column[::2], column[1::2]))
            reference = gauss_jordan(rows, [int(j == r) for j in range(len(rows))], ncols)[1]
            if reference is None:
                assert max(entries) >= ncols
            else:
                assert entries == _sparse(reference)
        for _ in range(rng.randint(1, 5)):
            b = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) if rng.random() < 0.3 else 0
                 for _ in rows]
            first = system.solve(_sparse(b))
            assert system.columns == snapshot
            assert system.solve(_sparse(b)) == first and system.columns == snapshot


@pytest.mark.parametrize("seed", range(4))
def test_pivot_rows_are_in_reduced_echelon_form(seed):
    """On seeded dependent systems, many with an input row that meets two
    pivot columns, and on every block that one solve_coboundary factors
    and keeps.  (test_pivot_rows_are_primitive_with_positive_pivot checks
    the same on independent random systems.)"""
    rng = random.Random(f"linalg:reduced:{seed}")
    two_pivots = 0
    for _ in range(40):
        rows, ncols = _dependent_system(rng)
        system = linalg.Factorization(rows, ncols)
        _assert_reduced_echelon(system)
        two_pivots += any(len({c for c, v in row.items() if v} & system.pivots.keys()) > 1
                          for row in rows)
    assert two_pivots
    kz = build_koszul(corpus_entries()[seed].ideal)
    assert solve_coboundary(hom_bracket(random_chain_map(random.Random(seed), kz, 0, 1))).solvable
    blocks = [block for _, kept in kz.complex._coboundary_blocks.values()
              for block in kept.values()]
    assert blocks
    for block in blocks:
        _assert_reduced_echelon(block.factored)


def test_dense_system_with_dependent_rows_matches_gauss_jordan():
    """A dense 40 x 40 system, entries in -3..3, with 4 rows that are
    combinations of the others, inserted anywhere: every unit vector
    matches Gauss-Jordan, all 40 from one reference elimination.  Dense
    rows are where the back pass grows its integers most."""
    rng = random.Random("linalg:dense")
    n = 40
    rows = [{c: v for c in range(n) if (v := rng.randint(-3, 3))} for _ in range(n - 4)]
    for _ in range(4):
        combo = {}
        for row in rng.sample(rows, 3):
            k = rng.choice((-2, -1, 1, 3))
            for c, v in row.items():
                combo[c] = combo.get(c, 0) + k * v
        rows.insert(rng.randrange(len(rows) + 1), {c: v for c, v in combo.items() if v})
    system = linalg.Factorization(rows, n)
    _assert_reduced_echelon(system)
    inconsistent = 0
    units = [[int(j == r) for j in range(n)] for r in range(n)]
    for unit, want in zip(units, gauss_jordan_columns(rows, units, n)[1]):
        inconsistent += _assert_matches_gauss_jordan(system, rows, unit, n, want) is None
    assert len(system.pivots) == n - 4 and inconsistent


@pytest.mark.parametrize("seed", range(4))
def test_right_hand_sides_with_few_nonzeros_match_gauss_jordan(seed):
    """The shape of right-hand side that the coboundary decisions send:
    1-3 nonzeros, on the random sparse systems and the dependent systems
    drawn above, each against Gauss-Jordan.  A solution holds nonzero
    values only, on unknowns below ncols."""
    rng = random.Random(f"linalg:few-nonzeros:{seed}")
    seen = {"solvable": 0, "inconsistent": 0, "fractional": 0, "three nonzeros": 0}
    for trial in range(40):
        if trial % 2:
            rows, ncols = _dependent_system(rng)
        else:
            nrows, ncols = rng.randint(1, 14), rng.randint(1, 14)
            rows, _ = _random_system(rng, nrows, ncols, rng.choice((0.1, 0.25, 0.5)))
        system = linalg.Factorization(rows, ncols)
        for _ in range(6):
            support = rng.sample(range(len(rows)), min(len(rows), rng.randint(1, 3)))
            b = {r: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)) for r in support}
            got = system.solve(b)
            assert got == _sparse(gauss_jordan(rows, [b.get(r, 0) for r in range(len(rows))],
                                               ncols)[1])
            seen["three nonzeros"] += len(b) == 3
            if got is None:
                seen["inconsistent"] += 1
                continue
            _assert_canonical(got, ncols)
            seen["solvable"] += 1
            seen["fractional"] += any(type(v) is Fraction for v in got.values())
    assert all(seen.values()), seen
