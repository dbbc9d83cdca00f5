"""Exact linear algebra over GF(2), checked against brute force on small sizes."""

import random
from itertools import product

import pytest

from becochains.gf2 import BitMatrix, _pivot_basis, rank, rowspace_basis, solve
from reference import low_pivot_rank, mat_vec, vec_mat


def brute_rank(rows, cols):
    """Rank by enumerating the row span."""
    span = {0}
    for r in rows:
        span |= {x ^ r for x in span}
    return len(span).bit_length() - 1


def all_matrices(rows, cols):
    for data in product(range(1 << cols), repeat=rows):
        yield BitMatrix(rows, cols, list(data))


def random_matrix(rng, rows, cols, density):
    data = [sum((rng.random() < density) << j for j in range(cols)) for _ in range(rows)]
    return BitMatrix(rows, cols, data)


# Seeded shapes: sparse square-ish, tall (rows >> cols) and wide (cols >> rows).
# The smaller side stays at most 12 so that brute_rank enumerates at most 4096.
SHAPES = {
    "sparse": lambda rng: random_matrix(rng, rng.randint(1, 12), rng.randint(1, 12), 0.15),
    "tall": lambda rng: random_matrix(rng, rng.randint(20, 40), rng.randint(1, 10), 0.3),
    "wide": lambda rng: random_matrix(rng, rng.randint(1, 10), rng.randint(20, 40), 0.3),
}


def seeded_matrices(shape, seed, count=40):
    rng = random.Random(seed)
    return [SHAPES[shape](rng) for _ in range(count)]


def test_rank_matches_brute_force_exhaustive():
    for rows, cols in ((1, 1), (2, 2), (2, 3), (3, 2), (3, 3)):
        for m in all_matrices(rows, cols):
            assert rank(m) == brute_rank(m.data, cols)


def test_rank_random_larger():
    rng = random.Random(11)
    for _ in range(50):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        data = [rng.getrandbits(cols) for _ in range(rows)]
        m = BitMatrix(rows, cols, list(data))
        assert rank(m) == brute_rank(data, cols)


def test_solve_exhaustive_small():
    for m in all_matrices(3, 2):
        for b in range(4):
            x = solve(m, b)
            if x is None:
                # no x in the full cube picks rows that sum to b
                for cand in range(8):
                    assert vec_mat(m.data, cand) != b
            else:
                assert x >> m.rows == 0 and vec_mat(m.data, x) == b


def test_solve_random_consistency():
    rng = random.Random(5)
    for _ in range(100):
        rows, cols = rng.randint(1, 10), rng.randint(1, 10)
        m = BitMatrix(rows, cols, [rng.getrandbits(cols) for _ in range(rows)])
        xtrue = rng.getrandbits(rows)
        b = vec_mat(m.data, xtrue)
        x = solve(m, b)
        assert x is not None
        assert vec_mat(m.data, x) == b


def test_solve_rejects_oversized_right_hand_side():
    m = BitMatrix(2, 2, [1, 2])
    with pytest.raises(ValueError):
        solve(m, 0b100)
    with pytest.raises(ValueError):
        solve(m, -1)


def test_rowspace_basis_spans_rows():
    rng = random.Random(7)
    for _ in range(50):
        rows, cols = rng.randint(1, 10), rng.randint(1, 10)
        data = [rng.getrandbits(cols) for _ in range(rows)]
        m = BitMatrix(rows, cols, list(data))
        basis = rowspace_basis(m)
        assert len(basis) == rank(m)
        span = {0}
        for r in basis:
            span |= {x ^ r for x in span}
        for r in data:
            assert r in span
        # echelon shape: strictly decreasing highest set bits
        highs = [r.bit_length() for r in basis]
        assert highs == sorted(set(highs), reverse=True)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_rank_random_shapes(shape):
    for m in seeded_matrices(shape, 101):
        assert rank(m) == brute_rank(m.data, m.cols)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_solve_random_shapes(shape):
    rng = random.Random(102)
    for m in seeded_matrices(shape, 103):
        b = vec_mat(m.data, rng.getrandbits(m.rows))
        x = solve(m, b)
        assert x is not None and vec_mat(m.data, x) == b
        # Append the sum of two columns and flip b's sum of those columns in
        # the new one: no sum of rows matches b on all three columns.
        i, j = rng.randrange(m.cols), rng.randrange(m.cols)
        bad = BitMatrix(m.rows, m.cols + 1, [r | ((r >> i ^ r >> j) & 1) << m.cols for r in m.data])
        bad_b = b | ((1 ^ (b >> i & 1) ^ (b >> j & 1)) << m.cols)
        assert solve(bad, bad_b) is None
        if m.rows <= 8:
            assert all(vec_mat(bad.data, cand) != bad_b for cand in range(1 << m.rows))


def test_solve_right_hand_side_edges():
    # no columns: b = 0 is the only right-hand side, the empty sum x = 0
    assert solve(BitMatrix(1, 0, [0]), 0) == 0
    with pytest.raises(ValueError):
        solve(BitMatrix(1, 0, [0]), 1)
    # no rows: only the empty sum, so only b = 0 is reached
    assert solve(BitMatrix(0, 3, []), 0) == 0
    assert solve(BitMatrix(0, 3, []), 0b100) is None
    # a single row holding only the top column
    for cols in range(1, 70):
        top = 1 << (cols - 1)
        assert solve(BitMatrix(1, cols, [top]), top) == 1


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_rowspace_basis_random_shapes(shape):
    for m in seeded_matrices(shape, 105):
        basis = rowspace_basis(m)
        assert len(basis) == brute_rank(m.data, m.cols)
        # echelon order: strictly decreasing pivots (highest set bits)
        highs = [r.bit_length() for r in basis]
        assert 0 not in highs and highs == sorted(set(highs), reverse=True)
        # every row reduces to zero in one pass over the basis in order
        for r in m.data:
            for row in basis:
                if r >> (row.bit_length() - 1) & 1:
                    r ^= row
            assert r == 0
        # and the basis lies in the row space
        assert low_pivot_rank(m.data + basis) == len(basis)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_results_are_deterministic(shape):
    for m in seeded_matrices(shape, 106, count=10):
        data = list(m.data)
        b = vec_mat(m.data, (1 << m.rows) - 1)
        first = (rank(m), solve(m, b), rowspace_basis(m))
        again = BitMatrix(m.rows, m.cols, list(data))
        assert (rank(again), solve(again, b), rowspace_basis(again)) == first
        assert m.data == data  # inputs are not mutated


def test_rows_are_kept_not_copied():
    # Wide rows, so that equal values would still be distinct objects after a copy.
    rows = [1 << 200 | 5, 1 << 199, (1 << 201) - 1]
    m = BitMatrix(3, 201, rows)
    assert all(m.data[i] is rows[i] for i in range(3))


@pytest.mark.parametrize("row", [-1, -(1 << 40), 1 << 8, 1 << 8 | 1, 1 << 60])
def test_rows_outside_the_columns_raise(row):
    with pytest.raises(ValueError):
        BitMatrix(2, 8, [0b1, row])


def test_mul_vec_is_linear():
    rng = random.Random(3)
    m = BitMatrix(6, 6, [rng.getrandbits(6) for _ in range(6)])
    for _ in range(20):
        x, y = rng.getrandbits(6), rng.getrandbits(6)
        assert mat_vec(m.data, x ^ y) == mat_vec(m.data, x) ^ mat_vec(m.data, y)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_pivot_basis_has_one_slot_per_column(shape):
    """Slot p holds 0 or a row whose highest set bit is p; the nonzero slots are the row space."""
    for m in seeded_matrices(shape, 107):
        basis = _pivot_basis(m.data, m.cols)
        assert len(basis) == m.cols
        assert all(row.bit_length() - 1 == p for p, row in enumerate(basis) if row)
        kept = [row for row in basis if row]
        assert len(kept) == rank(m) == low_pivot_rank(m.data + kept)
        # rowspace_basis: the same rows, by strictly descending pivot
        highs = [r.bit_length() for r in rowspace_basis(m)]
        assert rowspace_basis(m) == kept[::-1] and highs == sorted(set(highs), reverse=True)


def test_no_columns():
    """Width 0: no slots, rank 0, an empty row space, and b = 0 the only right-hand side."""
    assert _pivot_basis([], 0) == [] and _pivot_basis([0, 0], 0) == []
    m = BitMatrix(3, 0, [0, 0, 0])
    assert rank(m) == 0 and rowspace_basis(m) == []
    assert solve(m, 0) == 0
    with pytest.raises(ValueError):
        solve(m, 0b1)
    empty = BitMatrix(0, 0, [])
    assert rank(empty) == 0 and rowspace_basis(empty) == [] and solve(empty, 0) == 0


@pytest.mark.parametrize("cols", [1, 2, 63, 64, 65, 200])
def test_a_row_holding_only_the_last_column(cols):
    """Its pivot is the last slot, cols - 1, the highest a row over cols columns can reach."""
    top = 1 << (cols - 1)
    m = BitMatrix(2, cols, [0, top])
    basis = _pivot_basis(m.data, m.cols)
    assert basis[-1] == top and basis.count(0) == cols - 1
    assert rank(m) == 1 and rowspace_basis(m) == [top]
    assert solve(m, top) == 0b10 and solve(m, 0) == 0
    # below the top column no row reaches
    assert cols == 1 or solve(m, top >> 1) is None


@pytest.mark.parametrize("rows, b", [([0b10, 0b10], 0b01), ([0], 0b1), ([0b011, 0b110, 0b101], 0b100)])
def test_inconsistent_solve_leaves_only_the_right_hand_side_bit(rows, b):
    """Reducing b against the tagged rows leaves right-hand-side bits that no row pivots on."""
    m = BitMatrix(len(rows), 3, rows)
    n = m.rows
    tagged = _pivot_basis([r << n | 1 << i for i, r in enumerate(rows)], m.cols + n)
    v = b << n
    while v >> n and tagged[v.bit_length() - 1]:
        v ^= tagged[v.bit_length() - 1]
    assert v >> n and not tagged[v.bit_length() - 1]
    assert solve(m, b) is None
    assert all(vec_mat(rows, x) != b for x in range(1 << n))


@pytest.mark.parametrize("shape", sorted(SHAPES) + ["large"])
def test_rank_matches_the_low_pivot_reference(shape):
    """Against elimination on the lowest set bit, also on shapes too large to enumerate."""
    rng = random.Random(108)
    matrices = (
        [random_matrix(rng, rng.randint(50, 200), rng.randint(50, 200), 0.05) for _ in range(5)]
        if shape == "large" else seeded_matrices(shape, 109)
    )
    for m in matrices:
        assert rank(m) == low_pivot_rank(m.data)
