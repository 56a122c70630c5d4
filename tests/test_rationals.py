from fractions import Fraction

import numpy as np
import pytest

from dirichlet_flows.rationals import (
    _primes_past,
    format_scalar,
    integer_residuals,
    mat_det,
    mat_rank,
    mat_solve,
    parse_scalar,
    sp_add,
    sp_commutator,
    sp_matmul,
    sp_max_abs,
    sp_set,
    sp_to_dense,
    sp_transpose,
)


def test_parse_scalar_exact():
    assert parse_scalar("2/3") == Fraction(2, 3)
    assert parse_scalar("0.25") == Fraction(1, 4)
    assert parse_scalar(3) == 3
    assert parse_scalar(0.5) == Fraction(1, 2)
    with pytest.raises(TypeError):
        parse_scalar(None)


def test_format_scalar_roundtrip():
    assert format_scalar(Fraction(2, 3)) == "2/3"
    assert format_scalar(Fraction(4)) == "4"
    assert parse_scalar(format_scalar(Fraction(-7, 12))) == Fraction(-7, 12)


def test_mat_rank_against_numpy():
    rng = np.random.default_rng(5)
    for _ in range(25):
        m = rng.integers(-3, 4, size=(rng.integers(1, 5), rng.integers(1, 5)))
        assert mat_rank(m.tolist()) == np.linalg.matrix_rank(m)


def test_mat_det_against_numpy():
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        m = rng.integers(-3, 4, size=(n, n))
        assert mat_det(m.tolist()) == round(float(np.linalg.det(m)))


def test_mat_solve_exact():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    x = mat_solve(a, [[Fraction(5), Fraction(10)], [1, 0]])
    assert x == [[Fraction(1), Fraction(3)], [Fraction(3, 5), Fraction(-1, 5)]]
    assert mat_solve(a, []) == []
    with pytest.raises(ValueError):
        mat_solve([[1, 2], [2, 4]], [[1, 1]])


def test_sparse_ops():
    a = {}
    sp_set(a, 0, 1, Fraction(2))
    sp_set(a, 0, 1, Fraction(-2))
    assert a == {}  # exact cancellation removes entries
    a = {0: {0: Fraction(1), 1: Fraction(2)}, 1: {0: Fraction(3)}}
    b = {0: {1: Fraction(1)}, 1: {1: Fraction(-1)}}
    ab = sp_matmul(a, b)
    assert sp_to_dense(ab, 2) == [[Fraction(0), Fraction(-1)], [Fraction(0), Fraction(3)]]
    assert sp_to_dense(sp_add(a, b), 2)[0][1] == Fraction(3)
    assert sp_transpose(a) == {0: {0: Fraction(1), 1: Fraction(3)}, 1: {0: Fraction(2)}}
    comm = sp_commutator(a, a)
    assert sp_max_abs(comm) == 0


# ---------------------------------------------------------------------------
# integer residual products
# ---------------------------------------------------------------------------

def _dense_residual(mats, n, quad):
    a, b, c, d = ([[m.get(i, {}).get(j, 0) for j in range(n)] for i in range(n)]
                  for m in (mats[k] for k in quad))
    prod = [[sum(a[i][k] * b[k][j] - c[i][k] * d[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]
    return max(abs(v) for row in prod for v in row)


def test_integer_residuals_against_dense_products():
    rng = np.random.default_rng(11)
    n = 6
    for top in (1, 1000, 2**40, 10**30):  # the last two need several primes
        mats = [{i: {int(j): int(rng.integers(-1000, 1001)) * top // 1000
                     for j in rng.choice(n, 2, replace=False)}
                 for i in range(n) if rng.random() < 0.8} for _ in range(5)] + [{}]
        quads = [tuple(int(k) for k in rng.integers(0, len(mats), 4)) for _ in range(60)]
        residuals = integer_residuals(mats, n, quads)
        for k, quad in enumerate(quads):
            assert residuals.get(k, 0) == _dense_residual(mats, n, quad)


def test_residual_on_a_multiple_of_the_first_prime_is_exact():
    # [A, B] = -p at (0, 1) and 0 elsewhere: zero modulo the first prime, so
    # only the second one sees it, and the CRT gives back its size
    p = _primes_past(0)[0]
    a, b = {0: {1: p}}, {0: {0: 1}}
    assert integer_residuals([a, b], 2, [(0, 1, 1, 0)]) == {0: p}
    assert integer_residuals([a, b], 2, [(0, 1, 0, 1)]) == {}


def test_row_at_the_nonzero_limit_raises():
    n = 1 << 11
    wide = {0: {j: 1 for j in range(n)}}
    identity = {i: {i: 1} for i in range(n)}
    with pytest.raises(OverflowError, match="nonzeros"):
        integer_residuals([wide, identity, {}], n, [(0, 1, 2, 2)])


def test_row_below_the_nonzero_limit_is_exact():
    # 2^11 - 1 products of the largest residue sum to just below 2^63
    n, p = 1 << 11, _primes_past(0)[0]
    row = {0: {j: p - 1 for j in range(n - 1)}}
    col = {j: {0: p - 1} for j in range(n - 1)}
    assert integer_residuals([row, col, {}], n, [(0, 1, 2, 2)]) == {0: (n - 1) * (p - 1) ** 2}
