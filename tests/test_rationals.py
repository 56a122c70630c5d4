from fractions import Fraction

import numpy as np
import pytest

from dirichlet_flows.rationals import (
    format_scalar,
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
