from fractions import Fraction

import numpy as np
import pytest

from dirichlet_flows import rationals
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

def _dense_product(mats, n, quad):
    a, b, c, d = ([[m.get(i, {}).get(j, 0) for j in range(n)] for i in range(n)]
                  for m in (mats[k] for k in quad))
    return [[sum(a[i][k] * b[k][j] - c[i][k] * d[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _dense_residual(mats, n, quad):
    return max(abs(v) for row in _dense_product(mats, n, quad) for v in row)


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


def _kernel_cases():
    """Matrices whose quads need one prime (small entries) or several (entries
    past 2^63, of both signs), an empty one, and a quad whose only nonzero
    entry comes from C D."""
    rng = np.random.default_rng(23)
    n = 5

    def random_matrix(top):
        return {i: {int(j): int(rng.integers(1, 10)) * int(rng.choice([-1, 1])) * top
                    for j in rng.choice(n, int(rng.integers(1, n + 1)), replace=False)}
                for i in range(n) if rng.random() < 0.7}

    small = [random_matrix(1) for _ in range(3)]
    huge = [random_matrix(3**45) for _ in range(3)]  # |entries| up to 9 * 3^45 > 2^74
    mats = small + huge + [{}, {0: {1: 5}}, {1: {2: -7}}]
    quads = [(0, 1, 1, 0), (3, 4, 4, 3), (0, 2, 1, 2), (3, 5, 4, 3), (1, 0, 0, 1),
             (6, 6, 6, 6), (0, 6, 6, 1), (4, 5, 5, 4), (6, 0, 7, 8), (6, 3, 4, 5),
             (2, 2, 2, 2)]
    return mats, n, quads


def _spy_kernel(monkeypatch):
    calls = []
    kernel = rationals._residue_products

    def spy(table, n, quads, depth, primes):
        out = kernel(table, n, quads, depth, primes)
        calls.append((depth, primes, out))
        return out

    monkeypatch.setattr(rationals, "_residue_products", spy)
    return calls


@pytest.mark.parametrize("cap", [rationals._CHUNK_CAP, 1])
def test_residue_kernel_against_dense_products(monkeypatch, cap):
    """Every nonzero entry of every quad comes back with its residue modulo
    each of the quad's primes, and only those entries do.  At the default cap
    quads of one prime and of several share a chunk; at cap 1 each chunk is
    one quad and each of its primes a slice of its own."""
    monkeypatch.setattr(rationals, "_CHUNK_CAP", cap)
    calls = _spy_kernel(monkeypatch)
    mats, n, quads = _kernel_cases()
    residuals = integer_residuals(mats, n, quads)
    [(depth, primes, (quad, ii, jj, by_prime))] = calls
    assert depth.min() == 1 and depth.max() >= 3
    dense = [_dense_product(mats, n, q) for q in quads]
    expected = {(k, i, j) for k, m in enumerate(dense)
                for i in range(n) for j in range(n) if m[i][j]}
    assert set(zip(quad.tolist(), ii.tolist(), jj.tolist())) == expected
    for k, i, j, res in zip(quad.tolist(), ii.tolist(), jj.tolist(), by_prime.tolist()):
        assert res[:depth[k]] == [dense[k][i][j] % p for p in primes[:depth[k]].tolist()]
    for k, q in enumerate(quads):
        assert residuals.get(k, 0) == _dense_residual(mats, n, q)
    # -C D alone at (0, 2); the empty and self-commuting quads are zero
    assert residuals[8] == 35 and not {5, 6, 10} & set(residuals)


@pytest.mark.parametrize("which", [0, 1])
def test_residue_kernel_on_a_multiple_of_one_prime_across_slices(monkeypatch, which):
    """[A, B] = -p E_01 needs two primes, each in a slice of its own: a
    multiple of one of them is found by the other's slice alone."""
    monkeypatch.setattr(rationals, "_CHUNK_CAP", 1)
    p = _primes_past(rationals._PRIME_LIMIT)[which]
    a, b = {0: {1: p}}, {0: {0: 1}}
    assert integer_residuals([a, b], 2, [(0, 1, 1, 0), (0, 1, 0, 1)]) == {0: p}
