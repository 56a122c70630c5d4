import math
from fractions import Fraction

import numpy as np
import pytest

from dirichlet_flows import rationals
from dirichlet_flows.rationals import (
    _primes_past,
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
    for value in (None, True, [1]):
        with pytest.raises(TypeError):
            parse_scalar(value)


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
# the residue kernel: quads of integer combinations of table matrices
# ---------------------------------------------------------------------------

def _coo(rows):
    entries = sorted((i, j, v) for i, row in rows.items() for j, v in row.items())
    return tuple(zip(*entries)) or ((), (), ())


def _residuals(mats, n, quads, entries=True):
    """residue_peaks with each dict-of-rows matrix of mats a combination of
    itself alone: {quad: max |entry|}, or the nonzero quads."""
    table = rationals.int_table([_coo(m) for m in mats])
    combos = [([k], [1]) for k in range(len(mats))]
    return rationals.residue_peaks(table, n, combos, quads, entries)


def _dense(rows, n):
    return [[rows.get(i, {}).get(j, 0) for j in range(n)] for i in range(n)]


def _dense_combination(mats, n, terms, coef):
    out = [[0] * n for _ in range(n)]
    for t, c in zip(terms, coef):
        for i, row in mats[t].items():
            for j, v in row.items():
                out[i][j] += c * v
    return out


def _quad_product(a, b, c, d):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] - c[i][k] * d[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _dense_product(mats, n, quad):
    return _quad_product(*(_dense(mats[k], n) for k in quad))


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
        residuals = _residuals(mats, n, quads)
        for k, quad in enumerate(quads):
            assert residuals.get(k, 0) == _dense_residual(mats, n, quad)


def test_residual_on_a_multiple_of_the_first_prime_is_exact():
    # [A, B] = -p at (0, 1) and 0 elsewhere: zero modulo the first prime, so
    # only the second one sees it, and the CRT gives back its size
    p = _primes_past(0)[0]
    a, b = {0: {1: p}}, {0: {0: 1}}
    assert _residuals([a, b], 2, [(0, 1, 1, 0)]) == {0: p}
    assert _residuals([a, b], 2, [(0, 1, 0, 1)]) == {}


def test_row_at_the_nonzero_limit_raises():
    n = 1 << 11
    wide = {0: {j: 1 for j in range(n)}}
    identity = {i: {i: 1} for i in range(n)}
    with pytest.raises(OverflowError, match="nonzeros"):
        _residuals([wide, identity, {}], n, [(0, 1, 2, 2)])


def test_row_below_the_nonzero_limit_is_exact():
    # 2^11 - 1 products of the largest residue sum to just below 2^63
    n, p = 1 << 11, _primes_past(0)[0]
    row = {0: {j: p - 1 for j in range(n - 1)}}
    col = {j: {0: p - 1} for j in range(n - 1)}
    assert _residuals([row, col, {}], n, [(0, 1, 2, 2)]) == {0: (n - 1) * (p - 1) ** 2}


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
    """The (table, depth, primes, result) of every `_products` call."""
    calls = []
    kernel = rationals._products

    def spy(table, n, quads, depth, primes, entries=True):
        out = kernel(table, n, quads, depth, primes, entries)
        calls.append((table, depth, primes, out))
        return out

    monkeypatch.setattr(rationals, "_products", spy)
    return calls


@pytest.mark.parametrize("cap", [rationals._CHUNK_CAP, 1])
def test_residue_kernel_against_dense_products(monkeypatch, cap):
    """Every nonzero entry of every quad comes back with its residue modulo
    each of the quad's primes, and only those entries do.  At the default cap
    quads of one prime and of several share a chunk; at cap 1 each chunk is
    one combination or one quad, and each prime a slice of its own."""
    monkeypatch.setattr(rationals, "_CHUNK_CAP", cap)
    calls = _spy_kernel(monkeypatch)
    mats, n, quads = _kernel_cases()
    residuals = _residuals(mats, n, quads)
    [(_, depth, primes, (quad, ii, jj, by_prime))] = calls
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
    assert _residuals([a, b], 2, [(0, 1, 1, 0), (0, 1, 0, 1)]) == {0: p}


def _check_combinations(monkeypatch, mats, n, combos, quads):
    """residue_peaks of the combinations against their dense products, one
    call per sample s, the rate point whose coefficients are coef[s] of each
    combination (terms, coef); returns each call's prime counts, one row per
    sample."""
    calls = _spy_kernel(monkeypatch)
    table = rationals.int_table([_coo(m) for m in mats])
    depths = []
    for s in range(len(combos[0][1])):
        at_s = [(terms, coef[s]) for terms, coef in combos]
        calls.clear()
        peaks = rationals.residue_peaks(table, n, at_s, quads)
        [(_, depth, _, _)] = calls
        depths.append(depth)
        dense = [_dense_combination(mats, n, terms, coef) for terms, coef in at_s]
        for k, quad in enumerate(quads):
            product = _quad_product(*(dense[e] for e in quad))
            assert peaks.get(k, 0) == max(abs(v) for row in product for v in row), (s, k)
        assert rationals.residue_peaks(table, n, at_s, quads, entries=False) == set(peaks)
    return np.array(depths)


@pytest.mark.parametrize("cap", [rationals._CHUNK_CAP, 1])
def test_commutator_peaks_against_dense_products(monkeypatch, cap):
    """Every sample's [N_a, N_b] has the dense product's largest entry, with
    samples of one prime and of several in one pair, coefficients past int64,
    a combination whose terms cancel at one sample, and one of no term."""
    monkeypatch.setattr(rationals, "_CHUNK_CAP", cap)
    mats, n, _ = _kernel_cases()
    rng = np.random.default_rng(29)
    combos = [([0, 1, 6], [[1, 2, 5], [3, -1, 2], [10**25, 1, 1]]),
              ([2, 7], [[1, 1], [-2, 3], [1, 3**50]]),
              ([3, 4, 8], [[int(c) for c in rng.integers(-5, 6, 3)] for _ in range(3)]),
              ([0, 0], [[1, -1], [2, -2], [1, 1]]),
              ([], [[], [], []])]
    quads = [(a, b, b, a) for a in range(len(combos)) for b in range(a + 1, len(combos))]
    depth = _check_combinations(monkeypatch, mats, n, combos, quads)
    assert depth.min() == 1 and (depth.min(axis=0) < depth.max(axis=0)).any()


@pytest.mark.parametrize("cap", [rationals._CHUNK_CAP, 1])
def test_general_quads_of_combinations_at_several_samples(monkeypatch, cap):
    """Quads N_a N_b - N_c N_d of four different combinations, not
    commutators, at samples that need one prime and several: each sample's
    largest entry is the dense product's."""
    monkeypatch.setattr(rationals, "_CHUNK_CAP", cap)
    mats, n, _ = _kernel_cases()
    # sample 0 weighs the small matrices only, 1 and 2 the huge ones too
    combos = [([0, 1], [[1, 2], [3**40, 1], [-1, 1]]),
              ([2, 6], [[1, 1], [2, 0], [5, 7]]),
              ([3, 0], [[0, 1], [1, 0], [2, 1]]),
              ([4, 7, 8], [[0, 2, 3], [1, 1, 1], [2**70, -1, 1]]),
              ([5, 1], [[0, -1], [1, 1], [0, 2]])]
    quads = [(0, 1, 2, 3), (3, 4, 1, 0), (1, 2, 4, 4), (2, 3, 0, 1), (4, 0, 3, 2)]
    depth = _check_combinations(monkeypatch, mats, n, combos, quads)
    assert (depth[0] == 1).all() and (depth[1:] > 1).all()


def test_nonzero_quads_are_the_nonzero_residuals():
    mats, n, quads = _kernel_cases()
    assert _residuals(mats, n, quads, entries=False) == set(_residuals(mats, n, quads))


def test_cancelled_entry_stays_in_the_pattern(monkeypatch):
    """A sum whose terms cancel at (0, 1) keeps that position in its pattern,
    as a zero residue, and counts it in its row's width, which sets the
    sum's prime count: with the cancelled entry dropped the bound would be
    4 v, below the product of three primes, not 6 v."""
    calls = _spy_kernel(monkeypatch)
    v = math.prod(_primes_past(2**60)) // 5
    assert len(_primes_past(4 * v)) == 3 < len(_primes_past(6 * v))
    a, b = {0: {1: 2, 2: 3}, 1: {0: v}}, {0: {1: -2}, 2: {2: 4}}
    mats = [a, b, {i: {i: 1} for i in range(3)}]
    table = rationals.int_table([_coo(m) for m in mats])
    combos = [([0, 1], [1, 1]), ([2], [1])]
    peaks = rationals.residue_peaks(table, 3, combos, [(0, 1, 1, 0), (0, 0, 1, 1)])
    [((ptr, width, ti, tj, residues), depth, primes, _)] = calls
    assert list(zip(ti[:ptr[1]].tolist(), tj[:ptr[1]].tolist())) == [(0, 1), (0, 2), (1, 0),
                                                                     (2, 2)]
    assert width.tolist() == [2, 1]
    # the bounds 2 (2 v 1 + 1 1 v) and 2 (2 v v + 1 1 1)
    assert depth.tolist() == [len(_primes_past(6 * v)), len(_primes_past(4 * v * v + 2))]
    assert residues[:, :ptr[1]].tolist() == [[0, 3, v % p, 4] for p in primes.tolist()]
    total = _dense_combination(mats, 3, [0, 1], [1, 1])
    square = _quad_product(total, total, _dense(mats[2], 3), _dense(mats[2], 3))
    assert peaks == {1: max(abs(x) for row in square for x in row)}


def test_distinct_matches_numpy_unique_on_many_ties():
    """The distinct values and each element's index among them are
    np.unique's, on keys where most values repeat many times."""
    rng = np.random.default_rng(31)
    for keys in (rng.integers(-150, 150, 8192), rng.choice([0, 7, 2**40], 1000),
                 np.zeros(5, dtype=np.int64), np.zeros(0, dtype=np.int64)):
        values, at = rationals._distinct(keys)
        expected, inverse = np.unique(keys, return_inverse=True)
        assert values.tolist() == expected.tolist()
        assert at.tolist() == inverse.ravel().tolist()
        assert (values[at] == keys).all()
