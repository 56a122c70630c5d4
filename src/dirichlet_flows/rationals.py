"""Exact scalar parsing and small exact linear algebra.

Every identity check in this package (matrix-tree, commutation relations,
flatness, the divergence pairing) is an exact statement over the rationals;
floats appear only in the numeric shadows.  Solves run on stdlib Fractions:
the matrices are desk-scale (tens of rows), so one plain Gauss-Jordan
elimination serves rank, determinant and solve alike.

Matrix products are exact over Q through residues: once its operators are
scaled to integers, a commutator is decided by `integer_residuals`, which
computes it modulo primes below 2^26 in scipy.sparse int64 products, with as
many primes as an integer bound on its entries asks for, and recovers a
nonzero entry by the Chinese remainder theorem.

Sparse matrices are dict-of-rows: {row: {col: value}}, zero entries absent.
The Fraction helpers `sp_*` build them (`sp_set`, `sp_to_dense`); the others
are kept for the tests.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import Mapping

import numpy as np
from scipy import sparse

Sparse = dict[int, dict[int, Fraction]]
IntSparse = dict[int, dict[int, int]]


def parse_scalar(value) -> Fraction:
    """Parse a number or a string like "2/3" or "0.25" into an exact Fraction.

    Decimal strings are exact ("0.1" -> 1/10); Python floats convert via their
    binary value, which is exact but may surprise (0.1 -> 3602879701896397/2**55).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return Fraction(value.strip())
    if isinstance(value, (int, float)):
        return Fraction(value)
    raise TypeError(f"cannot parse scalar from {type(value).__name__}: {value!r}")


def format_scalar(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    return repr(x)


# ---------------------------------------------------------------------------
# dense Fraction matrices: list of rows
# ---------------------------------------------------------------------------

def _row_reduce(rows: list[list], width: int) -> tuple[list[list[Fraction]], list[int], Fraction]:
    """Gauss-Jordan reduction of the rows over Fraction, pivoting in the first
    `width` columns only: the reduced rows, the pivot columns, and the
    determinant factor, the product of the pivots with the sign of the row
    swaps, which is 0 when one of those columns has no pivot."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    det = Fraction(1)
    for col in range(width):
        top = len(pivots)
        piv = next((r for r in range(top, len(a)) if a[r][col] != 0), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != top:
            a[top], a[piv] = a[piv], a[top]
            det = -det
        p = a[top][col]
        det *= p
        prow = a[top] = [x / p for x in a[top]]
        for r, row in enumerate(a):
            f = row[col]
            if r != top and f != 0:
                a[r] = [x - f * y if y else x for x, y in zip(row, prow)]
        pivots.append(col)
    return a, pivots, det


def mat_rank(rows: list[list]) -> int:
    """Rank of a matrix with Fraction/int entries."""
    return len(_row_reduce(rows, len(rows[0]) if rows else 0)[1])


def mat_det(rows: list[list]) -> Fraction:
    """Determinant of a square matrix with Fraction/int entries."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    return _row_reduce(rows, n)[2]


def mat_solve(rows: list[list], rhs: list[list]) -> list[list[Fraction]]:
    """Solve A x = b exactly for each right-hand side b in rhs, one solution
    per side; raises ValueError if A is singular."""
    n = len(rows)
    a, pivots, _ = _row_reduce([list(row) + [b[i] for b in rhs] for i, row in enumerate(rows)], n)
    if len(pivots) < n:
        raise ValueError("singular system")
    return [[a[r][n + j] for r in range(n)] for j in range(len(rhs))]


# ---------------------------------------------------------------------------
# sparse matrices over Fraction (dict-of-rows)
# ---------------------------------------------------------------------------

def sp_set(a: Sparse, i: int, j: int, value: Fraction) -> None:
    """Add value to entry (i, j), dropping the entry if it cancels to zero."""
    row = a.setdefault(i, {})
    v = row.get(j, Fraction(0)) + value
    if v == 0:
        row.pop(j, None)
        if not row:
            a.pop(i, None)
    else:
        row[j] = v


def sp_scale(a: Sparse, c) -> Sparse:
    if c == 0:
        return {}
    return {i: {j: c * v for j, v in row.items()} for i, row in a.items()}


def sp_add(a: Sparse, b: Sparse) -> Sparse:
    out: Sparse = {i: dict(row) for i, row in a.items()}
    for i, row in b.items():
        for j, v in row.items():
            sp_set(out, i, j, v)
    return out


def sp_matmul(a: Sparse, b: Sparse) -> Sparse:
    out: Sparse = {}
    for i, arow in a.items():
        acc: dict[int, Fraction] = {}
        for k, av in arow.items():
            brow = b.get(k)
            if not brow:
                continue
            for j, bv in brow.items():
                acc[j] = acc.get(j, Fraction(0)) + av * bv
        acc = {j: v for j, v in acc.items() if v != 0}
        if acc:
            out[i] = acc
    return out


def sp_commutator(a: Sparse, b: Sparse) -> Sparse:
    return sp_add(sp_matmul(a, b), sp_scale(sp_matmul(b, a), Fraction(-1)))


def sp_is_zero(a: Sparse) -> bool:
    return all(all(v == 0 for v in row.values()) for row in a.values())


def sp_transpose(a: Sparse) -> Sparse:
    out: Sparse = {}
    for i, row in a.items():
        for j, v in row.items():
            out.setdefault(j, {})[i] = v
    return out


def sp_max_abs(a: Sparse) -> Fraction:
    best = Fraction(0)
    for row in a.values():
        for v in row.values():
            if abs(v) > best:
                best = abs(v)
    return best


def sp_to_dense(a: Sparse | Mapping, n: int, as_float: bool = False):
    out = [[0.0 if as_float else Fraction(0)] * n for _ in range(n)]
    for i, row in a.items():
        for j, v in row.items():
            out[i][j] = float(v) if as_float else v
    return out


# ---------------------------------------------------------------------------
# exact integer products through residues modulo word-size primes
# ---------------------------------------------------------------------------

# Residues below 2^26 multiply to less than 2^52, so a sum of fewer than 2^11
# such products stays below 2^63: an int64 product of residue matrices is
# exact while every row of the left factor holds fewer than 2^11 nonzeros.
_PRIME_LIMIT = 1 << 26
_ROW_NNZ_LIMIT = 1 << 11
# Work of one scipy product: its rows plus a bound on its multiply-adds.  A
# batch is cut into chunks of whole blocks at this cap, which bounds memory.
_CHUNK_CAP = 1 << 16

_PRIMES: list[int] = []


def _is_prime(n: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7, deterministic below 3.2e9."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_past(bound: int) -> list[int]:
    """The largest primes below 2^26, descending, up to the first at which their
    product exceeds bound."""
    k, product = 0, 1
    while k == 0 or product <= bound:
        if k == len(_PRIMES):
            candidate = (_PRIMES[-1] if _PRIMES else _PRIME_LIMIT + 1) - 2
            while not _is_prime(candidate):
                candidate -= 2
            _PRIMES.append(candidate)
        product *= _PRIMES[k]
        k += 1
    return _PRIMES[:k]


def _residue_products(table, n: int, quads: np.ndarray, which: np.ndarray,
                      primes: np.ndarray):
    """Nonzero residues of A B - C D modulo primes[which[k]] for each row k =
    (A, B, C, D) of quads, as arrays (k, i, j, residue).

    table = (ptr, width, i, j, residues) holds n x n matrices in COO form,
    matrix r at ptr[r]:ptr[r+1] with at most width[r] nonzeros in a row, and
    residues[q] the entries reduced modulo primes[q].  A chunk of K quads is
    one scipy int64 product of the block-diagonal stacks
    [A_1..A_K | C_1..C_K] and [B_1..B_K; -D_1..-D_K].
    """
    ptr, width, ti, tj, residues = table
    size = np.diff(ptr)
    a, b, c, d = quads.T
    cost = n + size[a] * width[b] + size[c] * width[d]
    chunk = np.cumsum(cost) // _CHUNK_CAP
    edges = np.append(np.flatnonzero(np.diff(chunk, prepend=-1)), len(quads))
    found = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        q, w = quads[lo:hi], which[lo:hi]
        m = primes[w]
        k_n = len(q) * n

        def gather(ids, row_shift, col_shift, negate=False):
            lens = size[ids]
            pos = np.repeat(ptr[ids] - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())
            k = np.repeat(np.arange(len(ids)), lens)
            v = residues[w[k], pos].astype(np.int64)
            if negate:
                v = (m[k] - v) % m[k]
            return v, ti[pos] + k * n + row_shift, tj[pos] + k * n + col_shift

        def stack(first, second, shape):
            data, rows, cols = (np.concatenate(pair) for pair in zip(first, second))
            return sparse.csr_matrix((data, (rows, cols)), shape=shape)

        left = stack(gather(q[:, 0], 0, 0), gather(q[:, 2], 0, k_n), (k_n, 2 * k_n))
        widest = int(np.diff(left.indptr).max(initial=0))
        if widest >= _ROW_NNZ_LIMIT:
            raise OverflowError(f"a row of {widest} nonzeros would overflow the int64 "
                                f"residue product (limit {_ROW_NNZ_LIMIT - 1})")
        right = stack(gather(q[:, 1], 0, 0), gather(q[:, 3], k_n, 0, negate=True),
                      (2 * k_n, k_n))
        prod = left @ right
        del left, right
        row_len = np.diff(prod.indptr)
        prod.data %= np.repeat(np.repeat(m, n), row_len)
        hit = np.flatnonzero(prod.data)
        if len(hit):
            row = np.repeat(np.arange(k_n), row_len)[hit]
            found.append((row // n + lo, row % n, prod.indices[hit] % n, prod.data[hit]))
    if not found:
        return tuple(np.zeros(0, dtype=np.int64) for _ in range(4))
    return tuple(np.concatenate(part) for part in zip(*found))


def integer_residuals(mats: list[IntSparse], n: int, quads) -> dict[int, int]:
    """The largest |entry| of A B - C D, exactly, for each quad (A, B, C, D) of
    indices into mats, n x n integer matrices whose entries may be of any size.

    Each quad is computed modulo the fewest primes below 2^26 whose product
    exceeds twice the bound rownnz(A) max|A| max|B| + rownnz(C) max|C| max|D|
    on its entries, so residues that are zero modulo every prime mean an
    exact zero, and the Chinese remainder theorem recovers a nonzero entry.
    All (quad, prime) blocks go through one batch of residue products.
    Returns {index of the quad: max |entry|} for the quads that are not zero.
    """
    if not quads:
        return {}
    ri, rj, rv, sizes, peak, width = [], [], [], [], [], []
    for rows in mats:
        size = top = wide = 0
        for i, row in rows.items():
            ri.extend([i] * len(row))
            rj.extend(row)
            rv.extend(row.values())
            size += len(row)
            wide = max(wide, len(row))
            top = max(top, max(map(abs, row.values()), default=0))
        sizes.append(size)
        peak.append(top)
        width.append(wide)
    bounds = [2 * (width[a] * peak[a] * peak[b] + width[c] * peak[c] * peak[d])
              for a, b, c, d in quads]
    primes = _primes_past(max(bounds))
    products = list(np.cumprod(np.array(primes, dtype=object)))
    counts = np.array([bisect_right(products, bound) + 1 for bound in bounds])

    # the table: every matrix reduced modulo each prime, residues below 2^26
    # kept as int32
    try:
        values = np.array(rv, dtype=np.int64)
    except OverflowError:
        values = np.array(rv, dtype=object)
    residues = np.empty((len(primes), len(values)), dtype=np.int32)
    for q, p in enumerate(primes):
        residues[q] = values % p
    table = (np.concatenate([[0], np.cumsum(sizes)]), np.array(width),
             np.array(ri, dtype=np.int64), np.array(rj, dtype=np.int64), residues)

    # one item per (quad, prime)
    origin = np.repeat(np.arange(len(quads)), counts)
    which = np.arange(len(origin)) - np.repeat(np.cumsum(counts) - counts, counts)
    item, ii, jj, res = _residue_products(table, n, np.asarray(quads, dtype=np.int64)[origin],
                                          which, np.array(primes, dtype=np.int64))

    # one row per nonzero entry (quad, i, j), its residues by prime; Garner's
    # form of the Chinese remainder theorem, one prime at a time, in Python
    # integers only when some entry needs more than one prime
    keys, entry = np.unique((origin[item] * n + ii) * n + jj, return_inverse=True)
    by_prime = np.zeros((len(keys), len(primes)), dtype=np.int64)
    by_prime[entry, which[item]] = res
    quad = keys // (n * n)
    depth = counts[quad]
    deepest = int(depth.max(initial=1))
    x = by_prime[:, 0].astype(object if deepest > 1 else np.int64)
    for t in range(1, deepest):
        live = depth > t
        p, modulus = primes[t], products[t - 1]
        x[live] += modulus * ((by_prime[live, t] - x[live] % p) * pow(modulus, -1, p) % p)
    modulus = np.array(products[:deepest], dtype=x.dtype)[depth - 1]
    size = np.abs(np.where(2 * x > modulus, x - modulus, x))
    starts = np.flatnonzero(np.diff(quad, prepend=-1))
    return dict(zip(quad[starts].tolist(), np.maximum.reduceat(size, starts).tolist()))
