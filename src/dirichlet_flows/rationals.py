"""Exact scalar parsing and small exact linear algebra.

Every identity check in this package (matrix-tree, commutation relations,
flatness, the divergence pairing) is an exact statement over the rationals;
floats appear only in the numeric shadows.  Solves run on stdlib Fractions:
the matrices are desk-scale (tens of rows), so one plain Gauss-Jordan
elimination serves rank, determinant and solve alike.

Matrix products are exact over Q through residues: once its operators are
scaled to integers, a commutator is decided by `integer_residuals`, which
computes it modulo primes below 2^26, with as many primes as an integer bound
on its entries asks for, and recovers a nonzero entry by the Chinese
remainder theorem.  Its kernel runs on numpy alone: the expand-and-merge
sparse product (Gustavson, ACM TOMS 4, 1978) on a COO integer table, which
expands and sorts each product once and sums it for all its primes as rows
of one int64 array.

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
# such products stays below 2^63: an int64 sum of residue products is exact
# while row i of A and row i of C hold fewer than 2^11 nonzeros together.
_PRIME_LIMIT = 1 << 26
_ROW_NNZ_LIMIT = 1 << 11
# Work of one kernel pass, which bounds memory.  A chunk of whole quads
# expands to at most this many products, by a bound that takes every row as
# its matrix's widest, unless one quad alone is more; each pass over a chunk
# holds at most this many residues (primes x products), or one prime's.
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


def _residue_products(table, n: int, quads: np.ndarray, depth: np.ndarray,
                      primes: np.ndarray):
    """The nonzero entries of A B - C D for each row q = (A, B, C, D) of
    quads, as arrays (q, i, j, residues): residues[:, t] is the entry modulo
    primes[t] for t < depth[q].

    table = (ptr, width, i, j, residues) holds n x n matrices in COO form,
    matrix r at ptr[r]:ptr[r+1] with its entries sorted by row and at most
    width[r] nonzeros in a row, and residues[t] the entries reduced modulo
    primes[t].  A chunk of quads expands each entry (i, k) of A against row k
    of B, and of C against row k of D, sorts the products once by (quad, i,
    j) and sums them, the C D ones negated, for all the chunk's primes at
    once: one int64 row per prime.
    """
    ptr, width, ti, tj, residues = table
    size = np.diff(ptr)
    # row k of matrix r is the table slice row_ptr[r n + k]:row_ptr[r n + k + 1]
    row_ptr = np.zeros(len(size) * n + 1, dtype=np.int64)
    np.cumsum(np.bincount(np.repeat(np.arange(len(size)), size) * n + ti,
                          minlength=len(size) * n), out=row_ptr[1:])
    a, b, c, d = quads.T
    cost = n + size[a] * width[b] + size[c] * width[d]
    chunk = np.cumsum(cost) // _CHUNK_CAP
    edges = np.append(np.flatnonzero(np.diff(chunk, prepend=-1)), len(quads))
    found = []
    for lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist()):
        # the left entries, A's then C's, each with the right row it meets
        left = np.concatenate([a[lo:hi], c[lo:hi]])
        lens = size[left]
        pos = np.repeat(ptr[left] - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())
        slot = np.repeat(np.arange(len(left)), lens)
        block_row = slot % (hi - lo) * n + ti[pos]
        widest = int(np.bincount(block_row).max(initial=0))
        if widest >= _ROW_NNZ_LIMIT:
            raise OverflowError(f"a row of {widest} nonzeros would overflow the int64 "
                                f"residue product (limit {_ROW_NNZ_LIMIT - 1})")
        target = np.concatenate([b[lo:hi], d[lo:hi]])[slot] * n + tj[pos]
        first = row_ptr[target]
        count = row_ptr[target + 1] - first
        total = int(count.sum())
        if not total:
            continue

        # the products, sorted by entry (block row, j); numpy radix-sorts keys
        # of 16 bits when asked for a stable sort, and sorts wider ones faster
        # unstably; the order within an entry does not matter
        rpos = np.repeat(first - np.cumsum(count) + count, count) + np.arange(total)
        key = (np.repeat(block_row, count) * n + tj[rpos]).astype(
            np.min_scalar_type((hi - lo) * n * n))
        order = np.argsort(key, kind="stable" if key.itemsize <= 2 else None)
        key, rpos = key[order], rpos[order]
        lidx = np.repeat(np.arange(len(pos)), count)[order]
        sign = np.where(slot < hi - lo, 1, -1)
        last = np.flatnonzero(np.append(key[1:] != key[:-1], True))

        # The chunk's primes in slices of rows x products <= _CHUNK_CAP.  An
        # entry's sum is the difference of two running sums: int64 addition
        # wraps modulo 2^64 and the sum itself lies in int64, so it is exact.
        # np.fmod, twice as fast as %, keeps the sum's sign; only the nonzero
        # residues are brought into [0, p).  An entry missing from a slice's
        # nonzeros is zero modulo its primes.
        step = max(1, _CHUNK_CAP // total)
        hit = np.zeros(len(last), dtype=bool)
        parts = []
        for t in range(0, int(depth[lo:hi].max()), step):
            res, p = residues[t:t + step], primes[t:t + step, None]
            prod = np.take(np.take(res, pos, axis=1) * sign, lidx, axis=1)
            prod *= np.take(res, rpos, axis=1)
            running = np.take(np.cumsum(prod, axis=1, out=prod), last, axis=1)
            sums = np.fmod(np.diff(running, axis=1, prepend=0), p)
            nonzero = sums.any(axis=0)
            hit |= nonzero
            parts.append((t, np.flatnonzero(nonzero), sums[:, nonzero] % p))
        cols = np.flatnonzero(hit)
        if not len(cols):
            continue
        by_prime = np.zeros((len(cols), len(primes)), dtype=np.int64)
        for t, idx, sums in parts:
            by_prime[np.searchsorted(cols, idx), t:t + len(sums)] = sums.T
        entry = key[last[cols]].astype(np.int64)
        found.append((entry // (n * n) + lo, entry // n % n, entry % n, by_prime))
    if not found:
        return (*(np.zeros(0, dtype=np.int64) for _ in range(3)),
                np.zeros((0, len(primes)), dtype=np.int64))
    return tuple(np.concatenate(part) for part in zip(*found))


def integer_residuals(mats: list[IntSparse], n: int, quads) -> dict[int, int]:
    """The largest |entry| of A B - C D, exactly, for each quad (A, B, C, D) of
    indices into mats, n x n integer matrices whose entries may be of any size.

    Each quad is computed modulo the fewest primes below 2^26 whose product
    exceeds twice the bound rownnz(A) max|A| max|B| + rownnz(C) max|C| max|D|
    on its entries, so residues that are zero modulo every prime mean an
    exact zero, and the Chinese remainder theorem recovers a nonzero entry.
    All quads go through one batch of residue products.
    Returns {index of the quad: max |entry|} for the quads that are not zero.
    """
    if not quads:
        return {}
    ri, rj, rv, ptr, peak = [], [], [], [0], []
    for rows in mats:
        for i, row in sorted(rows.items()):
            ri += [i] * len(row)
            rj += row
            rv += row.values()
        peak.append(max(map(abs, rv[ptr[-1]:]), default=0))
        ptr.append(len(rv))
    width = [max(map(len, rows.values()), default=0) for rows in mats]
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
    for t, p in enumerate(primes):
        residues[t] = values % p
    table = (np.array(ptr), np.array(width),
             np.array(ri, dtype=np.int64), np.array(rj, dtype=np.int64), residues)
    quad, _, _, by_prime = _residue_products(table, n, np.asarray(quads, dtype=np.int64),
                                             counts, np.array(primes, dtype=np.int64))

    # Garner's form of the Chinese remainder theorem on each nonzero entry,
    # one prime at a time, in Python integers only when some entry needs more
    # than one prime; the entries of a quad are contiguous
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
