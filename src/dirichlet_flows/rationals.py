"""Exact scalar parsing and small exact linear algebra.

Every identity check in this package (matrix-tree, commutation relations,
flatness, the divergence pairing) is an exact statement over the rationals;
floats appear only in the numeric shadows.  Solves run on stdlib Fractions:
the matrices are desk-scale (tens of rows), so one plain Gauss-Jordan
elimination serves rank, determinant and solve alike.

Matrix products are exact over Q through residues.  Integer matrices live
in an `IntTable`: n x n matrices in COO form, each a slice of entries sorted
by (row, col), with int64 values, or object ones past int64.  The one entry
to the residue kernel, `residue_peaks`, takes integer combinations N_e of
table matrices, one coefficient row per sample, and quads N_a N_b - N_c N_d
of them: a commutation relation is a quad of single terms, sums of terms or
a multiple of the identity at one sample, flatness the commutators [N_a, N_b]
of the connection's coefficients at every sample.  Each quad is computed
modulo primes below 2^26, as many as an integer bound on its entries asks
for, and a nonzero entry is recovered by the Chinese remainder theorem.  The
kernel runs on numpy alone, in the two phases of Gustavson's sparse product
(ACM TOMS 4, 1978): a symbolic phase expands each entry of N_a against a row
of N_b, and of N_c against N_d, and sorts the products by entry, once per
pattern; a numeric phase sums them for every value set on that pattern, one
prime of one sample per row of an int64 array.

The connection's term matrices are built straight into one `IntTable`
(`connection.build_connection`).  The sparse Fraction helpers `sp_*`, on
dict-of-rows matrices {row: {col: value}} with zero entries absent, have no
caller left in the package: they are kept for the tests and for the
benchmark's tracer, which wraps them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import Mapping, NamedTuple

import numpy as np

Sparse = dict[int, dict[int, Fraction]]


def parse_scalar(value) -> Fraction:
    """Parse a number or a string like "2/3" or "0.25" into an exact Fraction.

    Decimal strings are exact ("0.1" -> 1/10); Python floats convert via their
    binary value, which is exact but may surprise (0.1 -> 3602879701896397/2**55).
    Booleans are not numbers here.
    """
    if isinstance(value, bool):
        raise TypeError(f"cannot parse scalar from bool: {value!r}")
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
# Work of one kernel pass, which bounds memory.  A chunk of whole
# combinations holds at most this many term entries x samples, and a chunk
# of whole quads expands to at most this many products, by a bound that
# takes every row as its matrix's widest, unless one alone is more; each
# pass over a chunk holds at most this many values (samples or rows x
# entries or products, a row being one prime of one sample), or one
# sample's or row's.
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


class IntTable(NamedTuple):
    """n x n integer matrices in COO form: matrix r holds the entries
    ptr[r]:ptr[r+1], sorted by (row, col).  values is int64, or object when
    some value lies past int64."""
    ptr: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def matrix(self, r: int):
        """Matrix r as a (rows, cols, values) triple of slices of the table."""
        lo, hi = self.ptr[r], self.ptr[r + 1]
        return self.rows[lo:hi], self.cols[lo:hi], self.values[lo:hi]


def _int_values(values) -> np.ndarray:
    """The integers as an int64 array, or as an object array past int64."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.asarray(values, dtype=object)


def int_table(mats) -> IntTable:
    """One table of the matrices, each a (rows, cols, values) triple sorted by
    (row, col)."""
    ptr = np.zeros(len(mats) + 1, dtype=np.int64)
    np.cumsum([len(m[0]) for m in mats], out=ptr[1:])
    empty = [np.zeros(0, dtype=np.int64)]
    rows = np.concatenate([np.asarray(m[0], dtype=np.int64) for m in mats] + empty)
    cols = np.concatenate([np.asarray(m[1], dtype=np.int64) for m in mats] + empty)
    values = _int_values(np.concatenate([_int_values(m[2]) for m in mats] + empty))
    return IntTable(ptr, rows, cols, values)


def _ranges(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The ranges first[k], ..., first[k] + count[k] - 1, one after another."""
    return np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())


def _chunks(cost: np.ndarray) -> list[int]:
    """Cut points of consecutive items into chunks of whole items that cost
    at most _CHUNK_CAP together, apart from the first item of each chunk."""
    cut = np.cumsum(cost) // _CHUNK_CAP
    return np.append(np.flatnonzero(np.diff(cut, prepend=-1)), len(cost)).tolist()


def _depths(bounds) -> tuple[np.ndarray, list[int], list[int]]:
    """For each bound, the count of the fewest primes below 2^26 whose product
    exceeds it; and those primes with their running products."""
    primes = _primes_past(max(bounds))
    products = np.cumprod(np.array(primes, dtype=object)).tolist()
    return np.array([bisect_right(products, bound) + 1 for bound in bounds]), primes, products


def _expand(ptr, ti, tj, row_ptr, n: int, quads: np.ndarray):
    """The symbolic phase for a chunk of quads (A, B, C, D): every product of an
    entry (i, k) of A with an entry (k, j) of B, and of C with D, sorted by
    (quad, i, j).

    Returns None when there is no product, else (pos, sign, lidx, rpos, key,
    last): the table positions of the left entries, A's then C's, with their
    signs (-1 for C's); per product, its left entry and the table position of
    its right entry, and its key (quad in the chunk, i, j); and the index of
    the last product of each distinct key.
    """
    a, b, c, d = quads.T
    left = np.concatenate([a, c])
    lens = np.diff(ptr)[left]
    pos = _ranges(ptr[left], lens)
    slot = np.repeat(np.arange(len(left)), lens)
    block_row = slot % len(quads) * n + ti[pos]
    widest = int(np.bincount(block_row).max(initial=0))
    if widest >= _ROW_NNZ_LIMIT:
        raise OverflowError(f"a row of {widest} nonzeros would overflow the int64 "
                            f"residue product (limit {_ROW_NNZ_LIMIT - 1})")
    # row k of matrix r is the table slice row_ptr[r n + k]:row_ptr[r n + k + 1]
    target = np.concatenate([b, d])[slot] * n + tj[pos]
    first = row_ptr[target]
    count = row_ptr[target + 1] - first
    total = int(count.sum())
    if not total:
        return None
    # sorted by entry (block row, j); numpy radix-sorts keys of 16 bits when
    # asked for a stable sort, and sorts wider ones faster unstably; the order
    # within an entry does not matter
    rpos = _ranges(first, count)
    key = (np.repeat(block_row, count) * n + tj[rpos]).astype(
        np.min_scalar_type(len(quads) * n * n))
    order = np.argsort(key, kind="stable" if key.itemsize <= 2 else None)
    key, rpos = key[order], rpos[order]
    lidx = np.repeat(np.arange(len(pos)), count)[order]
    sign = np.where(slot < len(quads), 1, -1)
    last = np.flatnonzero(np.append(key[1:] != key[:-1], True))
    return pos, sign, lidx, rpos, key, last


def _entry_sums(values, pos, sign, lidx, rpos, last, p):
    """The numeric phase: each entry's sum of its products, for every row of
    values, modulo that row's prime p with the sum's sign (np.fmod, twice as
    fast as %).  An entry's sum is the difference of two running sums: int64
    addition wraps modulo 2^64 and the sum itself lies in int64, so it is
    exact."""
    prod = np.take(np.take(values, pos, axis=1) * sign, lidx, axis=1)
    prod *= np.take(values, rpos, axis=1)
    running = np.take(np.cumsum(prod, axis=1, out=prod), last, axis=1)
    return np.fmod(np.diff(running, axis=1, prepend=0), p)


def _distinct(x: np.ndarray):
    """The sorted distinct values of x and the index of each element among
    them (np.unique would import numpy.ma on its first call)."""
    order = np.argsort(x, kind="stable")
    x = x[order]
    first = np.append(True, x[1:] != x[:-1])[:len(x)]
    at = np.empty(len(x), dtype=np.int64)
    at[order] = np.cumsum(first) - 1
    return x[first], at


def _sample_products(table, n: int, quads: np.ndarray, depth: np.ndarray, primes: np.ndarray,
                     entries: bool = True):
    """The nonzero entries of A B - C D for each sample s and each row q = (A,
    B, C, D) of quads, as arrays (q, s, i, j, residues): residues[:, t] is the
    entry modulo primes[t] for t < depth[s, q].  With entries false, only the
    sorted indices of the quads with a nonzero entry at some sample.

    table = (ptr, width, i, j, residues) holds n x n matrices in COO form,
    matrix r at ptr[r]:ptr[r+1] with its entries sorted by row and at most
    width[r] nonzeros in a row.  The samples share that pattern, not its
    values: residues[s, t] holds sample s's entries reduced modulo primes[t].
    A chunk of quads is expanded and sorted once (`_expand`) and summed for
    every sample and each of its primes as rows of one int64 array, sample s
    to the deepest of its quads in the chunk, in slices of rows x products <=
    _CHUNK_CAP.  An entry missing from a row's nonzeros is zero modulo its
    prime.
    """
    ptr, width, ti, tj, residues = table
    n_samples, n_primes = residues.shape[:2]
    flat = residues.reshape(n_samples * n_primes, -1)
    size = np.diff(ptr)
    row_ptr = np.zeros(len(size) * n + 1, dtype=np.int64)
    np.cumsum(np.bincount(np.repeat(np.arange(len(size)), size) * n + ti,
                          minlength=len(size) * n), out=row_ptr[1:])
    a, b, c, d = quads.T
    # A chunk of whole quads expands to at most _CHUNK_CAP products, by a
    # bound that takes every row as its matrix's widest, unless one quad
    # alone is more.
    edges = _chunks(n + size[a] * width[b] + size[c] * width[d])
    grid = np.arange(n_primes)
    found = []
    for lo, hi in zip(edges, edges[1:]):
        expansion = _expand(ptr, ti, tj, row_ptr, n, quads[lo:hi])
        if expansion is None:
            continue
        pos, sign, lidx, rpos, key, last = expansion
        # the rows s * n_primes + t, for t below sample s's deepest quad
        reach = depth[:, lo:hi].max(axis=1)
        rows = (np.arange(n_samples)[:, None] * n_primes + grid)[grid < reach[:, None]]
        step = max(1, _CHUNK_CAP // len(rpos))
        hits = []
        for ids in np.split(rows, range(step, len(rows), step)):
            contiguous = ids[-1] - ids[0] == len(ids) - 1
            values = flat[ids[0]:ids[-1] + 1] if contiguous else np.take(flat, ids, axis=0)
            p = primes[ids % n_primes, None]
            sums = _entry_sums(values, pos, sign, lidx, rpos, last, p)
            if np.count_nonzero(sums):
                row, col = np.nonzero(sums)
                hits.append((ids[row], col, sums[row, col] % p[row, 0]))
        if not hits:
            continue
        ids, col, res = (np.concatenate(part) for part in zip(*hits))
        if not entries:
            found.append(_distinct(key[last[col]] // (n * n))[0].astype(np.int64) + lo)
            continue
        sample, t = np.divmod(ids, n_primes)
        group, at = _distinct(sample * len(last) + col)
        by_prime = np.zeros((len(group), len(primes)), dtype=np.int64)
        by_prime[at, t] = res
        sample, col = np.divmod(group, len(last))
        entry = key[last[col]].astype(np.int64)
        found.append((entry // (n * n) + lo, sample, entry // n % n, entry % n, by_prime))
    if not entries:
        return np.concatenate(found + [np.zeros(0, dtype=np.int64)])
    if not found:
        return (*(np.zeros(0, dtype=np.int64) for _ in range(4)),
                np.zeros((0, len(primes)), dtype=np.int64))
    return tuple(np.concatenate(part) for part in zip(*found))


def _crt_peaks(group: np.ndarray, by_prime: np.ndarray, depth: np.ndarray, primes,
               products) -> dict[int, int]:
    """The largest |entry| of each group, from each entry's residues
    by_prime[:, t] for t < depth: Garner's form of the Chinese remainder
    theorem, one prime at a time, in Python integers only when some entry
    needs more than one prime."""
    if not len(group):
        return {}
    order = np.argsort(group, kind="stable")
    group, by_prime, depth = group[order], by_prime[order], depth[order]
    deepest = int(depth.max())
    x = by_prime[:, 0].astype(object if deepest > 1 else np.int64)
    for t in range(1, deepest):
        live = depth > t
        p, modulus = primes[t], products[t - 1]
        x[live] += modulus * ((by_prime[live, t] - x[live] % p) * pow(modulus, -1, p) % p)
    modulus = np.array(products[:deepest], dtype=x.dtype)[depth - 1]
    size = np.abs(np.where(2 * x > modulus, x - modulus, x))
    starts = np.flatnonzero(np.diff(group, prepend=-1))
    return dict(zip(group[starts].tolist(), np.maximum.reduceat(size, starts).tolist()))


def residue_peaks(table: IntTable, n: int, combos, quads, entries: bool = True):
    """The largest |entry| of N_a N_b - N_c N_d, exactly, for each sample s and
    each quad k = (a, b, c, d) of quads, as {(s, k): entry} for the nonzero
    ones; with entries false, the set of the quads that are nonzero at some
    sample, without recovering any entry.

    combos[e] = (terms, coef) gives N_e at sample s as the sum over t of
    coef[s][t] times the table's matrix terms[t]; coef holds one row of
    integers per sample, as many rows for every combination.  All samples
    share N_e's pattern, the union of its terms' patterns, where an entry that
    cancels stays as a zero.  Quad k at sample s gets the fewest primes below
    2^26 whose product exceeds 2 (w_a |N_a| |N_b| + w_c |N_c| |N_d|), w the
    most entries in one row of the pattern and |N| the largest |entry| at s,
    so residues that are zero modulo every prime mean an exact zero.

    The combinations are assembled in chunks of whole ones, of at most
    _CHUNK_CAP term entries x samples unless one alone is more: a chunk's
    term entries are sorted once by (combination, i, j) and summed per
    pattern position, exactly for |N|, then modulo each prime for all
    samples at once, coef mod p times the values mod p in int64, exact while
    fewer than 2^11 terms meet at a position.  Each chunk of quads is then
    expanded once for all samples (`_sample_products`), each sample to its
    own prime count, and the Chinese remainder theorem recovers the nonzero
    entries.
    """
    quads = np.asarray(quads, dtype=np.int64).reshape(-1, 4)
    if not len(quads) or not len(combos[0][1]):
        return {} if entries else set()
    n_samples = len(combos[0][1])
    size = np.diff(table.ptr)
    terms = np.array([k for ks, _ in combos for k in ks], dtype=np.int64)
    n_terms = np.array([len(ks) for ks, _ in combos], dtype=np.int64)
    first = np.append(0, np.cumsum(n_terms))
    coef = _int_values([[x for _, c in combos for x in c[s]] for s in range(n_samples)])
    # the term entries of each combination, and the chunks of combinations
    load = np.append(0, np.cumsum(size[terms]))[first]
    edges = _chunks(np.diff(load) * n_samples)

    # per chunk, every term entry's table position and coefficient column,
    # sorted by (combination, i, j), with the first entry at each position
    chunks, patterns = [], []
    width = np.zeros(len(combos), dtype=np.int64)
    peak = np.zeros((len(combos), n_samples), dtype=object)
    count = np.zeros(len(combos), dtype=np.int64)
    for lo, hi in zip(edges, edges[1:]):
        t = terms[first[lo]:first[hi]]
        idx = _ranges(table.ptr[t], size[t])
        col = np.repeat(np.arange(first[lo], first[hi]), size[t])
        owner = np.repeat(np.repeat(np.arange(hi - lo), n_terms[lo:hi]), size[t])
        key = (owner * n + table.rows[idx]) * n + table.cols[idx]
        order = np.argsort(key)
        key, idx, col = key[order], idx[order], col[order]
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        if not len(starts):
            continue
        pattern = key[starts]
        run = int(np.diff(np.append(starts, len(key))).max())
        chunks.append((idx, col, starts, run))
        patterns.append(pattern)
        owner = pattern // (n * n)
        count[lo:hi] = np.bincount(owner, minlength=hi - lo)
        block = pattern // n
        rows = np.flatnonzero(np.diff(block, prepend=-1))
        np.maximum.at(width, lo + block[rows] // n, np.diff(np.append(rows, len(block))))
        at = np.flatnonzero(np.diff(owner, prepend=-1))
        values = table.values[idx]
        big = int(np.abs(values).max()) * run
        step = max(1, _CHUNK_CAP // len(idx))
        for s in range(0, n_samples, step):
            # exact sums, in int64 while no sum can leave it
            weights = _int_values(coef[s:s + step, col])
            prod = weights.astype(np.int64 if int(np.abs(weights).max()) * big < 1 << 63
                                  else object, copy=False)
            prod *= values.astype(prod.dtype, copy=False)
            exact = np.add.reduceat(prod, starts, axis=1)
            peak[lo + owner[at], s:s + step] = np.maximum.reduceat(np.abs(exact), at, axis=1).T
    if not chunks:
        return {} if entries else set()

    a, b, c, d = quads.T
    w = width.astype(object)[:, None]
    bounds = 2 * (w[a] * peak[a] * peak[b] + w[c] * peak[c] * peak[d])
    depth, primes, products = _depths(bounds.T.ravel().tolist())
    depth = depth.reshape(n_samples, len(quads))

    # every N_e modulo each prime, at its pattern's slice of one row per
    # (sample, prime)
    residues = np.empty((n_samples, len(primes), int(count.sum())), dtype=np.int32)
    for t, p in enumerate(primes):
        coef_p = (coef % p).astype(np.int64)
        values_p = (table.values % p).astype(np.int64)
        offset = 0
        for idx, col, starts, run in chunks:
            values = values_p[idx]
            step = max(1, _CHUNK_CAP // len(idx))
            for s in range(0, n_samples, step):
                prod = coef_p[s:s + step, col]
                prod *= values
                if run >= _ROW_NNZ_LIMIT:
                    prod %= p
                residues[s:s + step, t, offset:offset + len(starts)] = np.add.reduceat(
                    prod, starts, axis=1) % p
            offset += len(starts)
    # the chunks and the patterns' keys are freed before the expansion
    del chunks
    ti, tj = np.divmod(np.concatenate(patterns) % (n * n), n)
    del patterns
    kernel_table = (np.append(0, np.cumsum(count)), width, ti, tj, residues)
    found = _sample_products(kernel_table, n, quads, depth, np.array(primes, dtype=np.int64),
                             entries)
    if not entries:
        return set(found.tolist())
    quad, sample, _, _, by_prime = found
    peaks = _crt_peaks(sample * len(quads) + quad, by_prime, depth[sample, quad], primes, products)
    return {divmod(group, len(quads)): entry for group, entry in peaks.items()}
