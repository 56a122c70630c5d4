"""Exact scalar parsing and small exact linear algebra.

Every identity check in this package (matrix-tree, commutation relations,
flatness, the divergence pairing) is an exact statement over the rationals;
floats appear only in the numeric shadows.  Solves run on stdlib Fractions:
the matrices are desk-scale (tens of rows), so one plain Gauss-Jordan
elimination serves rank, determinant and solve alike.

Matrix products are exact over Q through residues.  Integer matrices live
in an `IntTable`: n x n matrices in COO form, each a slice of entries sorted
by (row, col), with int64 values, or object ones past int64.  A product
A B - C D of table matrices is computed modulo primes below 2^26, with as
many primes as an integer bound on its entries asks for, and a nonzero entry
is recovered by the Chinese remainder theorem.  The kernel runs on numpy
alone, in the two phases of Gustavson's sparse product (ACM TOMS 4, 1978):
a symbolic phase expands each entry of A against a row of B, and of C
against D, and sorts the products by entry, once per pattern; a numeric
phase sums them for every value set on that pattern, one prime of one
sample per row of an int64 array.  `nonzero_quads` decides which products
vanish (the commutation relations); `commutator_peaks` takes integer
combinations of table matrices, one per edge and sample, assembles each on
its union pattern for all samples at once, and expands each pair once for
all of them (flatness).

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
# holds at most this many residues (rows x products, a row being one prime
# of one sample), or one row's.
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


def table_sum(table: IntTable, members, n: int):
    """The sum of the member matrices of the table, as a (rows, cols, values)
    triple with one entry per position of any member, kept also where the
    values cancel."""
    idx = _ranges(table.ptr[members], np.diff(table.ptr)[members])
    key = table.rows[idx] * n + table.cols[idx]
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    values = np.add.reduceat(table.values[idx[order]], starts) if len(starts) else table.values[:0]
    return key[starts] // n, key[starts] % n, values


def _widths_and_peaks(table: IntTable, n: int) -> tuple[list[int], list[int]]:
    """The most entries in one row, and the largest |value|, of each matrix of
    the table."""
    size = np.diff(table.ptr)
    owner = np.repeat(np.arange(len(size)), size)
    key = owner * n + table.rows
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    width = np.zeros(len(size), dtype=np.int64)
    np.maximum.at(width, owner[starts], np.diff(np.append(starts, len(key))))
    peak = np.zeros(len(size), dtype=table.values.dtype)
    full = np.flatnonzero(size)
    if len(full):
        peak[full] = np.maximum.reduceat(np.abs(table.values), table.ptr[full])
    return width.tolist(), peak.tolist()


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
    cost = n + size[a] * width[b] + size[c] * width[d]
    chunk = np.cumsum(cost) // _CHUNK_CAP
    edges = np.append(np.flatnonzero(np.diff(chunk, prepend=-1)), len(quads))
    grid = np.arange(n_primes)
    found = []
    for lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist()):
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


def _residue_products(table, n: int, quads: np.ndarray, depth: np.ndarray,
                      primes: np.ndarray):
    """`_sample_products` for a table of one sample: the nonzero entries of A
    B - C D for each row q = (A, B, C, D) of quads, as arrays (q, i, j,
    residues), residues[:, t] the entry modulo primes[t] for t < depth[q];
    table = (ptr, width, i, j, residues) with residues[t] the entries modulo
    primes[t]."""
    ptr, width, ti, tj, residues = table
    q, _, i, j, by_prime = _sample_products((ptr, width, ti, tj, residues[None]), n, quads,
                                            depth[None], primes)
    return q, i, j, by_prime


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


def _residue_table(table: IntTable, n: int, quads):
    """The kernel's input for quads (A, B, C, D) of indices into the table:
    each quad gets the fewest primes below 2^26 whose product exceeds twice
    the bound rownnz(A) max|A| max|B| + rownnz(C) max|C| max|D| on its
    entries, so residues that are zero modulo every prime mean an exact zero.
    Returns the kernel table (residues below 2^26 kept as int32), the prime
    count of each quad, the primes and their running products."""
    width, peak = _widths_and_peaks(table, n)
    bounds = [2 * (width[a] * peak[a] * peak[b] + width[c] * peak[c] * peak[d])
              for a, b, c, d in quads]
    depth, primes, products = _depths(bounds)
    residues = np.empty((len(primes), len(table.values)), dtype=np.int32)
    for t, p in enumerate(primes):
        residues[t] = table.values % p
    return (table.ptr, np.array(width), table.rows, table.cols, residues), depth, primes, products


def integer_residuals(mats: list[IntSparse], n: int, quads) -> dict[int, int]:
    """The largest |entry| of A B - C D, exactly, for each quad (A, B, C, D) of
    indices into mats, n x n integer matrices whose entries may be of any size.

    Each quad is computed modulo as many primes as `_residue_table` gives it,
    and the Chinese remainder theorem recovers a nonzero entry.  All quads go
    through one batch of residue products.
    Returns {index of the quad: max |entry|} for the quads that are not zero.
    """
    if not quads:
        return {}
    coo = [sorted((i, j, v) for i, row in rows.items() for j, v in row.items()) for rows in mats]
    table = int_table([tuple(zip(*entries)) or ((), (), ()) for entries in coo])
    kernel_table, depth, primes, products = _residue_table(table, n, quads)
    quad, _, _, by_prime = _residue_products(kernel_table, n, np.asarray(quads, dtype=np.int64),
                                             depth, np.array(primes, dtype=np.int64))
    return _crt_peaks(quad, by_prime, depth[quad], primes, products)


def nonzero_quads(table: IntTable, n: int, quads) -> set[int]:
    """The indices of the quads (A, B, C, D) of the table's matrices whose A B
    - C D is not zero, decided exactly as by `integer_residuals`, without
    recovering any entry."""
    if not quads:
        return set()
    (ptr, width, ti, tj, residues), depth, primes, _ = _residue_table(table, n, quads)
    return set(_sample_products((ptr, width, ti, tj, residues[None]), n,
                                np.asarray(quads, dtype=np.int64), depth[None],
                                np.array(primes, dtype=np.int64), entries=False).tolist())


def commutator_peaks(table: IntTable, n: int, combos, pairs) -> dict[tuple[int, int], int]:
    """The largest |entry| of N_a N_b - N_b N_a, exactly, for each sample s and
    each pair k = (a, b) of pairs, as {(s, k): entry} for the nonzero ones.

    combos[e] = (terms, coef) gives N_e at sample s as the sum over t of
    coef[s][t] times the table's matrix terms[t]; coef holds one row of
    integers per sample.  All samples share N_e's pattern, the union of its
    terms' patterns, where an entry that cancels stays as a zero, so widths,
    bounds and prime counts are those of N_e summed entry by entry.  N_e is
    assembled exactly once for the largest |entry| of each sample, and modulo
    each prime for all samples at once: coef mod p at the terms' entries
    times their values mod p, summed per pattern position, a sparse (samples
    x terms)(terms x pattern) product in int64, exact while fewer than 2^11
    terms meet at a position.  Each pair is then expanded once for all its
    samples (`_sample_products`), each sample to its own prime count, and the
    Chinese remainder theorem recovers the nonzero entries.
    """
    if not pairs or not len(combos[0][1]):
        return {}
    sizes = np.diff(table.ptr)
    # per edge: its pattern's keys i n + j; the term and the value of each
    # term entry, sorted by key, and the first entry at each key; coef
    parts = []
    width, peaks = [], []
    for terms, coef in combos:
        terms = np.asarray(terms, dtype=np.int64)
        idx = _ranges(table.ptr[terms], sizes[terms])
        local = np.repeat(np.arange(len(terms)), sizes[terms])
        key = table.rows[idx] * n + table.cols[idx]
        order = np.argsort(key, kind="stable")
        key, idx, local = key[order], idx[order], local[order]
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        values = table.values[idx]
        coef = _int_values(coef)
        # exact in int64 while every sum of products is
        top = int(np.abs(coef).max(initial=0)) * int(np.abs(values).max(initial=0))
        dtype = np.int64 if top * len(terms) < 1 << 63 else object
        exact = np.zeros((len(coef), 0), dtype=np.int64)
        if len(starts):
            exact = np.add.reduceat(coef.astype(dtype)[:, local] * values.astype(dtype), starts,
                                    axis=1)
        peaks.append(np.abs(exact).max(axis=1, initial=0).tolist())
        rows = key[starts] // n
        width.append(int(np.diff(np.append(np.flatnonzero(np.diff(rows, prepend=-1)),
                                           len(rows))).max(initial=0)))
        parts.append((key[starts], local, values, coef, starts))

    n_samples = len(peaks[0])
    bounds = [2 * (width[a] + width[b]) * peaks[a][s] * peaks[b][s]
              for s in range(n_samples) for a, b in pairs]
    depth, primes, products = _depths(bounds)
    depth = depth.reshape(n_samples, len(pairs))

    # every N_e modulo each prime, at its pattern's slice of one row per
    # (sample, prime)
    ptr = np.zeros(len(parts) + 1, dtype=np.int64)
    np.cumsum([len(part[0]) for part in parts], out=ptr[1:])
    residues = np.zeros((n_samples, len(primes), ptr[-1]), dtype=np.int32)
    for (pattern, local, values, coef, starts), lo in zip(parts, ptr.tolist()):
        if not len(pattern):
            continue
        for t, p in enumerate(primes):
            prod = (coef % p).astype(np.int64)[:, local] * (values % p).astype(np.int64)
            if coef.shape[1] >= _ROW_NNZ_LIMIT:
                prod %= p
            residues[:, t, lo:lo + len(pattern)] = np.add.reduceat(prod, starts, axis=1) % p
    keys = np.concatenate([part[0] for part in parts])
    table = (ptr, np.array(width), keys // n, keys % n, residues)
    quads = np.array([(a, b, b, a) for a, b in pairs], dtype=np.int64)
    quad, sample, _, _, by_prime = _sample_products(table, n, quads, depth,
                                                    np.array(primes, dtype=np.int64))
    peaks = _crt_peaks(sample * len(pairs) + quad, by_prime, depth[sample, quad], primes, products)
    return {divmod(group, len(pairs)): peak for group, peak in peaks.items()}
