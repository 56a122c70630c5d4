"""Random environments, the absorbed chain, and Monte Carlo estimators.

An environment assigns exit probabilities to the out-edges of every interior
vertex; drawing them from independent per-vertex Dirichlet laws with the edge
weights as parameters gives the random-environment model.  The Green function
of the chain killed at the cemetery turns an environment into an edge-
occupation flow, and the weighted-tree functionals estimated here are the
probabilistic side of the integral identities checked in `integrals`.

Randomness contract: every draw comes from a counter-based Philox stream
keyed (seed, kind, block), so results are bit-identical per seed.  The kinds
are _ENV 0 (environments), _CHAIN 1 (chain walks), _WILSON 2 (Wilson's
walks), _PROPOSAL 3 (the flow side's Gamma proposal), _PAIRING 7 (the
divergence pairing's triples), _FLATNESS 8 (the rates of check-flatness) and
_THM21 9 (the points of Theorem 2.1's certificate).
A batch of n samples is cut into blocks of BLOCK_ROWS samples, the last one
shorter, and block b draws from stream (seed, kind, b) alone (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011): each block is an
independent batch, and no sampler holds work arrays of length n.  Block 0 is
the stream every other draw uses, so a batch of at most BLOCK_ROWS samples
draws what one unblocked stream would.  Within a
block the environment batch draws one gamma vector of the block's samples
per edge, in graph edge order.  An edge out of a vertex with some weight
below 1/16 draws a Gamma(alpha + 1) vector and then a uniform vector
instead, and its vertex normalises its exits in log space
(`sample_environment_batch`); other vertices draw as before.  The walkers of
a block move in lockstep: every lockstep step draws one uniform per walker
of the block still moving, in walker order.  A walk thus depends on its
block and on the other walks of that block alone, and a batch of one is a
single walk.  One Wilson kernel gives the trees and, from the base alone,
the loop-erased paths of the very chain walks of `simulate_chains`.

Batch layout: the Monte Carlo kernels keep a block of environments
edge-major, one contiguous row of samples per edge, and form every
per-sample sum or product by elementwise operations on whole rows, in edge
order; no per-sample sum is a BLAS product, so no result depends on the BLAS
thread count.  `sample_environment_batch` returns the transpose view of an
edge-major array, of shape (n, |E|), so that a row of the view is one
environment.  Every estimate folds each block's mean and sum of squared
deviations into running moments, block by block in block order (`Moments`).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .combinatorics import SpanningTree, FlowPoint, enumerate_spanning_trees
from .graphs import DirectedGraph, out_weights, reach
from .rationals import _distinct, mat_det, mat_solve

STEP_CAP = 10_000_000


class IterationCapExceeded(RuntimeError):
    """A random walk exceeded the step cap; the environment is suspect."""


@dataclass(frozen=True)
class DirichletWeights:
    """Positive edge weights; the per-vertex totals are the Dirichlet scales."""
    alpha: dict[str, Fraction]

    def __post_init__(self):
        for eid, a in self.alpha.items():
            if a <= 0:
                raise ValueError(f"weight of edge {eid!r} must be positive, got {a}")

    def beta(self, g: DirectedGraph) -> dict[str, Fraction]:
        return out_weights(g, self.alpha)

    @classmethod
    def from_graph(cls, g: DirectedGraph, overrides=None) -> "DirichletWeights":
        alpha = g.alpha_map()
        if overrides:
            alpha.update({k: Fraction(v) for k, v in overrides.items()})
        unknown = set(alpha) - set(g.edge_ids)
        if unknown:
            raise ValueError(f"weights for unknown edges: {sorted(unknown)}")
        return cls(alpha)


@dataclass(frozen=True, eq=False)
class Environment:
    """Exit probabilities per edge; at every interior vertex they sum to one."""
    p: dict[str, object]  # Fraction for exact work, float for sampled

    def __getitem__(self, edge_id):
        return self.p[edge_id]

    def is_exact(self) -> bool:
        return all(isinstance(v, Fraction) for v in self.p.values())


_SUM_TOL = 1e-14  # how far from 1 a float environment's exits at a vertex may sum


def check_environment(g: DirectedGraph, env: Environment) -> None:
    """Raise ValueError unless every exit probability lies in [0, 1], those at
    every interior vertex sum to one and every interior vertex reaches the
    cemetery along positive ones."""
    for x in g.interior:
        for e in g.out_edges[x]:
            if not 0 <= env.p[e.id] <= 1:
                raise ValueError(f"exit probability of {e.id!r} is {env.p[e.id]}, not in [0, 1]")
        total = sum(env.p[e.id] for e in g.out_edges[x])
        if isinstance(total, Fraction):
            if total != 1:
                raise ValueError(f"exit probabilities at {x!r} sum to {total}, not 1")
        elif abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"exit probabilities at {x!r} sum to {total!r}, not 1")
    reached = reach(g, g.cemetery, backwards=True, usable=lambda e: env.p[e.id] > 0)
    stuck = [x for x in g.interior if x not in reached]
    if stuck:
        raise ValueError(f"no positive-probability path from {stuck} to the cemetery")


@dataclass(frozen=True)
class McEstimate:
    value: float
    std_error: float
    n_samples: int
    seed: int

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "std_error": self.std_error,
            "n_samples": self.n_samples,
            "seed": self.seed,
        }


# stream kinds; the second Philox key word is (kind << 48) | block
_ENV, _CHAIN, _WILSON, _PROPOSAL, _PAIRING, _FLATNESS, _THM21 = 0, 1, 2, 3, 7, 8, 9

# Samples per block of a batch of environments or of walkers.  It is part of
# the stream contract: block b of a batch draws from stream (seed, kind, b),
# so changing it changes every batch of more than BLOCK_ROWS samples.  A
# block's arrays stay in cache and in the allocator's free lists, where arrays
# of a whole 100k batch are mapped afresh, page by page, at every step.
BLOCK_ROWS = 8192


def philox_stream(seed: int, kind: int, block: int = 0) -> np.random.Generator:
    """Counter-based generator of stream (seed mod 2^64, kind, block); bit-stable."""
    key = np.array([seed % 2**64, (kind << 48) | block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _blocks(n: int):
    """(block index, first sample, end) of each block of a batch of n samples."""
    for b, lo in enumerate(range(0, n, BLOCK_ROWS)):
        yield b, lo, min(lo + BLOCK_ROWS, n)


# A Gamma(alpha) draw underflows to 0.0 with probability about
# 2^(-1074 alpha) / Gamma(alpha + 1): below 2^-64 at alpha >= 1/16, but near
# 1e-3 at alpha = 1/100, where every exit of a vertex can underflow and its
# normalisation divide 0 by 0.
LOG_DRAW_BELOW = Fraction(1, 16)
# Such a vertex keeps every exit at least e^-700 / out-degree, a normal
# float: an exit that underflowed to 0.0 would trap the chain.
LOG_FLOOR = -700.0


def _draw_environments(g: DirectedGraph, w: DirichletWeights, rng, p: np.ndarray) -> None:
    """Fill the edge-major (|E|, m) array p, whose rows are contiguous, with m
    environments: each edge's gamma draws fill its row, and each vertex
    divides its rows by their sum, added one after another in out-edge
    order.  A vertex with some exit weight below LOG_DRAW_BELOW draws each
    exit in log space instead, as log Gamma(alpha + 1) + log(U) / alpha with
    U uniform on (0, 1], whose exponential is a Gamma(alpha) draw (Marsaglia
    & Tsang, ACM TOMS 26, 2000), and subtracts the largest of its logs before
    exponentiating."""
    m = p.shape[1]
    logged = {x for x in g.interior
              if any(w.alpha[e.id] < LOG_DRAW_BELOW for e in g.out_edges[x])}
    for row, e in zip(p, g.edges):
        alpha = float(w.alpha[e.id])
        if e.tail in logged:
            rng.standard_gamma(alpha + 1, size=m, out=row)
            np.log(row, out=row)
            row += np.log1p(-rng.random(m)) / alpha
        else:
            rng.standard_gamma(alpha, size=m, out=row)
    index = {eid: j for j, eid in enumerate(g.edge_ids)}
    for x in g.interior:
        rows = [p[index[e.id]] for e in g.out_edges[x]]
        if x in logged:
            top = np.maximum.reduce(rows)
            for row in rows:
                np.exp(np.maximum(row - top, LOG_FLOOR), out=row)
        total = sum(rows[1:], rows[0])  # a vertex's only row is divided by itself
        for row in rows:
            row /= total


def sample_environment_batch(g: DirectedGraph, w: DirichletWeights, n: int, seed: int) -> np.ndarray:
    """(n, |E|) matrix of exit probabilities, rows independent environments.

    It is the transpose view of an edge-major (|E|, n) array whose columns
    are the blocks of the batch, each drawn by `_draw_environments` from its
    own stream."""
    p = np.empty((len(g.edge_ids), n))
    for b, lo, hi in _blocks(n):
        _draw_environments(g, w, philox_stream(seed, _ENV, b), p[:, lo:hi])
    return p.T


def sample_environment(g: DirectedGraph, w: DirichletWeights, seed: int) -> Environment:
    """One environment drawn from the product-Dirichlet law, deterministic per seed."""
    row = sample_environment_batch(g, w, 1, seed)[0]
    return Environment({eid: float(row[j]) for j, eid in enumerate(g.edge_ids)})


# ---------------------------------------------------------------------------
# killed chain linear algebra
# ---------------------------------------------------------------------------
# The single-environment functions solve I - P, assembled in `_killed_chain`,
# exactly: float exit probabilities enter at their exact binary values and
# each result is rounded to float once, so a float result is the correctly
# rounded exact one.  A chain that does not reach the cemetery has det(I - P)
# = 0, which `survival_determinant` returns and the other functions reject.
#
# The Monte Carlo kernel `_gth` runs Grassmann-Taksar-Heyman elimination
# (Oper. Res. 33, 1985) on a block of environments at once, one array over the
# block per (vertex, vertex) entry.  Eliminating vertex m
# censors the chain to the vertices left: a walk from i that enters m leaves it
# towards j (or the cemetery) with probability P_im P_mj / s_m, where the pivot
# s_m is the sum of m's exits to the vertices left and to the cemetery, never
# 1 - P_mm.  So nothing is subtracted, and det(I - P), the product of the
# pivots, and the Green row are entrywise relatively accurate (O'Cinneide,
# Numer. Math. 65, 1993), also when an exit probability is 1e-18 and its
# complement rounds to 1.  The LU factors of I - P are U, with the pivots on
# its diagonal and the exits -P_mj at m's elimination above it, and L, with
# the multipliers -P_im / s_m below its unit diagonal.  The Green row w at the
# base solves w (I - P) = e_base by a forward solve with U, run alongside the
# elimination, and a back solve with L.  Both add positive terms only.

def _gth(g: DirectedGraph, p: np.ndarray, flows: np.ndarray) -> np.ndarray:
    """det(I - P) of a block of environments, eliminating the vertices in
    interior order; writes their edge-occupation flows to `flows`, an array
    of the shape of p."""
    k = len(g.interior)
    pos = {x: i for i, x in enumerate(g.interior)}
    # exits[i][j]: exit probability from vertex i to vertex j (j == k: the
    # cemetery) in the chain censored to the vertices not yet eliminated, kept
    # only where some walk leads; the diagonal is never needed
    exits = [{} for _ in range(k)]
    pt = p.T  # one row per edge, contiguous when p is an edge-major batch
    for j, e in enumerate(g.edges):
        row, h = exits[pos[e.tail]], pos.get(e.head, k)
        row[h] = row[h] + pt[j] if h in row else pt[j]
    det = 1.0
    y = []  # forward solve of y U = e_base; once l is eliminated, exits[l][m] = -U_lm
    mult = [{} for _ in range(k)]  # the multipliers P_im / s_m, i > m
    for m in range(k):
        row = exits[m]
        s = sum(row.values())
        det = det * s
        acc = sum(y[l] * exits[l].pop(m) for l in range(m) if m in exits[l])
        y.append((acc + 1.0 if m == pos[g.base] else acc) / s)
        for i in range(m + 1, k):
            if m in exits[i]:
                f = mult[m][i] = exits[i].pop(m) / s
                for j, pmj in row.items():
                    if j != i:
                        exits[i][j] = exits[i][j] + f * pmj if j in exits[i] else f * pmj
        row.pop(k, None)  # its exits to vertices wait for the forward solve
    # back solve of w L = y; w is the Green row at the base
    visits = [None] * k
    for m in range(k - 1, -1, -1):
        visits[m] = sum((visits[i] * f for i, f in mult[m].items()), y[m])
    for j, e in enumerate(g.edges):
        np.multiply(visits[pos[e.tail]], pt[j], out=flows[:, j])
    return det


_SINGULAR = "survival system is singular; environment does not reach the cemetery"


def _killed_chain(g: DirectedGraph, env: Environment):
    """Exact exit probabilities of one environment by edge id, its exact I - P
    as a list of rows, and the rounding of exact results to the environment's
    scalar type."""
    p = {eid: Fraction(env.p[eid]) for eid in g.edge_ids}
    vidx = {x: i for i, x in enumerate(g.interior)}
    a = [[Fraction(int(i == j)) for j in range(len(vidx))] for i in range(len(vidx))]
    for e in g.edges:
        if e.head != g.cemetery:
            a[vidx[e.tail]][vidx[e.head]] -= p[e.id]
    return p, a, (lambda x: x) if env.is_exact() else float


def _solve(a, rhs):
    try:
        return mat_solve(a, rhs)
    except ValueError as exc:
        raise ValueError(_SINGULAR) from exc


def green_function(g: DirectedGraph, env: Environment) -> np.ndarray:
    """Expected visit counts before absorption, as a dense interior matrix;
    exact when the environment is exact."""
    _, a, cast = _killed_chain(g, env)
    k = len(a)
    columns = _solve(a, [[int(i == j) for i in range(k)] for j in range(k)])
    return np.array([[cast(col[i]) for col in columns] for i in range(k)])


def edge_occupation(g: DirectedGraph, env: Environment) -> FlowPoint:
    """Expected crossing counts per edge; exact when the environment is exact."""
    p, a, cast = _killed_chain(g, env)
    # row of the Green function at the base: solve (I - P)^T w = e_base
    (visits,) = _solve([list(col) for col in zip(*a)], [[int(x == g.base) for x in g.interior]])
    at = dict(zip(g.interior, visits))
    return FlowPoint({e.id: cast(at[e.tail] * p[e.id]) for e in g.edges})


def survival_determinant(g: DirectedGraph, env: Environment):
    """det(I - P) for the killed chain; exact Fraction for exact environments."""
    _, a, cast = _killed_chain(g, env)
    return cast(mat_det(a))


def tree_probability(g: DirectedGraph, env: Environment, tree: SpanningTree):
    """Probability of a directed spanning tree under the walk's tree measure."""
    if not tree.directed:
        raise ValueError("tree probability is defined for directed spanning trees only")
    p, a, cast = _killed_chain(g, env)
    det = mat_det(a)
    if det == 0:
        raise ValueError(_SINGULAR)
    num = Fraction(1)
    for eid in tree.edges:
        num *= p[eid]
    return cast(num / det)


# ---------------------------------------------------------------------------
# trajectory samplers
# ---------------------------------------------------------------------------
# The walkers of a block (`_blocks`) move in lockstep, numbered from 0 in the
# block.  Vertices are numbered in g.interior order with the cemetery last,
# edges in g.edges order.  Each lockstep step of a walk draws rng.random(m)
# from the block's stream, one uniform per walker of the block still moving,
# in walker order; nothing else draws from the stream.
#
# The step kernel works on flat indices into small tables.  Vertex i owns the
# exit slots i * width .. i * width + width - 1 of the flat `slot` table, its
# out-edges in g.out_edges order; `width` is the largest out-degree.  Threshold
# column c holds, for every vertex, the float cumulative sum of its first c + 1
# exit probabilities, or +inf where the vertex has no exit after slot c.  The
# last exit has no threshold: it takes whatever u the rounded sum leaves over.
# A walker at x with uniform u takes slot x * width + #{c : column_c[x] <= u},
# one gather and compare per column, and never a padding slot.  Per-walker
# tables (stop flags, recorded exits) are read and written at walker * row
# length + vertex on their flat views.
#
# The samplers hand back whole blocks, never one walk at a time, except for
# the trajectories of `simulate_chains`.  Wilson's walkers (`_tree_exits`)
# leave a table of exit rows per block, the trees from every interior vertex
# and the loop-erased paths from the base alone, a vertex off a path holding
# the exit |E|; `wilson_tree_counts` and `loop_erased_paths` count the
# distinct rows (`_row_counts`) and build one edge set per distinct row, and
# `wilson_sample_trees` lists one tree per sample from the same tables.

def _random_exits(g: DirectedGraph, env: Environment):
    """The head vertex of every edge, and a function from a stream to a chooser
    that draws one exit edge for each walker in walker order, one uniform
    each, from the chain in `env`; the tables are built once per call."""
    check_environment(g, env)
    width = max(len(g.out_edges[x]) for x in g.interior)
    columns = np.full((width - 1, len(g.interior)), np.inf)
    slot = np.zeros((len(g.interior), width), dtype=np.intp)
    eidx = {eid: j for j, eid in enumerate(g.edge_ids)}
    for i, x in enumerate(g.interior):
        out = g.out_edges[x]
        columns[:len(out) - 1, i] = np.cumsum([float(env.p[e.id]) for e in out[:-1]])
        slot[i, :len(out)] = [eidx[e.id] for e in out]
    slot = slot.reshape(-1)
    vidx = {x: i for i, x in enumerate(g.interior + (g.cemetery,))}
    head = np.array([vidx[e.head] for e in g.edges], dtype=np.intp)

    def chooser(rng):
        def choose(walkers, x):
            u = rng.random(len(walkers))
            at = x * width
            for column in columns:
                at += column.take(x) <= u
            return slot.take(at)
        return choose
    return head, chooser


def _lockstep(head: np.ndarray, choose, walkers: np.ndarray, x: np.ndarray, stop: np.ndarray,
              cap: int):
    """Move each walker from its vertex in x along the edge choose(walkers, x)
    picks until walker w stands on a vertex v with stop[w, v]; yields
    (walkers, tails, edges) of every lockstep step.  A walker still moving
    after `cap` steps raises IterationCapExceeded."""
    # each walker's first flag in the flat stop table, kept from compaction to compaction
    offset = walkers * stop.shape[1]
    stop = stop.reshape(-1)  # a view: the caller may set flags between steps
    for _ in range(cap):
        if not len(walkers):
            return
        e = choose(walkers, x)
        yield walkers, x, e
        x = head.take(e)
        stopped = stop.take(offset + x)
        if stopped.any():
            going = (~stopped).nonzero()[0]
            walkers, x, offset = walkers.take(going), x.take(going), offset.take(going)
    if len(walkers):
        raise IterationCapExceeded(f"a walk did not stop within {cap} steps")


def simulate_chains(g: DirectedGraph, env: Environment, n: int, seed: int) -> list[list[str]]:
    """n trajectories of the chain from the base until absorption, as edge
    ids; block b walks on stream (seed, _CHAIN, b)."""
    head, chooser = _random_exits(g, env)
    k, base = len(g.interior), g.interior.index(g.base)
    trajectories: list[list[str]] = [[] for _ in range(n)]
    for b, lo, hi in _blocks(n):
        absorbed = np.zeros((hi - lo, k + 1), dtype=bool)
        absorbed[:, k] = True
        for walkers, _, edges in _lockstep(head, chooser(philox_stream(seed, _CHAIN, b)),
                                           np.arange(hi - lo), np.full(hi - lo, base), absorbed,
                                           STEP_CAP):
            for w, e in zip((walkers + lo).tolist(), edges.tolist()):
                trajectories[w].append(g.edge_ids[e])
    return trajectories


def loop_erase(g: DirectedGraph, trajectory: list[str]) -> list[str]:
    """Chronological loop erasure of an absorbed trajectory, as edge ids."""
    verts = [g.base]
    edges: list[str] = []
    pos = {g.base: 0}
    for eid in trajectory:
        nxt = g.edge_by_id[eid].head
        if nxt in pos:
            j = pos[nxt]
            for v in verts[j + 1:]:
                del pos[v]
            verts = verts[:j + 1]
            edges = edges[:j]
        else:
            verts.append(nxt)
            edges.append(eid)
            pos[nxt] = len(verts) - 1
    return edges


def _row_keys(a: np.ndarray, base: int) -> np.ndarray:
    """Each row of a 2-D array of integers in [0, base) as one int64 in that
    base, its first column the most significant digit, so that the keys sort
    as the rows do."""
    key = np.zeros(len(a), dtype=np.int64)
    for column in a.T:
        key *= base
        key += column
    return key


def _key_rows(keys: np.ndarray, base: int, width: int, dtype) -> np.ndarray:
    """The rows whose `_row_keys` in `base` are `keys`: their digits."""
    rows = np.empty((len(keys), width), dtype=dtype)
    for c in reversed(range(width)):
        keys, rows[:, c] = np.divmod(keys, base)
    return rows


def _distinct_rows(a: np.ndarray):
    """The distinct rows of a 2-D array of non-negative integers, in
    lexicographic order, and the position of each row of `a` among them.

    Each row is read as one int64 in base one more than the largest entry
    (`_row_keys`); `rationals._distinct` sorts and groups the keys, and the
    distinct rows are the digits of the distinct keys.  Where the key would
    overflow int64, np.lexsort sorts the rows instead."""
    base = int(a.max(initial=0)) + 1
    if base ** a.shape[1] > np.iinfo(np.int64).max:
        order = np.lexsort(a.T[::-1])
        rows = a[order]
        fresh = np.ones(len(a), dtype=bool)
        fresh[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        inverse = np.empty(len(a), dtype=np.intp)
        inverse[order] = np.cumsum(fresh) - 1
        return rows[fresh], inverse
    keys, inverse = _distinct(_row_keys(a, base))
    return _key_rows(keys, base, a.shape[1], a.dtype), inverse


def _row_counts(a: np.ndarray):
    """The distinct rows of a 2-D array of non-negative integers, in
    lexicographic order, and how many rows of `a` equal each.  Where the
    range of the row keys, base^width, is at most the number of rows,
    np.bincount counts the keys without a sort; otherwise `_distinct_rows`
    sorts."""
    base = int(a.max(initial=0)) + 1
    size = base ** a.shape[1]
    if size > len(a):
        rows, inverse = _distinct_rows(a)
        return rows, np.bincount(inverse)
    counts = np.bincount(_row_keys(a, base), minlength=size)
    keys = np.flatnonzero(counts)
    return _key_rows(keys, base, a.shape[1], a.dtype), counts[keys]


def _tree_exits(g: DirectedGraph, env: Environment, n: int, seed: int, kind: int, starts):
    """Wilson's algorithm on n samples from the interior vertices `starts`
    (indices into g.interior), one block at a time: yields each block's first
    sample lo and its exit table, whose row w holds, in g.interior order, the
    edge index by which the tree of sample lo + w leaves each vertex, or
    len(g.edges) where the vertex is off that tree.

    Block b of the samples draws from stream (seed, kind, b).  For each start
    in turn, every sample of the block lacking it walks until it hits its
    tree, recording its last exit from each vertex; the path that follows
    those exits from the start joins the tree.
    """
    head, chooser = _random_exits(g, env)
    k = len(g.interior)
    for b, lo, hi in _blocks(n):
        choose = chooser(philox_stream(seed, kind, b))
        in_tree = np.zeros((hi - lo, k + 1), dtype=bool)
        in_tree[:, k] = True
        flags = in_tree.reshape(-1)
        exits = np.zeros((hi - lo, k), dtype=np.intp)
        last = exits.reshape(-1)
        for s in starts:
            walkers = np.flatnonzero(~in_tree[:, s])
            start = np.full(len(walkers), s)
            for w, x, e in _lockstep(head, choose, walkers, start, in_tree, STEP_CAP):
                last[w * k + x] = e
            # a tree path is simple, so it ends within |interior| steps
            for w, x, _ in _lockstep(head, lambda w, x: last.take(w * k + x), walkers, start,
                                     in_tree, k):
                flags[w * (k + 1) + x] = True
        # a vertex off the tree of sample w, at w * (k + 1) + x in the flags, gets the exit |E|
        off = np.flatnonzero(~flags)
        last[off - off // (k + 1)] = len(g.edges)
        yield lo, exits


def _exit_counts(g: DirectedGraph, tables) -> Counter:
    """Counts of the edge sets, as edge-id frozensets, of the rows of the
    exit tables of `_tree_exits`, counted per distinct row by `_row_counts`."""
    counts = Counter()
    for _, exits in tables:
        rows, row_counts = _row_counts(exits)
        for row, c in zip(rows.tolist(), row_counts.tolist()):
            counts[frozenset(g.edge_ids[j] for j in row if j < len(g.edges))] += c
    return counts


def loop_erased_paths(g: DirectedGraph, env: Environment, n: int, seed: int) -> Counter:
    """Counts of the loop-erased paths of n chains, each path an edge-id frozenset.

    The chronological loop erasure of a walk from the base is the branch that
    Wilson's algorithm adds when it starts at the base alone (Wilson, STOC
    1996), so `_tree_exits` from the base on the chain streams walks the
    chains of `simulate_chains` at the same seed and leaves each erased path
    as the exits of its vertices.
    """
    return _exit_counts(g, _tree_exits(g, env, n, seed, _CHAIN, [g.interior.index(g.base)]))


def wilson_sample_trees(g: DirectedGraph, env: Environment, n: int, seed: int) -> list[SpanningTree]:
    """n directed spanning trees via loop-erased walks rooted at the cemetery (Wilson).

    The trees are those of the exit tables of `_tree_exits` from every
    interior vertex in order, one tree object per distinct exit row;
    `wilson_tree_counts` counts the same trees without listing them.
    """
    trees: list[SpanningTree] = [None] * n
    shared: dict[tuple, SpanningTree] = {}  # one tree object per exit row, across blocks
    for lo, exits in _tree_exits(g, env, n, seed, _WILSON, range(len(g.interior))):
        rows, inverse = _distinct_rows(exits)
        block = np.empty(len(rows), dtype=object)
        block[:] = [shared.setdefault(row, SpanningTree(frozenset(g.edge_ids[j] for j in row),
                                                         directed=True))
                    for row in map(tuple, rows.tolist())]
        trees[lo:lo + len(exits)] = block.take(inverse).tolist()
    return trees


def wilson_tree_counts(g: DirectedGraph, env: Environment, n: int, seed: int) -> Counter:
    """Counts of the n directed spanning trees of `wilson_sample_trees` at the
    same seed, each tree an edge-id frozenset."""
    return _exit_counts(g, _tree_exits(g, env, n, seed, _WILSON, range(len(g.interior))))


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------

def real_rates(lam, edge_ids) -> list[float]:
    """The rates of the given edges as floats: each real and not negative; a
    complex rate passes when its imaginary part is zero."""
    rates = []
    for eid in edge_ids:
        v = lam[eid]
        if isinstance(v, complex):
            if v.imag != 0:
                raise ValueError(f"rate for edge {eid!r} must be real, got {v}")
            v = v.real
        v = float(v)
        if v < 0:
            raise ValueError(f"rate for edge {eid!r} is negative: {v}")
        rates.append(v)
    return rates


class Moments:
    """Running count, mean and sum of squared deviations (M2) of a sample
    fed block by block.

    A block's mean and M2 are numpy's: the pairwise sum of its values over
    its size, and the pairwise sum of their squared deviations from that
    mean.  Blocks merge in the order they come by the update of Chan, Golub
    & LeVeque (Amer. Stat. 37, 1983); after one block the estimate is
    numpy's mean() and std(ddof=1) / sqrt(n) of it to the bit."""

    __slots__ = ("count", "mean", "m2")

    def __init__(self):
        self.count, self.mean, self.m2 = 0, 0.0, 0.0

    def add(self, vals: np.ndarray) -> None:
        """Fold in a contiguous block of values, overwriting it."""
        m = len(vals)
        mean = float(np.add.reduce(vals)) / m
        np.subtract(vals, mean, out=vals)
        np.multiply(vals, vals, out=vals)
        m2 = float(np.add.reduce(vals))
        if self.count:
            share = m / (self.count + m)
            delta = mean - self.mean
            mean = self.mean + delta * share
            m2 = self.m2 + m2 + delta * delta * (self.count * share)
        self.count, self.mean, self.m2 = self.count + m, mean, m2

    def estimate(self) -> tuple[float, float]:
        """The mean and its standard error, sqrt(M2 / (n - 1)) / sqrt(n)."""
        n = self.count
        return self.mean, math.sqrt(self.m2 / (n - 1)) / math.sqrt(n)


def _laplace_block(g: DirectedGraph, p: np.ndarray, z: np.ndarray, rated, tree_rows,
                   lap: np.ndarray, t: np.ndarray, fold) -> None:
    """The Dirichlet side's kernel on a block of environments, the edge-major
    (|E|, m) array p: `_gth` gives their flows, written to z, and det(I -
    P); lap gets each environment's Laplace value, exp of minus the sum of
    the rows rate_e * flow_e of `rated`, added in edge order; and for each
    tree k, its exit rows (`tree_rows[k]`) are multiplied into t in edge
    order, then times lap and over det, and handed to fold(k, t), which may
    overwrite t.  A directed tree's weight is at most det, so where lap
    underflows to 0.0 each tree's term is 0.0 too; det is set to 1 there,
    where a weight and det may both have underflowed.  A rate term that
    overflows is inf, and its Laplace value 0.0, without a warning."""
    det = _gth(g, p.T, z.T)
    lap.fill(0.0)
    with np.errstate(over="ignore"):
        for j, lj in rated:
            np.multiply(z[j], lj, out=t)
            lap += t
    np.negative(lap, out=lap)
    np.exp(lap, out=lap)
    det[lap == 0] = 1.0
    for k, rows in enumerate(tree_rows):
        np.copyto(t, p[rows[0]])
        for j in rows[1:]:
            t *= p[j]
        t *= lap
        t /= det
        fold(k, t)


def _laplace_inputs(g: DirectedGraph, lam, trees):
    """The nonzero (edge index, rate) pairs of the rate term and each
    directed tree's edge indices, for `_laplace_block`."""
    if not all(t.directed for t in trees):
        raise ValueError("the tree-weighted estimator needs a directed spanning tree")
    rated = [(j, r) for j, r in enumerate(real_rates(lam, g.edge_ids)) if r != 0]
    return rated, [[j for j, eid in enumerate(g.edge_ids) if eid in t.edges] for t in trees]


def check_samples(n: int) -> None:
    """Raise ValueError when n samples are too few for a standard error."""
    if n < 2:
        raise ValueError(f"a standard error needs at least 2 samples, got {n}")


def mc_laplace_by_tree(g: DirectedGraph, w: DirichletWeights, lam, trees, n: int,
                       seed: int) -> tuple[McEstimate, list[McEstimate]]:
    """Average of exp(-<rates, occupation>) over sampled environments, and the
    average of the same values times each directed tree's probability weight,
    all from one environment batch.

    The batch runs as independent blocks of BLOCK_ROWS samples, each drawn
    from its own stream (`sample_environment_batch` gives the same batch).
    Each block is drawn edge-major into one reused array and goes through
    `_laplace_block`.  Each estimate folds the block's values into its
    running `Moments`, so nothing of length n is held, and no result depends
    on the BLAS thread count."""
    check_samples(n)
    rated, tree_rows = _laplace_inputs(g, lam, trees)
    size = min(n, BLOCK_ROWS)
    pt, zt = np.empty((len(g.edge_ids), size)), np.empty((len(g.edge_ids), size))
    laplace, terms = np.empty(size), np.empty(size)
    total, per_tree = Moments(), [Moments() for _ in trees]
    for b, lo, hi in _blocks(n):
        m = hi - lo
        p, lap = pt[:, :m], laplace[:m]
        _draw_environments(g, w, philox_stream(seed, _ENV, b), p)
        _laplace_block(g, p, zt[:, :m], rated, tree_rows, lap, terms[:m],
                       lambda k, t: per_tree[k].add(t))
        total.add(lap)
    return (McEstimate(*total.estimate(), n, seed),
            [McEstimate(*moments.estimate(), n, seed) for moments in per_tree])


def mc_estimate_rhs(g: DirectedGraph, w: DirichletWeights, lam, tree: SpanningTree,
                    n: int, seed: int) -> McEstimate:
    """Average of exp(-<rates, occupation>) times the directed tree's probability weight."""
    return mc_laplace_by_tree(g, w, lam, [tree], n, seed)[1][0]


def mc_laplace(g: DirectedGraph, w: DirichletWeights, lam, n: int, seed: int) -> McEstimate:
    """Average of exp(-<rates, occupation>) over sampled environments.

    Uses the same environment batch as mc_estimate_rhs at the same (n, seed),
    so the per-directed-tree estimates sum to this one up to float roundoff.
    """
    return mc_laplace_by_tree(g, w, lam, [], n, seed)[0]


def directed_trees(g: DirectedGraph) -> list[SpanningTree]:
    return enumerate_spanning_trees(g, directed_only=True)
