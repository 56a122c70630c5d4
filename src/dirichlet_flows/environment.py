"""Random environments, the absorbed chain, and Monte Carlo estimators.

An environment assigns exit probabilities to the out-edges of every interior
vertex; drawing them from independent per-vertex Dirichlet laws with the edge
weights as parameters gives the random-environment model.  The Green function
of the chain killed at the cemetery turns an environment into an edge-
occupation flow, and the weighted-tree functionals estimated here are the
probabilistic side of the integral identities checked in `integrals`.

Randomness contract: every draw comes from a counter-based Philox stream
keyed (seed, kind), one stream per kind of draw, so results are bit-identical
per seed.  The environment batch draws one gamma vector of all n samples per
edge, in graph edge order.  An edge out of a vertex with some weight below
1/16 draws a Gamma(alpha + 1) vector and then a uniform vector instead, and
its vertex normalises its exits in log space (`sample_environment_batch`);
other vertices draw as before.  The walkers move all n samples in lockstep: every
lockstep step draws one uniform per walker still moving, in walker order.
Sample i thus depends on n and on the other samples' walks, and a batch of
one is a single walk.  The chain walks of `simulate_chains` and
`loop_erased_paths` at one seed are the same walks.

Batch layout: the Monte Carlo kernels keep an environment batch edge-major,
one contiguous row of n samples per edge, and form every per-sample sum or
product by elementwise operations on whole rows, in edge order.
`sample_environment_batch` returns the transpose view of that array, of shape
(n, |E|), so that a row of the view is one environment.  The killed-chain
kernel reads either layout; its flows are row-major.  Each result is the same
to the bit as from a row-major batch reduced along its rows.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .combinatorics import SpanningTree, FlowPoint, enumerate_spanning_trees
from .graphs import DirectedGraph, reach
from .rationals import mat_det, mat_solve

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
        return {
            x: sum((self.alpha[e.id] for e in g.out_edges[x]), Fraction(0))
            for x in g.interior
        }

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


def check_environment(g: DirectedGraph, env: Environment, tol: float = 1e-14) -> None:
    """Raise ValueError unless the exit probabilities at every interior vertex sum
    to one and every interior vertex reaches the cemetery along positive ones."""
    for x in g.interior:
        total = sum(env.p[e.id] for e in g.out_edges[x])
        if isinstance(total, Fraction):
            if total != 1:
                raise ValueError(f"exit probabilities at {x!r} sum to {total}, not 1")
        elif abs(total - 1.0) > tol:
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


# stream kinds; the second Philox key word is kind << 48
_ENV, _CHAIN, _WILSON = 0, 1, 2


def philox_stream(seed: int, kind: int) -> np.random.Generator:
    """Counter-based generator of stream (seed, kind); bit-stable."""
    return np.random.Generator(np.random.Philox(key=[seed % 2**64, kind << 48]))


# A Gamma(alpha) draw underflows to 0.0 with probability about
# 2^(-1074 alpha) / Gamma(alpha + 1): below 2^-64 at alpha >= 1/16, but near
# 1e-3 at alpha = 1/100, where every exit of a vertex can underflow and its
# normalisation divide 0 by 0.
LOG_DRAW_BELOW = Fraction(1, 16)
# Such a vertex keeps every exit at least e^-700 / out-degree, a normal
# float: an exit that underflowed to 0.0 would trap the chain.
LOG_FLOOR = -700.0


def sample_environment_batch(g: DirectedGraph, w: DirichletWeights, n: int, seed: int) -> np.ndarray:
    """(n, |E|) matrix of exit probabilities, rows independent environments.

    It is the transpose view of an edge-major (|E|, n) array: each edge's
    gamma draws fill its row, and each vertex divides its rows by their sum,
    added one after another in out-edge order.  A vertex with some exit
    weight below LOG_DRAW_BELOW draws each exit in log space instead, as
    log Gamma(alpha + 1) + log(U) / alpha with U uniform on (0, 1], whose
    exponential is a Gamma(alpha) draw (Marsaglia & Tsang, ACM TOMS 26,
    2000), and subtracts the largest of its logs before exponentiating."""
    rng = philox_stream(seed, _ENV)
    logged = {x for x in g.interior
              if any(w.alpha[e.id] < LOG_DRAW_BELOW for e in g.out_edges[x])}
    p = np.empty((len(g.edge_ids), n))
    for row, e in zip(p, g.edges):
        alpha = float(w.alpha[e.id])
        if e.tail in logged:
            rng.standard_gamma(alpha + 1, size=n, out=row)
            np.log(row, out=row)
            row += np.log1p(-rng.random(n)) / alpha
        else:
            rng.standard_gamma(alpha, size=n, out=row)
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
    return p.T


def sample_environment(g: DirectedGraph, w: DirichletWeights, seed: int) -> Environment:
    """One environment drawn from the product-Dirichlet law, deterministic per seed."""
    row = sample_environment_batch(g, w, 1, seed)[0]
    return Environment({eid: float(row[j]) for j, eid in enumerate(g.edge_ids)})


# ---------------------------------------------------------------------------
# killed chain linear algebra
# ---------------------------------------------------------------------------
# The single-environment functions solve I - P, assembled in
# `_survival_matrices`, exactly: float exit probabilities enter at their exact
# binary values and each result is rounded to float once, so a float result is
# the correctly rounded exact one.  A chain that does not reach the cemetery
# has det(I - P) = 0, which `survival_determinant` returns and the other
# functions reject.
#
# The Monte Carlo kernel `_occupation_batch` runs Grassmann-Taksar-Heyman
# elimination (Oper. Res. 33, 1985) on a block of environments at once, one
# array over the block per (vertex, vertex) entry.  Eliminating vertex m
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

def _survival_matrices(g: DirectedGraph, p: np.ndarray) -> np.ndarray:
    """(n, k, k) stack of I - P over the interior, one per row of exit
    probabilities, in the dtype of p (object for exact Fractions)."""
    vidx = {x: i for i, x in enumerate(g.interior)}
    n, k = p.shape[0], len(vidx)
    pu = np.zeros((n, k, k), dtype=p.dtype)
    for j, e in enumerate(g.edges):
        if e.head != g.cemetery:
            pu[:, vidx[e.tail], vidx[e.head]] += p[:, j]
    return np.eye(k, dtype=p.dtype) - pu


# rows per block of the batched kernels: a block's arrays stay in cache and in
# the allocator's free lists, where arrays of a whole 100k batch are mapped
# afresh, page by page, at every step
BLOCK_ROWS = 8192


def _occupation_batch(g: DirectedGraph, p: np.ndarray):
    """det(I - P) and the edge-occupation flows of a batch of environments, by
    GTH elimination block by block."""
    det = np.empty(len(p))
    flows = np.empty(p.shape)  # C-ordered, whatever the layout of p
    for lo in range(0, len(p), BLOCK_ROWS):
        rows = slice(lo, lo + BLOCK_ROWS)
        det[rows] = _gth(g, p[rows], flows[rows])
    return det, flows


def _gth(g: DirectedGraph, p: np.ndarray, flows: np.ndarray) -> np.ndarray:
    """det(I - P) of a block of environments, eliminating the vertices in
    interior order; writes their edge-occupation flows to `flows`."""
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
    a = _survival_matrices(g, np.array([list(p.values())], dtype=object))[0].tolist()
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
# All n walkers move in lockstep.  Vertices are numbered in g.interior order
# with the cemetery last, edges in g.edges order.  Each lockstep step of a
# walk draws rng.random(m), one uniform per walker still moving, in walker
# order; nothing else draws from the stream.
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

def _random_exits(g: DirectedGraph, env: Environment, rng):
    """The head vertex of every edge, and a chooser that draws one exit edge for
    each walker in walker order, one uniform each, from the chain in `env`."""
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

    def choose(walkers, x):
        u = rng.random(len(walkers))
        at = x * width
        for column in columns:
            at += np.take(column, x) <= u
        return np.take(slot, at)
    return head, choose


def _lockstep(head: np.ndarray, choose, walkers: np.ndarray, x: np.ndarray, stop: np.ndarray,
              cap: int):
    """Move each walker from its vertex in x along the edge choose(walkers, x)
    picks until walker w stands on a vertex v with stop[w, v], or stop[v] when
    `stop` is one row that all walkers share; yields (walkers, tails, edges)
    of every lockstep step.  A walker still moving after `cap` steps raises
    IterationCapExceeded."""
    shared, row_length = stop.ndim == 1, stop.shape[-1]
    stop = stop.reshape(-1)  # a view: the caller may set flags between steps
    for _ in range(cap):
        if not len(walkers):
            return
        e = choose(walkers, x)
        yield walkers, x, e
        x = np.take(head, e)
        stopped = np.take(stop, x if shared else walkers * row_length + x)
        if stopped.any():
            going = np.flatnonzero(~stopped)
            walkers, x = np.take(walkers, going), np.take(x, going)
    if len(walkers):
        raise IterationCapExceeded(f"a walk did not stop within {cap} steps")


def _chains(g: DirectedGraph, env: Environment, n: int, seed: int):
    """n chains from the base until absorption: their lockstep steps, the head
    table, the start vertices and the stop table (the cemetery only)."""
    head, choose = _random_exits(g, env, philox_stream(seed, _CHAIN))
    k = len(g.interior)
    stop = np.zeros(k + 1, dtype=bool)
    stop[k] = True
    start = np.full(n, g.interior.index(g.base))
    return _lockstep(head, choose, np.arange(n), start, stop, STEP_CAP), head, start, stop


def simulate_chains(g: DirectedGraph, env: Environment, n: int, seed: int) -> list[list[str]]:
    """n trajectories of the chain from the base until absorption, as edge ids."""
    trajectories: list[list[str]] = [[] for _ in range(n)]
    steps, *_ = _chains(g, env, n, seed)
    for walkers, _, edges in steps:
        for w, e in zip(walkers.tolist(), edges.tolist()):
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


def _distinct_rows(a: np.ndarray):
    """The distinct rows of a 2-D array of non-negative integers, in
    lexicographic order, and the position of each row of `a` among them, as
    np.unique(a, axis=0, return_inverse=True) gives them (it sorts the rows
    as opaque bytes and is many times slower).

    Each row is read as one int64 in base one more than the largest entry,
    its first column the most significant digit, so the keys sort as the
    rows do; np.unique sorts and groups the keys, and the distinct rows are
    the digits of the distinct keys.  Where the key would overflow int64,
    np.lexsort sorts the rows instead."""
    base = int(a.max(initial=0)) + 1
    if base ** a.shape[1] > np.iinfo(np.int64).max:
        order = np.lexsort(a.T[::-1])
        rows = a[order]
        fresh = np.ones(len(a), dtype=bool)
        fresh[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        inverse = np.empty(len(a), dtype=np.intp)
        inverse[order] = np.cumsum(fresh) - 1
        return rows[fresh], inverse
    key = np.zeros(len(a), dtype=np.int64)
    for column in a.T:
        key *= base
        key += column
    keys, inverse = np.unique(key, return_inverse=True)
    rows = np.empty((len(keys), a.shape[1]), dtype=a.dtype)
    for c in reversed(range(a.shape[1])):
        keys, rows[:, c] = np.divmod(keys, base)
    return rows, inverse.reshape(-1)


def loop_erased_paths(g: DirectedGraph, env: Environment, n: int, seed: int) -> Counter:
    """Counts of the loop-erased paths of n chains, each path an edge-id frozenset.

    The chronological loop erasure of a walk from the base leaves every vertex
    on it by the walk's last exit from that vertex, so the walkers record only
    their last exits and the erased path follows them from the base.  The
    walks are those of `simulate_chains` at the same seed.
    """
    steps, head, start, stop = _chains(g, env, n, seed)
    k = len(g.interior)
    last = np.zeros(n * k, dtype=np.intp)
    for walkers, x, e in steps:
        last[walkers * k + x] = e
    m = len(g.edges)
    on_path = np.zeros(n * m, dtype=bool)
    # an erased path is simple, so it ends within |interior| steps
    for walkers, _, e in _lockstep(head, lambda w, x: np.take(last, w * k + x), np.arange(n),
                                   start, stop, k):
        on_path[walkers * m + e] = True
    rows, inverse = _distinct_rows(on_path.reshape(n, m))
    return Counter({frozenset(g.edge_ids[j] for j in np.flatnonzero(row)): int(c)
                    for row, c in zip(rows, np.bincount(inverse))})


def wilson_sample_trees(g: DirectedGraph, env: Environment, n: int, seed: int) -> list[SpanningTree]:
    """n directed spanning trees via loop-erased walks rooted at the cemetery (Wilson).

    For each start vertex in g.interior order, every sample whose tree lacks
    the start walks until it hits its tree, recording its last exit from each
    vertex; the path that follows those exits from the start joins the tree.
    """
    head, choose = _random_exits(g, env, philox_stream(seed, _WILSON))
    k = len(g.interior)
    in_tree = np.zeros((n, k + 1), dtype=bool)
    in_tree[:, k] = True
    flags = in_tree.reshape(-1)
    exits = np.zeros((n, k), dtype=np.intp)
    last = exits.reshape(-1)
    for s in range(k):
        walkers = np.flatnonzero(~in_tree[:, s])
        start = np.full(len(walkers), s)
        for w, x, e in _lockstep(head, choose, walkers, start, in_tree, STEP_CAP):
            last[w * k + x] = e
        for w, x, _ in _lockstep(head, lambda w, x: np.take(last, w * k + x), walkers, start,
                                 in_tree, k):
            flags[w * (k + 1) + x] = True
    rows, inverse = _distinct_rows(exits)
    trees = np.empty(len(rows), dtype=object)
    trees[:] = [SpanningTree(frozenset(g.edge_ids[j] for j in row), directed=True) for row in rows]
    return trees.take(inverse).tolist()


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------

def _lambda_vector(g: DirectedGraph, lam) -> np.ndarray:
    vec = np.empty(len(g.edge_ids))
    for j, eid in enumerate(g.edge_ids):
        v = lam[eid]
        if isinstance(v, complex):
            if v.imag != 0:
                raise ValueError("complex rates are accepted only with zero imaginary part")
            v = v.real
        v = float(v)
        if v < 0:
            raise ValueError(f"rate for edge {eid!r} has negative real part: {v}")
        vec[j] = v
    return vec


def _estimate(vals: np.ndarray, seed: int) -> McEstimate:
    n = len(vals)
    return McEstimate(float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n)), n, seed)


def mc_laplace_by_tree(g: DirectedGraph, w: DirichletWeights, lam, trees, n: int,
                       seed: int) -> tuple[McEstimate, list[McEstimate]]:
    """Average of exp(-<rates, occupation>) over sampled environments, and the
    average of the same values times each directed tree's probability weight,
    all from one environment batch."""
    if not all(t.directed for t in trees):
        raise ValueError("the tree-weighted estimator needs a directed spanning tree")
    if n < 2:
        raise ValueError(f"a standard error needs at least 2 samples, got {n}")
    lvec = _lambda_vector(g, lam)
    p = sample_environment_batch(g, w, n, seed)
    det, z = _occupation_batch(g, p)
    laplace = np.exp(-(z @ lvec))
    # A directed tree's weight is at most det, so where laplace underflows to
    # 0.0 each tree's term is 0.0 too; det is set to 1 there, where a weight
    # and det may both have underflowed.
    det[laplace == 0] = 1.0
    per_tree = []
    for t in trees:
        # the tree's exit probabilities multiplied in edge order, row by row
        weight = None
        for row, eid in zip(p.T, g.edge_ids):
            if eid in t.edges:
                weight = row if weight is None else weight * row
        per_tree.append(_estimate(laplace * weight / det, seed))
    return _estimate(laplace, seed), per_tree


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
