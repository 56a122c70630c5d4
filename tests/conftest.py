"""Shared fixtures: bundled graphs, random graphs, and independent oracles.

The oracles here deliberately avoid the library's enumeration code paths:
cycles and trees are recognized by degree/connectivity filters over raw edge
subsets, so the backtracking enumerators are checked against brute force.
The coordinate-map oracle solves div z = unit mass at the base for the tree
edges by Gauss-Jordan elimination, without the library's tree walks.
The matrix oracles multiply dense lists of Fractions, without the library's
sparse helpers or its residue products.  The quadrature oracle integrates one
chart integral at a time, one Gauss-Kronrod panel per integrand call, by the
recursive scheme the library's lockstep batches must reproduce.  The lockstep
walker oracle runs the three walkers on the two-dimensional gather kernel the
library's flat-index step kernel must reproduce draw for draw.  The Dirichlet
batch oracles build the environment batch row-major and weight each tree by
a product along rows, the layout whose bits the library's edge-major Monte
Carlo kernels must reproduce.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from dirichlet_flows import DirectedGraph, Environment, SpanningTree, builtin_graph
from dirichlet_flows import environment as env_mod
from dirichlet_flows import integrals as int_mod
from dirichlet_flows.graphs import Edge
from dirichlet_flows.rationals import mat_solve


@pytest.fixture
def two_edge():
    return builtin_graph("two-edge")


@pytest.fixture
def triangle():
    return builtin_graph("triangle")


@pytest.fixture
def two_diamond():
    return builtin_graph("two-diamond")


@pytest.fixture
def chain():
    return builtin_graph("chain")


def bundled_graphs():
    return [builtin_graph(n) for n in ("two-edge", "triangle", "two-diamond", "chain")]


# ---------------------------------------------------------------------------
# random inputs
# ---------------------------------------------------------------------------

def random_graph(rng: np.random.Generator, max_edges: int = 8) -> DirectedGraph:
    """A random valid graph: a guaranteed spine plus random extra edges."""
    n_interior = int(rng.integers(1, 4))
    interior = ["x0"] + [f"v{i}" for i in range(1, n_interior)]
    vertices = interior + ["delta"]
    pairs = []
    for a, b in zip(vertices, vertices[1:]):  # spine keeps the graph valid
        pairs.append((a, b))
    n_extra = int(rng.integers(0, max_edges - len(pairs) + 1))
    tries = 0
    while n_extra > 0 and tries < 50:
        tries += 1
        t = interior[int(rng.integers(0, len(interior)))]
        h = vertices[int(rng.integers(0, len(vertices)))]
        if h == t:
            continue
        pairs.append((t, h))
        n_extra -= 1
    edges = tuple(
        Edge(f"e{k+1}", t, h, Fraction(int(rng.integers(1, 7)), int(rng.integers(1, 5))))
        for k, (t, h) in enumerate(pairs)
    )
    return DirectedGraph(tuple(vertices), "delta", "x0", edges)


def complete_graph(k: int) -> DirectedGraph:
    """The complete digraph on k interior vertices, each also wired to the cemetery."""
    interior = ["x0"] + [chr(ord("a") + i) for i in range(k - 1)]
    pairs = [(t, h) for t in interior for h in interior if t != h]
    pairs += [(t, "delta") for t in interior]
    edges = tuple(Edge(f"e{i + 1}", t, h, Fraction(1)) for i, (t, h) in enumerate(pairs))
    return DirectedGraph(tuple(interior) + ("delta",), "delta", "x0", edges)


def random_graphs(seed: int, count: int, max_edges: int = 8):
    rng = np.random.default_rng(seed)
    return [random_graph(rng, max_edges) for _ in range(count)]


def random_rational_environment(g: DirectedGraph, rng: np.random.Generator) -> Environment:
    p = {}
    for x in g.interior:
        out = g.out_edges[x]
        weights = [int(rng.integers(1, 10)) for _ in out]
        total = sum(weights)
        for e, wgt in zip(out, weights):
            p[e.id] = Fraction(wgt, total)
    return Environment(p)


def random_rational_weights(g: DirectedGraph, rng: np.random.Generator) -> dict:
    return {eid: Fraction(int(rng.integers(1, 13)), int(rng.integers(1, 5)))
            for eid in g.edge_ids}


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

def _degrees_and_components(g: DirectedGraph, subset):
    deg: dict[str, int] = {}
    adj: dict[str, set] = {}
    for eid in subset:
        e = g.edge_by_id[eid]
        for v in (e.tail, e.head):
            deg[v] = deg.get(v, 0) + 1
            adj.setdefault(v, set())
        adj[e.tail].add(e.head)
        adj[e.head].add(e.tail)
    comps = 0
    seen = set()
    for v in deg:
        if v in seen:
            continue
        comps += 1
        stack = [v]
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend(adj[u] - seen)
    return deg, comps


def oracle_is_cycle(g: DirectedGraph, subset) -> bool:
    """Every touched vertex has undirected degree 2, one component, |E| = |V|."""
    subset = list(subset)
    if len(subset) < 2:
        return False
    deg, comps = _degrees_and_components(g, subset)
    return comps == 1 and len(subset) == len(deg) and all(d == 2 for d in deg.values())


def oracle_cycles(g: DirectedGraph):
    found = []
    ids = sorted(g.edge_ids)
    for r in range(2, len(ids) + 1):
        for combo in combinations(ids, r):
            if oracle_is_cycle(g, combo):
                found.append(frozenset(combo))
    return sorted(found, key=sorted)


def oracle_is_path(g: DirectedGraph, subset) -> bool:
    """Connected, endpoints base/cemetery of degree 1, interior degree 2."""
    subset = list(subset)
    if not subset:
        return False
    deg, comps = _degrees_and_components(g, subset)
    if comps != 1 or g.base not in deg or g.cemetery not in deg:
        return False
    if deg[g.base] != 1 or deg[g.cemetery] != 1:
        return False
    if len(subset) != len(deg) - 1:  # tree-shaped: edges = vertices - 1
        return False
    return all(d == 2 for v, d in deg.items() if v not in (g.base, g.cemetery))


def oracle_paths(g: DirectedGraph):
    found = []
    ids = sorted(g.edge_ids)
    for r in range(1, len(ids) + 1):
        for combo in combinations(ids, r):
            if oracle_is_path(g, combo):
                found.append(frozenset(combo))
    return sorted(found, key=sorted)


def oracle_is_spanning_tree(g: DirectedGraph, subset) -> bool:
    subset = list(subset)
    if len(subset) != len(g.vertices) - 1:
        return False
    deg, comps = _degrees_and_components(g, subset)
    return comps == 1 and len(deg) == len(g.vertices)


def oracle_spanning_trees(g: DirectedGraph):
    return sorted(
        (frozenset(c) for c in combinations(sorted(g.edge_ids), len(g.vertices) - 1)
         if oracle_is_spanning_tree(g, c)),
        key=sorted,
    )


def oracle_coordinate_map(g: DirectedGraph, tree):
    """The tree chart's affine map u -> z, as `tree_coordinate_map` returns it,
    from one exact solve of div z = unit mass at the base: the offset is the
    tree-edge solution at u = 0, and the column of a cotree edge is the
    tree-edge solution that cancels the divergence of its indicator."""
    tree_ids = sorted(tree.edges)
    free_ids = sorted(set(g.edge_ids) - tree.edges)
    interior = list(g.interior)
    vindex = {v: i for i, v in enumerate(interior)}

    def div_column(eid, sign):
        col = [Fraction(0)] * len(interior)
        e = g.edge_by_id[eid]
        if e.tail in vindex:
            col[vindex[e.tail]] += sign
        if e.head in vindex:
            col[vindex[e.head]] -= sign
        return col

    # divergence rows of the tree edges (square: |tree| == |interior|)
    tree_cols = [div_column(eid, 1) for eid in tree_ids]
    m = [[col[i] for col in tree_cols] for i in range(len(interior))]
    rhs = [[Fraction(1) if v == g.base else Fraction(0) for v in interior]]
    rhs += [div_column(eid, -1) for eid in free_ids]
    offset, *columns = mat_solve(m, rhs)

    rows = {}
    for eid in g.edge_ids:
        if eid in tree.edges:
            i = tree_ids.index(eid)
            rows[eid] = (offset[i], tuple(col[i] for col in columns))
        else:
            j = free_ids.index(eid)
            rows[eid] = (Fraction(0), tuple(Fraction(int(k == j)) for k in range(len(free_ids))))
    return tuple(free_ids), rows


# ---------------------------------------------------------------------------
# dense Fraction matrix oracles
# ---------------------------------------------------------------------------

def oracle_dense(rows, n: int):
    """Dense list-of-rows copy of a dict-of-rows matrix, entries as Fractions."""
    out = [[Fraction(0)] * n for _ in range(n)]
    for i, row in rows.items():
        for j, v in row.items():
            out[i][j] = Fraction(v)
    return out


def oracle_matmul(a, b):
    """Dense product, skipping the products with a zero factor."""
    out = []
    for arow in a:
        acc = [Fraction(0)] * len(b[0])
        for k, x in enumerate(arow):
            if x:
                acc = [s + x * y if y else s for s, y in zip(acc, b[k])]
        out.append(acc)
    return out


def oracle_combine(*scaled):
    """Sum of c * m over the (c, m) pairs of dense matrices."""
    out = [[Fraction(0)] * len(row) for row in scaled[0][1]]
    for c, m in scaled:
        out = [[s + c * v if v else s for s, v in zip(orow, mrow)] for orow, mrow in zip(out, m)]
    return out


def oracle_max_abs(m) -> Fraction:
    return max((abs(v) for row in m for v in row), default=Fraction(0))


def oracle_commutator_is_zero(a, b) -> bool:
    return oracle_matmul(a, b) == oracle_matmul(b, a)


def oracle_operators(conn) -> dict:
    """Dense term matrices of a connection, keyed like check_commutation's members."""
    return {",".join(sorted(t.edges)): oracle_dense(mat.rows, conn.size)
            for t, mat in conn.path_terms + conn.cycle_terms}


def oracle_commutes(ops: dict, alpha, item) -> bool:
    """Whether the relation of a check_commutation item holds, from dense products."""
    m = [ops[key] for key in item["members"]]
    relation = item["relation"]
    if relation.startswith("projector"):
        c = 1 if relation == "projector-path" else sum(
            (Fraction(alpha[e]) for e in item["members"][0].split(",")), Fraction(0))
        return oracle_matmul(m[0], m[0]) == oracle_combine((c, m[0]))
    if relation == "iv":
        return oracle_commutator_is_zero(oracle_combine((1, m[0]), (1, m[1]), (1, m[2])), m[3])
    if relation == "v":
        return oracle_commutator_is_zero(oracle_combine((1, m[0]), (1, m[1])), m[2])
    return oracle_commutator_is_zero(*m)


def oracle_flatness(conn, samples) -> Fraction:
    """Max |[M_a, M_b]| entry over the samples, M_e summed densely from
    conn.terms at the rates as Fractions, from Fraction forms and without the
    library's integer forms, scaled operators or residue products."""
    ops = {mat: oracle_dense(mat.rows, conn.size) for _, mat in conn.path_terms + conn.cycle_terms}
    worst = Fraction(0)
    for lam in samples:
        lam = {k: Fraction(v) for k, v in lam.items()}
        mats = [oracle_combine(*((Fraction(wt), ops[mat]) for wt, mat in conn.terms(eid, lam)))
                for eid in conn.edge_ids]
        for a in range(len(mats)):
            for b in range(a + 1, len(mats)):
                ab, ba = oracle_matmul(mats[a], mats[b]), oracle_matmul(mats[b], mats[a])
                worst = max(worst, oracle_max_abs(oracle_combine((1, ab), (-1, ba))))
    return worst


# ---------------------------------------------------------------------------
# scalar nested quadrature oracle
# ---------------------------------------------------------------------------

def _oracle_gk_panel(vals, deltas, a, b):
    """Kronrod value, error estimate, and inner-evaluation pollution for one panel."""
    if not np.isfinite(vals).all():
        return float("nan"), float("inf"), float("inf")
    h = 0.5 * (b - a)
    kron = h * float((vals * int_mod._KW).sum())
    gauss = h * float((vals * int_mod._GW).sum())
    err = abs(kron - gauss)
    mean = kron / (b - a)
    resasc = h * float((np.abs(vals - mean) * int_mod._KW).sum())
    if resasc != 0.0 and err != 0.0:
        r = 200.0 * err / resasc
        err = resasc * min(1.0, r * math.sqrt(r))
    inner = h * float((deltas * int_mod._KW).sum())
    return kron, err, inner


def _oracle_adaptive_1d(node_fn, tol, where):
    """Adaptive GK15 over (0, 1); node_fn(points) -> (values, eval_errors)."""
    def make(a, b):
        pts = 0.5 * (a + b) + 0.5 * (b - a) * int_mod._NODES
        vals, deltas = node_fn(pts)
        kron, err, inner = _oracle_gk_panel(vals, deltas, a, b)
        return (-err, a, b, kron, err, inner)

    heap = [make(0.0, 1.0)]
    while True:
        if sum(p[4] for p in heap) <= 0.45 * tol or len(heap) >= int_mod._MAX_PANELS:
            break
        prio, a, b, kron, err, inner = heapq.heappop(heap)
        if prio >= 0.0 or b - a < 1e-15:
            heapq.heappush(heap, (0.0, a, b, kron, err, inner))
            break
        mid = 0.5 * (a + b)
        heapq.heappush(heap, make(a, mid))
        heapq.heappush(heap, make(mid, b))
    value = sum(p[3] for p in heap)
    err = sum(p[4] + p[5] for p in heap)
    if not (err <= tol) or not np.isfinite(value):
        raise int_mod.QuadratureNonConvergence(f"{where}: {err:.3e} after {len(heap)} panels")
    return value, err


def _oracle_level(ev, limits, k, prefix, tol, counter):
    (lo_b, lo_a), (hi_b, hi_a) = limits.levels[k]
    lo = float(np.max(lo_b + (lo_a * prefix).sum(axis=1)))
    hi = float(np.min(hi_b + (hi_a * prefix).sum(axis=1))) if len(hi_b) else math.inf
    if not hi > lo:
        return 0.0, 0.0
    d = ev.dim

    def node_fn(pts):
        if math.isinf(hi):
            us, jac = lo + pts / (1.0 - pts), 1.0 / (1.0 - pts) ** 2
        else:
            us, jac = lo + (hi - lo) * pts, np.full_like(pts, hi - lo)
        if k == d - 1:
            batch = np.empty((len(us), d))
            batch[:, :k] = prefix
            batch[:, k] = us
            counter[0] += len(us)
            return ev(batch) * jac, np.zeros_like(us)
        inner = [_oracle_level(ev, limits, k + 1, prefix + (u,), tol * int_mod._INNER_FRAC,
                               counter) for u in us]
        return np.array([v for v, _ in inner]) * jac, np.array([e for _, e in inner]) * jac

    return _oracle_adaptive_1d(node_fn, tol, f"level {k + 1} of {d}")


def oracle_quadrature(spec, tol: float, weight_edge=None):
    """(value, error, n_evals) of a chart integral, one integral and one panel at a time."""
    ev = int_mod._Evaluator(spec, weight_edge)
    limits = int_mod._ChamberLimits(ev.rows, ev.dim)
    counter = [0]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        value, err = _oracle_level(ev, limits, 0, (), tol, counter)
    return value, err, counter[0]


# ---------------------------------------------------------------------------
# single-walk helpers and the lockstep walker oracle
# ---------------------------------------------------------------------------

def simulate_chain(g: DirectedGraph, env: Environment, seed: int) -> list[str]:
    """One trajectory of the chain from the base until absorption, as edge ids."""
    return env_mod.simulate_chains(g, env, 1, seed)[0]


def wilson_sample_tree(g: DirectedGraph, env: Environment, seed: int) -> SpanningTree:
    """One directed spanning tree via loop-erased walks rooted at the cemetery."""
    return env_mod.wilson_sample_trees(g, env, 1, seed)[0]


def _oracle_random_exits(g: DirectedGraph, env: Environment, rng):
    """Edge heads and a chooser that gathers each walker's whole row of
    cumulative exit probabilities and counts the entries <= its uniform."""
    env_mod.check_environment(g, env)
    k = len(g.interior)
    width = max(len(g.out_edges[x]) for x in g.interior)
    cum = np.full((k, width), np.inf)
    slot = np.zeros((k, width), dtype=np.intp)
    eidx = {eid: j for j, eid in enumerate(g.edge_ids)}
    for i, x in enumerate(g.interior):
        out = g.out_edges[x]
        cum[i, :len(out) - 1] = np.cumsum([float(env.p[e.id]) for e in out[:-1]])
        slot[i, :len(out)] = [eidx[e.id] for e in out]
    vidx = {x: i for i, x in enumerate(g.interior + (g.cemetery,))}
    head = np.array([vidx[e.head] for e in g.edges], dtype=np.intp)

    def choose(walkers, x):
        return slot[x, (cum[x] <= rng.random(len(walkers))[:, None]).sum(axis=1)]
    return head, choose


def _oracle_steps(head, choose, walkers, x, stop, cap):
    """Lockstep steps (walkers, tails, edges) until walker w stands on a vertex
    v with stop[w, v], compacting by boolean masks."""
    for _ in range(cap):
        if not len(walkers):
            return
        e = choose(walkers, x)
        yield walkers, x, e
        x = head[e]
        going = ~stop[walkers, x]
        walkers, x = walkers[going], x[going]
    if len(walkers):
        raise env_mod.IterationCapExceeded(f"a walk did not stop within {cap} steps")


def oracle_lockstep(g: DirectedGraph, env: Environment, n: int, seed: int):
    """(simulate_chains, loop_erased_paths, wilson_sample_trees) at (n, seed),
    walked by the two-dimensional gather kernel from the same streams."""
    k = len(g.interior)
    base = g.interior.index(g.base)
    stop = np.zeros((n, k + 1), dtype=bool)
    stop[:, k] = True

    head, choose = _oracle_random_exits(g, env, env_mod.philox_stream(seed, env_mod._CHAIN))
    trajectories = [[] for _ in range(n)]
    last = np.zeros((n, k), dtype=np.intp)
    for walkers, x, e in _oracle_steps(head, choose, np.arange(n), np.full(n, base), stop,
                                       env_mod.STEP_CAP):
        last[walkers, x] = e
        for w, j in zip(walkers.tolist(), e.tolist()):
            trajectories[w].append(g.edge_ids[j])
    paths = [[] for _ in range(n)]
    for walkers, _, e in _oracle_steps(head, lambda w, x: last[w, x], np.arange(n),
                                       np.full(n, base), stop, k):
        for w, j in zip(walkers.tolist(), e.tolist()):
            paths[w].append(g.edge_ids[j])
    erased = Counter(frozenset(path) for path in paths)

    head, choose = _oracle_random_exits(g, env, env_mod.philox_stream(seed, env_mod._WILSON))
    in_tree = stop.copy()
    exits = np.zeros((n, k), dtype=np.intp)
    for s in range(k):
        walkers = np.flatnonzero(~in_tree[:, s])
        start = np.full(len(walkers), s)
        for w, x, e in _oracle_steps(head, choose, walkers, start, in_tree, env_mod.STEP_CAP):
            exits[w, x] = e
        for w, x, _ in _oracle_steps(head, lambda w, x: exits[w, x], walkers, start, in_tree, k):
            in_tree[w, x] = True
    trees = [SpanningTree(frozenset(g.edge_ids[j] for j in row), directed=True)
             for row in exits.tolist()]
    return trajectories, erased, trees


# ---------------------------------------------------------------------------
# row-major Dirichlet batch oracles
# ---------------------------------------------------------------------------

def oracle_environment_batch(g: DirectedGraph, w, n: int, seed: int) -> np.ndarray:
    """The (n, |E|) environment batch, row-major: each edge's gamma draws fill
    its column, and each vertex's block of columns is divided by its row sums."""
    rng = env_mod.philox_stream(seed, env_mod._ENV)
    gams = np.empty((n, len(g.edge_ids)))
    for j, eid in enumerate(g.edge_ids):
        gams[:, j] = rng.standard_gamma(float(w.alpha[eid]), size=n)
    p = np.empty_like(gams)
    index = {eid: j for j, eid in enumerate(g.edge_ids)}
    for x in g.interior:
        cols = [index[e.id] for e in g.out_edges[x]]
        block = gams[:, cols]
        p[:, cols] = block / block.sum(axis=1, keepdims=True)
    return p


def oracle_mc_laplace_by_tree(g: DirectedGraph, w, lam, trees, n: int, seed: int):
    """(value, std_error) of `mc_laplace_by_tree`'s Laplace estimate and of each
    tree's, from the row-major batch, a tree's weight being the product along
    each row of its columns."""
    p = oracle_environment_batch(g, w, n, seed)
    det, z = env_mod._occupation_batch(g, p)
    laplace = np.exp(-(z @ env_mod._lambda_vector(g, lam)))

    def estimate(vals):
        return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n))
    per_tree = []
    for t in trees:
        cols = [j for j, eid in enumerate(g.edge_ids) if eid in t.edges]
        per_tree.append(estimate(laplace * p[:, cols].prod(axis=1) / det))
    return estimate(laplace), per_tree
