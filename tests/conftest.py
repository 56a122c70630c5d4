"""Shared fixtures: bundled graphs, random graphs, and independent oracles.

The oracles here deliberately avoid the library's enumeration code paths:
cycles and trees are recognized by degree/connectivity filters over raw edge
subsets, so the backtracking enumerators are checked against brute force.
The genus oracle counts the edges that close a cycle when added one by one
to a union-find forest, without the library's incidence matrices.
The coordinate-map oracle solves div z = unit mass at the base for the tree
edges by Gauss-Jordan elimination, without the library's tree walks.  The
pairing oracle checks one triple at a time in Fractions, from each tree's
path and fundamental cycles as sign maps, where the library checks integer
blocks against sign tables drawn from the coordinate maps.
The connection's term matrices are built from their definitions as dense
lists of Fractions (`oracle_term_matrices`), apart from the library's integer
table, and the matrix oracles multiply dense lists of Fractions, without the
library's residue products.  The numeric oracle sums dense weighted term
matrices in term order, and the transport oracle integrates with the dense
transposed term matrices; `transport`, which reads the table's entries and
sums their products per column, must agree with both to roundoff.
The arrangement-basis oracle is a rank test on the fundamental cycles of one
tree.  The quadrature oracle integrates one chart integral at a time, one
Gauss-Kronrod panel per integrand call, by the recursive scheme the
library's lockstep batches must reproduce.  The lockstep
walker oracle runs the three walkers on the two-dimensional gather kernel the
library's flat-index step kernel must reproduce draw for draw, block by
block from the same block-keyed streams.

The Monte Carlo oracles build a whole batch row-major, drawing each block of
BLOCK_ROWS samples from its own stream and concatenating the blocks, and
reduce it in one pass: each per-sample sum (a rate term, a log weight) is
taken over the batch's columns in edge order, and each block's numpy mean
and sum of squared deviations merge in block order (`oracle_moments`).  The
library's edge-major kernels, which hold one block at a time, must give the
same bits.  No Monte Carlo result goes through a BLAS product, so none
depends on the BLAS thread count; the thread count is still set to 1 here,
before numpy loads, unless the environment already sets it, as the
benchmark and CI set it.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import functools  # noqa: E402 (numpy must load after the thread count is set)
import heapq
import math
import operator
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from dirichlet_flows import (DirectedGraph, DirichletWeights, Environment, FlowPoint,
                             SpanningTree, builtin_graph, cotree, enumerate_cycles,
                             enumerate_paths, fundamental_cycle, tree_basis, tree_path)
from dirichlet_flows import environment as env_mod
from dirichlet_flows import integrals as int_mod
from dirichlet_flows.combinatorics import tree_coordinate_map
from dirichlet_flows.graphs import Edge
from dirichlet_flows.rationals import int_table, mat_rank, mat_solve


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


def multigraph() -> DirectedGraph:
    """Parallel edges x0 -> a and a -> delta, and a -> x0 antiparallel to both
    x0 -> a: 2-cycles of parallel and of antiparallel edges."""
    pairs = [("x0", "a"), ("x0", "a"), ("a", "x0"), ("a", "delta"), ("a", "delta"),
             ("x0", "delta")]
    edges = tuple(Edge(f"e{k + 1}", t, h, Fraction(k + 1, 2)) for k, (t, h) in enumerate(pairs))
    return DirectedGraph(("x0", "a", "delta"), "delta", "x0", edges)


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


def oracle_genus(g: DirectedGraph, subset) -> int:
    """How many of the edges close a cycle when added one by one (union-find)."""
    parent: dict[str, str] = {}

    def find(v):
        parent.setdefault(v, v)
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    closing = 0
    for eid in frozenset(subset):
        e = g.edge_by_id[eid]
        a, b = find(e.tail), find(e.head)
        if a == b:
            closing += 1
        else:
            parent[a] = b
    return closing


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


def oracle_tree_coordinates(g: DirectedGraph, tree, u) -> FlowPoint:
    """The unique flow point with the given values u on the cotree edges, each
    edge's offset plus coefficients times u in Fractions."""
    free_ids, rows = tree_coordinate_map(g, tree)
    missing = [eid for eid in free_ids if eid not in u]
    if missing:
        raise KeyError(f"missing cotree coordinate values for {missing}")
    uvec = [u[eid] for eid in free_ids]
    z = {}
    for eid in g.edge_ids:
        off, coeffs = rows[eid]
        z[eid] = off + sum((c * v for c, v in zip(coeffs, uvec) if c != 0), Fraction(0))
    return FlowPoint(z)


def oracle_tree_walks(g: DirectedGraph, tree):
    """The tree's base-to-cemetery path and (e0, fundamental cycle of e0) for
    each cotree edge e0, in cotree order."""
    return tree_path(g, tree), [(e0, fundamental_cycle(g, tree, e0)) for e0 in cotree(g, tree)]


def oracle_pairing_residual(g: DirectedGraph, tree, z: FlowPoint, lam, walks=None):
    """|<z, rates> - (path form + sum of cotree coordinates times cycle forms)|
    of one tree, in Fractions; the cycles are oriented along their cotree
    edge.  `walks` is the tree's `oracle_tree_walks`, walked here if None."""
    path, cycles = walks or oracle_tree_walks(g, tree)
    total = path.form(lam)
    for e0, cyc in cycles:
        total = total + z[e0] * cyc.form(lam)
    inner = 0
    for eid in g.edge_ids:
        inner = inner + z[eid] * lam[eid]
    return abs(inner - total)


def oracle_pairing(g: DirectedGraph, trees, n: int, seed: int) -> Fraction:
    """`integrals.pairing_residual` one triple at a time in Fractions, from
    the same integer draws of each block's stream."""
    free = cotree(g, trees[0])
    walks = [oracle_tree_walks(g, t) for t in trees]
    worst = Fraction(0)
    for b, rows in oracle_blocks(n):
        m = len(range(n)[rows])
        rng = env_mod.philox_stream(seed, 7, b)
        us = rng.integers(-32, 33, size=(len(free), m)).T.tolist()
        rates = rng.integers(-64, 65, size=(len(g.edge_ids), m)).T.tolist()
        picks = rng.integers(0, len(trees), size=m).tolist()
        for u, r, t in zip(us, rates, picks):
            z = oracle_tree_coordinates(g, trees[0],
                                        {eid: Fraction(x, 16) for eid, x in zip(free, u)})
            lam = {eid: Fraction(x, 8) for eid, x in zip(g.edge_ids, r)}
            worst = max(worst, oracle_pairing_residual(g, trees[t], z, lam, walks[t]))
    return worst


# ---------------------------------------------------------------------------
# dense Fraction matrix oracles
# ---------------------------------------------------------------------------

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


def oracle_term_matrices(g: DirectedGraph, w) -> list:
    """(term, dense Fraction matrix) of every path term, then of every cycle
    term, from their definitions over the tree basis.

    A path's matrix is the diagonal projector onto the trees containing the
    path.  A cycle's column T is nonzero only when the cycle is a fundamental
    cycle of T, i.e. exactly one cycle edge e0 lies outside T; the entry for
    swapping in e0 and dropping e is alpha_e with sign +1/-1 as e runs
    along/against e0 around the cycle.
    """
    alpha = w.alpha if isinstance(w, DirichletWeights) else w
    alpha = {k: Fraction(v) for k, v in alpha.items()}
    basis = tree_basis(g)
    n = len(basis)
    index = {t.edges: k for k, t in enumerate(basis)}
    out = []
    for sigma in enumerate_paths(g):
        m = [[Fraction(0)] * n for _ in range(n)]
        for k, t in enumerate(basis):
            if sigma.edges <= t.edges:
                m[k][k] = Fraction(1)
        out.append((sigma, m))
    for cycle in enumerate_cycles(g):
        m = [[Fraction(0)] * n for _ in range(n)]
        for j, t in enumerate(basis):
            outside = cycle.edges - t.edges
            if len(outside) != 1:
                continue
            (e0,) = outside
            for e in cycle.edges:
                m[index[(t.edges | {e0}) - {e}]][j] += cycle.sign(e0) * cycle.sign(e) * alpha[e]
        out.append((cycle, m))
    return out


def table_matrices(conn) -> list:
    """The term matrices of a connection's integer table over its scale L, as
    dense Fraction rows, in table order."""
    out = []
    for k in range(len(conn.table.ptr) - 1):
        m = [[Fraction(0)] * conn.size for _ in range(conn.size)]
        for i, j, v in zip(*(part.tolist() for part in conn.table.matrix(k))):
            m[i][j] = Fraction(v, conn.scale)
        out.append(m)
    return out


def oracle_operators(g: DirectedGraph, w) -> dict:
    """Dense term matrices of the connection of (g, w), keyed like
    check_commutation's members."""
    return {",".join(sorted(t.edges)): m for t, m in oracle_term_matrices(g, w)}


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


def _oracle_weights(conn, eid, lam):
    """(weight, term index) of each term with the edge: a path term weighs its
    sign s(e), a cycle term s(e) / L_c(lam)."""
    for k, term in enumerate(conn.path_terms + conn.cycle_terms):
        s = term.sign(eid)
        if s:
            yield (s / term.form(lam) if term.kind == "cycle" else s), k


def oracle_flatness(conn, samples) -> Fraction:
    """Max |[M_a, M_b]| entry over the samples, M_e summed densely from the
    table's term matrices over L at the rates as Fractions, from Fraction
    forms and without the library's integer forms, scaled coefficients or
    residue products."""
    ops = table_matrices(conn)
    worst = Fraction(0)
    for lam in samples:
        lam = {k: Fraction(v) for k, v in lam.items()}
        mats = [oracle_combine(*((Fraction(wt), ops[k]) for wt, k in _oracle_weights(conn, eid, lam)))
                for eid in conn.edge_ids]
        for a in range(len(mats)):
            for b in range(a + 1, len(mats)):
                ab, ba = oracle_matmul(mats[a], mats[b]), oracle_matmul(mats[b], mats[a])
                worst = max(worst, oracle_max_abs(oracle_combine((1, ab), (-1, ba))))
    return worst


def broken_connection(conn, delta=Fraction(1, 7), which=0):
    """conn with delta added to entry (0, 0) of its cycle operator `which`; the
    table is rescaled to L' = lcm(L, denominator of delta) first, so that
    delta L' is an integer."""
    scale = math.lcm(conn.scale, delta.denominator)
    mats = []
    for k in range(len(conn.table.ptr) - 1):
        entries = {(i, j): v * (scale // conn.scale)
                   for i, j, v in zip(*(part.tolist() for part in conn.table.matrix(k)))}
        if k == len(conn.path_terms) + which:
            entries[0, 0] = entries.get((0, 0), 0) + int(delta * scale)
        mats.append(tuple(zip(*((i, j, v) for (i, j), v in sorted(entries.items()))))
                    or ((), (), ()))
    return replace(conn, table=int_table(mats), scale=scale)


def oracle_numeric_matrices(conn, lam) -> np.ndarray:
    """The float/complex coefficient stack as a sum of dense weighted term
    matrices, edge by edge, term by term in term order; each term matrix is
    dense, its entries the table's values over L as Fractions rounded to
    floats."""
    vals = {k: complex(v) for k, v in lam.items()}
    cplx = any(v.imag != 0 for v in vals.values())
    dense = [np.array([[float(v) for v in row] for row in m]) for m in table_matrices(conn)]
    out = np.zeros((len(conn.edge_ids), conn.size, conn.size), dtype=complex if cplx else float)
    for k, eid in enumerate(conn.edge_ids):
        for weight, t in _oracle_weights(conn, eid, vals):
            out[k] += (weight if cplx else weight.real) * dense[t]
    return out


def oracle_transport(conn, start, waypoints, tol) -> np.ndarray:
    """`transport` with dense term matrices: the table's matrices over L as
    floats, transposed, weighted per segment and added in term order at
    every evaluation, and integrated by scipy's RK45 at transport's
    tolerances, without its checks of the path."""
    from scipy.integrate import solve_ivp

    dense = [np.array([[float(v) for v in row] for row in m]).T for m in table_matrices(conn)]
    terms = conn.path_terms + conn.cycle_terms
    y = np.asarray(start, dtype=complex)
    pts = [{k: complex(v) for k, v in wp.items()} for wp in waypoints]
    for wa, wb in zip(pts, pts[1:]):
        vel = {eid: wb[eid] - wa[eid] for eid in conn.edge_ids}

        def rhs(t, y):
            m = np.zeros((conn.size, conn.size), dtype=complex)
            for term, mat in zip(terms, dense):
                a, b = term.form(wa), term.form(vel)
                m += (b / (a + t * b) if term.kind == "cycle" else b) * mat
            return -(m @ y)

        sol = solve_ivp(rhs, (0.0, 1.0), y, method="RK45", rtol=100 * np.finfo(float).eps,
                        atol=tol)
        assert sol.success, sol.message
        y = sol.y[:, -1]
    return y


# ---------------------------------------------------------------------------
# arrangement bases (rank test)
# ---------------------------------------------------------------------------

def cycle_space_basis(g: DirectedGraph) -> list[dict[str, int]]:
    """A basis of signed cycle indicators: fundamental cycles of the first tree."""
    ref = tree_basis(g)[0]
    return [dict(fundamental_cycle(g, ref, e0).signs) for e0 in cotree(g, ref)]


def coordinate_family_is_basis(g: DirectedGraph, subset) -> bool:
    """Whether the edge-coordinate functions of `subset` form an arrangement basis.

    Tests that the restrictions of z_e, e in subset, to the divergence-constraint
    space are linearly independent and that the family is maximal.
    """
    subset = sorted(frozenset(subset))
    basis = cycle_space_basis(g)
    d = len(basis)
    if len(subset) != d:
        return False
    rows = [[chi.get(eid, 0) for chi in basis] for eid in subset]
    return mat_rank(rows) == d


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


def _in_order(terms):
    """The terms added left to right in heap order, on every Python version
    (from 3.12 sum() compensates float rounding)."""
    return functools.reduce(operator.add, terms, 0)


def _oracle_adaptive_1d(node_fn, tol, where, graded):
    """Adaptive GK15 over (0, 1), from the panel (0, 1), or from the graded
    panels (0, 1/2), (1/2, 3/4), (3/4, 7/8), (7/8, 1) where `graded`;
    node_fn(points) -> (values, eval_errors)."""
    def make(a, b):
        pts = 0.5 * (a + b) + 0.5 * (b - a) * int_mod._NODES
        vals, deltas = node_fn(pts)
        kron, err, inner = _oracle_gk_panel(vals, deltas, a, b)
        return (-err, a, b, kron, err, inner)

    heap = []
    for a, b in [(0.0, 0.5), (0.5, 0.75), (0.75, 0.875), (0.875, 1.0)] if graded else [(0.0, 1.0)]:
        heapq.heappush(heap, make(a, b))
    while True:
        if _in_order(p[4] for p in heap) <= 0.45 * tol or len(heap) >= int_mod._MAX_PANELS:
            break
        prio, a, b, kron, err, inner = heapq.heappop(heap)
        if prio >= 0.0 or b - a < 1e-15:
            heapq.heappush(heap, (0.0, a, b, kron, err, inner))
            break
        mid = 0.5 * (a + b)
        heapq.heappush(heap, make(a, mid))
        heapq.heappush(heap, make(mid, b))
    value = _in_order(p[3] for p in heap)
    err = _in_order(p[4] + p[5] for p in heap)
    if not (err <= tol) or not np.isfinite(value):
        raise int_mod.QuadratureNonConvergence(f"{where}: {err:.3e} after {len(heap)} panels")
    return value, err


def _oracle_poles(spec, ev, weight_edge):
    """Each level's poles, as (offset, prefix coefficients, above) of their
    zeros u_k = offset + coefficients . (u_0..u_{k-1}): the affine forms of
    the chart's flows, each scaled to max |coefficient| = 1, whose exponents
    add up below 0, at the last coordinate u_k they hold; above where the
    zero bounds u_k from above (a_k < 0)."""
    net = {}
    for (off, coeffs), (alpha, shifts) in zip(ev.rows,
                                              int_mod.chart_exponents(spec, weight_edge)):
        m = max(abs(c) for c in coeffs) or 1
        key = (off / m, tuple(c / m for c in coeffs))
        net[key] = net.get(key, 0) + alpha + sum(shifts)
    poles = [[] for _ in range(ev.dim)]
    for (b, a), x in net.items():
        held = [j for j, c in enumerate(a) if c]
        if x < 0 and held:
            k = held[-1]
            poles[k].append((float(-b / a[k]), np.array([float(-c / a[k]) for c in a[:k]]),
                             a[k] < 0))
    return poles


def _oracle_sinh_map(poles, prefix, lo, hi):
    """The nodes' map u(t) and Jacobian toward the nearest pole zero beyond
    (lo, hi), u = near + (hi - lo) rho sinh(mu (s -+ 1)), s = 2t - 1, for rho
    its distance over hi - lo and mu = asinh(1/rho)/2; None where no pole lies
    beyond or rho = 0.  numpy's sinh, cosh and arcsinh, as the kernel's: on
    machines with SIMD builds they differ from math's in the last bit."""
    gaps = {True: math.inf, False: math.inf}
    for off, coeffs, above in poles:
        zero = off + (coeffs * prefix).sum()
        gaps[above] = min(gaps[above], zero - hi if above else lo - zero)
    above = gaps[True] <= gaps[False]
    rho = gaps[above] / (hi - lo)
    if not 0.0 < rho < math.inf:
        return None
    near, scale, mu = (hi if above else lo), (hi - lo) * rho, 0.5 * float(np.arcsinh(1.0 / rho))

    def node_map(pts):
        us, jac = np.empty_like(pts), np.empty_like(pts)
        for j, t in enumerate(pts.tolist()):
            x = mu * (2.0 * (t - 1.0) if above else 2.0 * t)
            us[j], jac[j] = near + scale * np.sinh(x), 2.0 * scale * mu * np.cosh(x)
        return us, jac
    return node_map


def _oracle_level(ev, limits, poles, k, prefix, tol, counter):
    (lo_b, lo_a), (hi_b, hi_a) = limits.levels[k]
    lo = float(np.max(lo_b + (lo_a * prefix).sum(axis=1)))
    hi = float(np.min(hi_b + (hi_a * prefix).sum(axis=1))) if len(hi_b) else math.inf
    if not hi > lo:
        return 0.0, 0.0
    d = ev.dim
    sinh_map = None if math.isinf(hi) else _oracle_sinh_map(poles[k], np.array(prefix), lo, hi)

    def node_fn(pts):
        if math.isinf(hi):
            us, jac = lo + pts / (1.0 - pts), 1.0 / (1.0 - pts) ** 2
        elif sinh_map:
            us, jac = sinh_map(pts)
        else:
            us, jac = lo + (hi - lo) * pts, np.full_like(pts, hi - lo)
        if k == d - 1:
            batch = np.empty((len(us), d))
            batch[:, :k] = prefix
            batch[:, k] = us
            counter[0] += len(us)
            return ev(batch.T) * jac, np.zeros_like(us)
        inner = [_oracle_level(ev, limits, poles, k + 1, prefix + (u,),
                               tol * int_mod._INNER_FRAC, counter) for u in us.tolist()]
        return np.array([v for v, _ in inner]) * jac, np.array([e for _, e in inner]) * jac

    return _oracle_adaptive_1d(node_fn, tol, f"level {k + 1} of {d}", math.isinf(hi))


def oracle_quadrature(spec, tol: float, weight_edge=None):
    """(value, error, n_evals) of a chart integral, one integral and one panel at a time."""
    ev = int_mod._Evaluator(spec, weight_edge)
    limits = int_mod._ChamberLimits(ev.rows, ev.dim)
    counter = [0]
    poles = _oracle_poles(spec, ev, weight_edge)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        value, err = _oracle_level(ev, limits, poles, 0, (), tol, counter)
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


def _oracle_lockstep_block(g: DirectedGraph, env: Environment, n: int, seed: int, block: int):
    """The three walkers' results for one block of n walkers, drawn from the
    streams (seed, kind, block)."""
    k = len(g.interior)
    base = g.interior.index(g.base)
    stop = np.zeros((n, k + 1), dtype=bool)
    stop[:, k] = True

    head, choose = _oracle_random_exits(
        g, env, env_mod.philox_stream(seed, env_mod._CHAIN, block))
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

    head, choose = _oracle_random_exits(
        g, env, env_mod.philox_stream(seed, env_mod._WILSON, block))
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


def oracle_lockstep(g: DirectedGraph, env: Environment, n: int, seed: int):
    """(simulate_chains, loop_erased_paths, wilson_sample_trees) at (n, seed),
    walked by the two-dimensional gather kernel: each block of BLOCK_ROWS
    walkers from its own streams (seed, kind, b), the blocks' trajectories
    and trees concatenated and their path counts added."""
    trajectories, erased, trees = [], Counter(), []
    for b, rows in oracle_blocks(n):
        block = _oracle_lockstep_block(g, env, min(n, rows.stop) - rows.start, seed, b)
        trajectories += block[0]
        erased += block[1]
        trees += block[2]
    return trajectories, erased, trees


# ---------------------------------------------------------------------------
# Monte Carlo oracles: whole batches by blocks, one pass
# ---------------------------------------------------------------------------

def oracle_blocks(n: int):
    """(block index, slice) of each block of a batch of n samples."""
    rows = env_mod.BLOCK_ROWS
    return [(b, slice(lo, lo + rows)) for b, lo in enumerate(range(0, n, rows))]


def oracle_moments(vals: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of vals from each block's numpy mean and sum of
    squared deviations, merged in block order by Chan, Golub & LeVeque's
    pairwise update: n = n_a + n_b, mean = mean_a + delta n_b / n,
    M2 = M2_a + M2_b + delta^2 n_a n_b / n, with delta = mean_b - mean_a;
    the first block's are taken as they are."""
    count, mean, m2 = 0, 0.0, 0.0
    for _, rows in oracle_blocks(len(vals)):
        v = vals[rows]
        block_mean = float(v.mean())
        block_m2 = float(((v - block_mean) ** 2).sum())
        if count:
            share = len(v) / (count + len(v))
            delta = block_mean - mean
            block_mean = mean + delta * share
            block_m2 = m2 + block_m2 + delta * delta * (count * share)
        count, mean, m2 = count + len(v), block_mean, block_m2
    return mean, math.sqrt(m2 / (count - 1)) / math.sqrt(count)


class RecordingMoments(env_mod.Moments):
    """`environment.Moments` that keep a copy of every block fed to them, in
    feeding order: the per-sample values an estimator feeds its moments."""
    fed: list = []

    def add(self, vals):
        RecordingMoments.fed.append(vals.copy())
        super().add(vals)


def oracle_environment_batch(g: DirectedGraph, w, n: int, seed: int) -> np.ndarray:
    """The (n, |E|) environment batch, row-major: in each block, from the
    block's own stream, each edge's gamma draws fill its column, and each
    vertex's block of columns is divided by its row sums."""
    p = np.empty((n, len(g.edge_ids)))
    index = {eid: j for j, eid in enumerate(g.edge_ids)}
    for b, rows in oracle_blocks(n):
        rng = env_mod.philox_stream(seed, env_mod._ENV, b)
        gams = np.empty((len(range(n)[rows]), len(g.edge_ids)))
        for j, eid in enumerate(g.edge_ids):
            gams[:, j] = rng.standard_gamma(float(w.alpha[eid]), size=len(gams))
        for x in g.interior:
            cols = [index[e.id] for e in g.out_edges[x]]
            block = gams[:, cols]
            p[rows, cols] = block / block.sum(axis=1, keepdims=True)
    return p


def gth_flows(g: DirectedGraph, p: np.ndarray):
    """det(I - P) and the (n, |E|) C-ordered edge-occupation flows of a batch
    of environments, from the GTH kernel over the whole batch as one block."""
    flows = np.empty(p.shape)
    return env_mod._gth(g, p, flows), flows


def oracle_laplace_values(g: DirectedGraph, p: np.ndarray, lam):
    """det(I - P) and the Laplace value exp(-rate) of each environment of a
    batch, the rate being the sum of flow_e * rate_e over the edges in edge
    order; det is 1 where the Laplace value underflows to 0."""
    det, z = gth_flows(g, p)
    rates = env_mod.real_rates(lam, g.edge_ids)
    rate = np.zeros(len(p))
    for j in range(len(rates)):
        rate = rate + z[:, j] * rates[j]
    laplace = np.exp(-rate)
    det[laplace == 0] = 1.0
    return det, laplace


def oracle_mc_laplace_by_tree(g: DirectedGraph, w, lam, trees, n: int, seed: int):
    """(value, std_error) of `mc_laplace_by_tree`'s Laplace estimate and of each
    tree's, from the row-major batch, a tree's weight being the product along
    each row of its columns, and `oracle_moments`."""
    p = oracle_environment_batch(g, w, n, seed)
    det, laplace = oracle_laplace_values(g, p, lam)
    per_tree = []
    for t in trees:
        cols = [j for j, eid in enumerate(g.edge_ids) if eid in t.edges]
        per_tree.append(oracle_moments(laplace * p[:, cols].prod(axis=1) / det))
    return oracle_moments(laplace), per_tree


def oracle_flows(ev, u: np.ndarray) -> np.ndarray:
    """(n, |E|) flows of the (n, d) coordinates u: each edge's offset plus
    each nonzero coefficient times its coordinate, in coordinate order."""
    z = np.empty((len(u), len(ev.rows)))
    for i, (off, coeffs) in enumerate(ev.rows):
        z[:, i] = float(off)
        for j, c in enumerate(coeffs):
            if c:
                z[:, i] = z[:, i] + float(c) * u[:, j]
    return z


def oracle_proposal(spec, n, seed, weight_edge=None):
    """The evaluator, Gamma shapes and rates of `integrate_mc`'s proposal, and
    its (n, d) points: each block drawn from its own stream, one coordinate
    after another, and the blocks concatenated."""
    ev = int_mod._Evaluator(spec, weight_edge)
    shapes = [float(spec.alpha[eid]) for eid in ev.free_ids]
    rates = [float(spec.lam[eid]) or 1.0 for eid in ev.free_ids]
    u = np.empty((n, ev.dim))
    for b, rows in oracle_blocks(n):
        rng = env_mod.philox_stream(seed, 3, b)
        for j in range(ev.dim):
            u[rows, j] = rng.standard_gamma(shapes[j], size=len(range(n)[rows]))
    u /= np.array(rates)
    return ev, shapes, rates, u


def oracle_log_weights(spec, n, seed, weight_edge=None):
    """The chamber mask of `integrate_mc`'s proposal points and the log weights
    of the points inside, in one pass over the whole batch, every point
    tested.  Coordinate j is the flow of the j-th cotree edge, so its
    proposal's log terms merge into that edge's column alone: one
    coefficient of log z and one of z per column, summed over the columns
    in edge order."""
    ev, shapes, rates, u = oracle_proposal(spec, n, seed, weight_edge)
    z = oracle_flows(ev, u)
    inside = (z > 0).all(axis=1) & (u > 0).all(axis=1)
    zin = z[inside]
    logz = np.log(zin)
    a, b = list(ev.exps), list(ev.lam)
    for j, eid in enumerate(ev.free_ids):  # log q_j = c_j + (s_j - 1) log u - r_j u
        col = spec.graph.edge_ids.index(eid)
        a[col] -= shapes[j] - 1.0
        b[col] -= rates[j]
    logv, rate = np.zeros(len(zin)), np.zeros(len(zin))
    for col, (x, r) in enumerate(zip(a, b)):
        if x:
            logv = logv + x * logz[:, col]
        if r:
            rate = rate + r * zin[:, col]
    const = math.fsum(s * math.log(r) - math.lgamma(s) for s, r in zip(shapes, rates))
    return inside, logv - rate - const


def oracle_unmerged_log_weights(spec, n, seed, weight_edge=None):
    """`oracle_log_weights` with nothing merged: the integrand's log over every
    edge minus each coordinate's log proposal density, summed by numpy;
    equal to the merged weights up to rounding."""
    ev, shapes, rates, u = oracle_proposal(spec, n, seed, weight_edge)
    shapes, rates = np.array(shapes), np.array(rates)
    z = oracle_flows(ev, u)
    inside = (z > 0).all(axis=1) & (u > 0).all(axis=1)
    zin, uin = z[inside], u[inside]
    logv = -(zin * ev.lam).sum(axis=1) + (np.log(zin) * ev.exps).sum(axis=1)
    logq = (shapes * np.log(rates) - np.array([math.lgamma(s) for s in shapes])
            + (shapes - 1.0) * np.log(uin) - rates * uin).sum(axis=1)
    return inside, logv - logq


def oracle_integrate_mc(spec, n, seed, weight_edge=None):
    """Value, error and Kish effective sample size of `integrate_mc` from the
    one-pass log weights and `oracle_moments`; the Kish sums of each block,
    taken relative to the largest log weight so far, are rescaled whenever
    a block raises it."""
    inside, logw = oracle_log_weights(spec, n, seed, weight_edge)
    vals = np.zeros(n)
    vals[inside] = np.exp(logw)
    top, s1, s2 = -math.inf, 0.0, 0.0
    ends = np.cumsum([inside[rows].sum() for _, rows in oracle_blocks(n)])
    for lo, hi in zip(np.concatenate([[0], ends[:-1]]), ends):
        block = logw[lo:hi]
        if not len(block):
            continue
        if block.max() > top:
            scale = math.exp(top - block.max())
            s1, s2, top = s1 * scale, s2 * scale * scale, float(block.max())
        r = np.exp(block - top)
        s1 += float(r.sum())
        s2 += float((r * r).sum())
    return (*oracle_moments(vals), s1 * s1 / s2)
