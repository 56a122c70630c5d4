"""Shared fixtures: bundled graphs, random graphs, and independent oracles.

The oracles here deliberately avoid the library's enumeration code paths:
cycles and trees are recognized by degree/connectivity filters over raw edge
subsets, so the backtracking enumerators are checked against brute force.
The matrix oracles multiply dense lists of Fractions, without the library's
sparse helpers or its residue products.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from dirichlet_flows import DirectedGraph, Environment, builtin_graph
from dirichlet_flows.graphs import Edge


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
    """Max |[M_a, M_b]| entry over the samples, M_e summed densely from conn.terms."""
    ops = {mat: oracle_dense(mat.rows, conn.size) for _, mat in conn.path_terms + conn.cycle_terms}
    worst = Fraction(0)
    for lam in samples:
        mats = [oracle_combine(*((Fraction(wt), ops[mat]) for wt, mat in conn.terms(eid, lam)))
                for eid in conn.edge_ids]
        for a in range(len(mats)):
            for b in range(a + 1, len(mats)):
                ab, ba = oracle_matmul(mats[a], mats[b]), oracle_matmul(mats[b], mats[a])
                worst = max(worst, oracle_max_abs(oracle_combine((1, ab), (-1, ba))))
    return worst
