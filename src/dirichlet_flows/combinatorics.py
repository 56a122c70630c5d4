"""Exhaustive combinatorics on small directed graphs.

Cycles and paths are walks in the *underlying* graph: a walk may traverse an
edge against its direction, and its sign map records +1/-1 per edge for
traversal along/against, in walk order (the order in which
`SignedEdgeSet.form` adds its terms).  Two walks give every sign map here.
The simple-walk search `_simple_walks` gives all simple cycles and all simple
base-to-cemetery paths.  The tree walk `_tree_walk` gives the fundamental
cycle of each cotree edge and the base-to-cemetery path of a spanning tree.

Every other count has one kernel, the signed vertex-by-edge incidence matrix
(`incidence`), with the edge indicator rows of edge sets (`edge_indicators`):
the genus of S is |S| minus the rank of its incidence columns, a tree is a
set of |V| - 1 edges whose minor without the cemetery row is +-1 (Kirchhoff),
the trees are counted by the matrix-tree theorems (`matrix_tree_counts`),
and `pair_genus` counts the edges and vertices that pairs of sets share.

A spanning tree T is a chart of the unit-mass flows, the edge vectors z with
div z = unit mass at the base.  Such a flow is the unit flow along T's
base-to-cemetery path plus u_e times the fundamental cycle of each cotree
edge e, so the cotree values u are its coordinates.  Spanning trees and the
genus of an edge set also live here.

Everything is exact (integers, Fractions, and float ranks and determinants of
0/+-1 matrices, whose rounding errors are far below 1/2) and deliberately
exhaustive; the intended scale is |E| <= 16.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice

import numpy as np

from .graphs import DirectedGraph
from .rationals import mat_det


@dataclass(frozen=True, eq=False)
class SignedEdgeSet:
    """A simple cycle or a simple base->cemetery path with traversal signs."""
    edges: frozenset[str]
    signs: dict[str, int]
    kind: str  # "cycle" | "path"

    @property
    def directed(self) -> bool:
        """A path runs along every edge; a cycle does in one of its orientations."""
        if self.kind == "path":
            return all(s == +1 for s in self.signs.values())
        return len(set(self.signs.values())) == 1

    def sign(self, edge_id: str) -> int:
        return self.signs.get(edge_id, 0)

    def form(self, lam):
        """The set's linear form sum_e sign(e) * lam[e] at lam.

        Added left to right (not with sum(), which compensates float rounding
        on Python >= 3.12), so float results do not depend on the version.
        """
        total = 0
        for eid, s in self.signs.items():
            total = total + s * lam[eid]
        return total

    def __eq__(self, other):
        return (
            isinstance(other, SignedEdgeSet)
            and self.kind == other.kind
            and self.signs == other.signs
        )

    def __hash__(self):
        return hash((self.kind, self.edges))

    def __repr__(self):
        body = ",".join(f"{'+' if self.signs[e] > 0 else '-'}{e}" for e in sorted(self.edges))
        return f"{self.kind}({body})"


@dataclass(frozen=True)
class SpanningTree:
    edges: frozenset[str]
    directed: bool

    @property
    def key(self) -> tuple[str, ...]:
        return tuple(sorted(self.edges))

    def __repr__(self):
        return "tree({})".format(",".join(self.key))


@dataclass(frozen=True, eq=False)
class FlowPoint:
    """An edge vector whose divergence is the unit mass at the base vertex."""
    z: dict[str, Fraction]

    def __getitem__(self, edge_id: str):
        return self.z[edge_id]

    def __eq__(self, other):
        return isinstance(other, FlowPoint) and self.z == other.z


def _undirected_adjacency(g: DirectedGraph, allowed=None):
    adj: dict[str, list] = {v: [] for v in g.vertices}
    for e in g.edges:
        if allowed is not None and e.id not in allowed:
            continue
        adj[e.tail].append((e, e.head, +1))
        adj[e.head].append((e, e.tail, -1))
    return adj


def _simple_walks(g: DirectedGraph, start: str, stop: str, allowed):
    """Sign maps of the simple walks start -> stop in the underlying graph.

    A walk ends at its first arrival at `stop` (start == stop gives closed
    walks), uses no edge twice and passes only through vertices in `allowed`.
    Walks come in depth-first order over the edges in graph order.
    """
    adj = _undirected_adjacency(g)
    signs: dict[str, int] = {}
    visited = {start}

    def extend(v):
        for e, nxt, fwd in adj[v]:
            if e.id in signs:
                continue
            if nxt == stop:
                yield {**signs, e.id: fwd}
            elif nxt in allowed and nxt not in visited:
                signs[e.id] = fwd
                visited.add(nxt)
                yield from extend(nxt)
                visited.discard(nxt)
                del signs[e.id]

    return extend(start)


def enumerate_cycles(g: DirectedGraph) -> list[SignedEdgeSet]:
    """All simple cycles of the underlying multigraph, canonically oriented.

    A cycle is a set of >= 2 edges whose underlying closed walk visits distinct
    vertices; it is directed when some orientation traverses every edge
    forwards.  Each cycle is the first closed walk found from its smallest
    vertex, flipped if needed so that its smallest edge id gets +1.
    """
    order = sorted(g.vertices)
    found: dict[frozenset, dict[str, int]] = {}
    for i, start in enumerate(order):
        for signs in _simple_walks(g, start, start, set(order[i + 1:])):
            if len(signs) > 1:  # a loop edge closes a walk of one edge
                found.setdefault(frozenset(signs), signs)
    cycles = []
    for edges, signs in found.items():
        if signs[min(signs)] < 0:
            signs = {k: -v for k, v in signs.items()}
        cycles.append(SignedEdgeSet(edges, signs, "cycle"))
    return sorted(cycles, key=lambda c: tuple(sorted(c.edges)))


def enumerate_paths(g: DirectedGraph) -> list[SignedEdgeSet]:
    """All simple paths base -> cemetery in the underlying graph, oriented base->cemetery."""
    paths = [SignedEdgeSet(frozenset(signs), signs, "path")
             for signs in _simple_walks(g, g.base, g.cemetery, set(g.vertices))]
    return sorted(paths, key=lambda p: tuple(sorted(p.edges)))


def incidence(g: DirectedGraph, edge_ids=None) -> np.ndarray:
    """The signed vertex-by-edge incidence matrix, rows in `g.vertices` order:
    column k is +1 at the tail and -1 at the head of edge id k (default: of
    the k-th edge of the graph)."""
    edges = g.edges if edge_ids is None else [g.edge_by_id[eid] for eid in edge_ids]
    row = {v: k for k, v in enumerate(g.vertices)}
    a = np.zeros((len(row), len(edges)), dtype=np.int64)
    for k, e in enumerate(edges):
        a[row[e.tail], k], a[row[e.head], k] = 1, -1
    return a


def edge_indicators(g: DirectedGraph, edge_sets) -> np.ndarray:
    """The 0/1 indicator rows of the edge sets over the edges in graph order."""
    col = {eid: k for k, eid in enumerate(g.edge_ids)}
    rows = np.zeros((len(edge_sets), len(col)), dtype=np.int64)
    for r, edges in enumerate(edge_sets):
        rows[r, [col[eid] for eid in edges]] = 1
    return rows


def _reduced_incidence(g: DirectedGraph, edge_ids) -> np.ndarray:
    """The incidence columns of the edge ids without the cemetery row: |V| - 1
    of them form a spanning tree exactly when their determinant is +-1, and
    otherwise it is 0 (Kirchhoff's matrix-tree theorem)."""
    return np.delete(incidence(g, edge_ids), g.vertices.index(g.cemetery), axis=0)


def is_spanning_tree(g: DirectedGraph, edge_ids) -> bool:
    """Whether the edge ids form a spanning tree: |V| - 1 edges whose reduced
    incidence minor is nonzero."""
    edge_ids = list(frozenset(edge_ids))
    return (len(edge_ids) == len(g.vertices) - 1
            and round(np.linalg.det(_reduced_incidence(g, edge_ids))) != 0)


def spanning_tree(g: DirectedGraph, edge_ids) -> SpanningTree:
    """The spanning tree on edge ids that `is_spanning_tree` accepts, with its
    directed flag: its |V| - 1 edges leave distinct interior vertices, so each
    interior vertex is the tail of exactly one of them."""
    edges = frozenset(edge_ids)
    tails = {g.edge_by_id[eid].tail for eid in edges}
    return SpanningTree(edges, len(tails) == len(edges) and g.cemetery not in tails)


# subsets whose minors are stacked at once in enumerate_spanning_trees
_SUBSET_CHUNK = 4096


def enumerate_spanning_trees(g: DirectedGraph, directed_only: bool = False) -> list[SpanningTree]:
    """All spanning trees, sorted by their sorted edge-id tuple (the basis order):
    the (|V| - 1)-subsets of the sorted edge ids, in combinations order, whose
    reduced incidence minors are nonzero, stacked and tested at once."""
    ids = sorted(g.edge_ids)
    reduced = _reduced_incidence(g, ids)
    subsets = combinations(range(len(ids)), len(g.vertices) - 1)
    trees = []
    while (chunk := np.array(list(islice(subsets, _SUBSET_CHUNK)))).size:
        minors = reduced[:, chunk].transpose(1, 0, 2)
        trees += [spanning_tree(g, [ids[k] for k in subset])
                  for subset in chunk[np.rint(np.linalg.det(minors)) != 0].tolist()]
    return [t for t in trees if t.directed or not directed_only]


def matrix_tree_counts(g: DirectedGraph) -> tuple[int, int]:
    """The number of spanning trees of the underlying multigraph and of
    directed spanning trees (each interior vertex's one out-edge, all leading
    to the cemetery), by the matrix-tree theorems, as exact integer
    determinants without the cemetery's row and column: Kirchhoff's of the
    Laplacian B B^T (B the `incidence` matrix), and Tutte's of the out-degree
    Laplacian D_out - A, whose row x is the sum over the edges e out of x of
    incidence column e."""
    b = _reduced_incidence(g, g.edge_ids)
    laplacian, out_laplacian = b @ b.T, (b == 1) @ b.T
    return int(mat_det(laplacian.tolist())), int(mat_det(out_laplacian.tolist()))


def tree_basis(g: DirectedGraph) -> list[SpanningTree]:
    """The ordered spanning-tree basis shared by the connection matrices."""
    return enumerate_spanning_trees(g, directed_only=False)


def _tree_walk(g: DirectedGraph, tree_edges: frozenset[str], src: str, dst: str) -> dict[str, int]:
    """Sign map of the unique simple walk src -> dst inside a tree, in walk order."""
    adj = _undirected_adjacency(g, tree_edges)
    prev: dict[str, tuple] = {src: None}  # vertex -> (previous vertex, edge id, sign)
    stack = [src]
    while stack:
        v = stack.pop()
        for e, nxt, fwd in adj[v]:
            if nxt not in prev:
                prev[nxt] = (v, e.id, fwd)
                stack.append(nxt)
    if dst not in prev:
        raise ValueError(f"tree does not connect {src!r} to {dst!r}")
    steps = []
    v = dst
    while prev[v] is not None:
        v, eid, fwd = prev[v]
        steps.append((eid, fwd))
    return dict(reversed(steps))


def fundamental_cycle(g: DirectedGraph, tree: SpanningTree, e0: str) -> SignedEdgeSet:
    """The unique cycle in tree + e0, oriented along e0 (sign(e0) = +1).

    Its sign map runs e0 first, then head(e0) -> tail(e0) along the tree.
    """
    if e0 in tree.edges:
        raise ValueError(f"edge {e0!r} is in the tree; a fundamental cycle needs a cotree edge")
    edge0 = g.edge_by_id[e0]
    signs = {e0: +1, **_tree_walk(g, tree.edges, edge0.head, edge0.tail)}
    return SignedEdgeSet(frozenset(signs), signs, "cycle")


def tree_path(g: DirectedGraph, tree: SpanningTree) -> SignedEdgeSet:
    """The unique simple path base -> cemetery inside the tree."""
    signs = _tree_walk(g, tree.edges, g.base, g.cemetery)
    return SignedEdgeSet(frozenset(signs), signs, "path")


def genus(g: DirectedGraph, subset) -> int:
    """Cyclomatic number |S| - |V(S)| + c(S) of the edge subset S: |S| minus
    the rank of its incidence columns.  It equals the dimension of the cycle
    space of S: the rank of the signed indicators of the cycles inside S.
    """
    subset = list(frozenset(subset))
    return len(subset) - (int(np.linalg.matrix_rank(incidence(g, subset))) if subset else 0)


def pair_genus(g: DirectedGraph, rows: np.ndarray) -> np.ndarray:
    """genus(X | Y) for every pair of `edge_indicators` rows X, Y of connected
    edge sets (cycles, paths), as a square array: |E_X| + |E_Y| - |E_X & E_Y|
    - (|V_X| + |V_Y| - |V_X & V_Y|) + (1 if X and Y share a vertex, else 2),
    the shared counts being products of the edge rows and of the vertex rows.
    """
    vertices = (rows @ np.abs(incidence(g)).T > 0).astype(np.int64)
    shared = vertices @ vertices.T
    n_edges, n_vertices = rows.sum(axis=1), vertices.sum(axis=1)
    return (n_edges[:, None] + n_edges - rows @ rows.T
            - (n_vertices[:, None] + n_vertices - shared) + np.where(shared > 0, 1, 2))


# ---------------------------------------------------------------------------
# flow coordinates of a spanning tree
# ---------------------------------------------------------------------------

def cotree(g: DirectedGraph, tree: SpanningTree) -> tuple[str, ...]:
    """The free coordinates attached to a tree: edges outside it, sorted by id."""
    return tuple(sorted(set(g.edge_ids) - tree.edges))


@lru_cache(maxsize=None)
def tree_coordinate_map(g: DirectedGraph, tree: SpanningTree):
    """Affine map u -> z: for each edge id, (offset, coefficients over the free edges).

    The free edges (cotree, sorted by id) are the coordinates.  The offset
    column is the sign map of the tree path, and the column of a free edge e0
    is the sign map of its fundamental cycle: z is the unit flow along the path
    plus u_e0 times each cycle.  Every entry is a Fraction of integer value
    (0 or +-1), so that dividing by one stays exact.
    """
    free_ids = cotree(g, tree)
    path = tree_path(g, tree)
    cycles = [fundamental_cycle(g, tree, e0) for e0 in free_ids]
    rows = {eid: (Fraction(path.sign(eid)), tuple(Fraction(c.sign(eid)) for c in cycles))
            for eid in g.edge_ids}
    return free_ids, rows

