"""Exhaustive combinatorics on small directed graphs.

Cycles and paths are walks in the *underlying* graph: a walk may traverse an
edge against its direction, and its sign map records +1/-1 per edge for
traversal along/against, in walk order (the order in which
`SignedEdgeSet.form` adds its terms).  Two walks give every sign map here.
The simple-walk search `_simple_walks` gives all simple cycles and all simple
base-to-cemetery paths.  The tree walk `_tree_walk` gives the fundamental
cycle of each cotree edge and the base-to-cemetery path of a spanning tree.

A spanning tree T is a chart of the unit-mass flows, the edge vectors z with
div z = unit mass at the base.  Such a flow is the unit flow along T's
base-to-cemetery path plus u_e times the fundamental cycle of each cotree
edge e, so the cotree values u are its coordinates.  Spanning trees, the
genus of an edge set, chart orientations and arrangement bases also live
here.

Everything is exact (integers and Fractions) and deliberately exhaustive;
the intended scale is |E| <= 16.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .graphs import DirectedGraph
from .rationals import mat_det, mat_rank


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

    def reoriented(self, along: str) -> "SignedEdgeSet":
        """Same cycle with signs flipped, if needed, so that `along` gets +1."""
        if self.signs[along] == +1:
            return self
        return SignedEdgeSet(
            self.edges,
            {k: -v for k, v in self.signs.items()},
            self.kind,
        )

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


def _closing_edges(g: DirectedGraph, edge_ids) -> int:
    """How many of the edges close a cycle when added one by one (union-find)."""
    parent: dict[str, str] = {}

    def find(v):
        parent.setdefault(v, v)
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    closing = 0
    for eid in edge_ids:
        e = g.edge_by_id[eid]
        a, b = find(e.tail), find(e.head)
        if a == b:
            closing += 1
        else:
            parent[a] = b
    return closing


def is_spanning_tree(g: DirectedGraph, edge_ids) -> bool:
    """Whether the edge ids form a spanning tree: |V| - 1 edges and no cycle."""
    edge_ids = frozenset(edge_ids)
    return len(edge_ids) == len(g.vertices) - 1 and _closing_edges(g, edge_ids) == 0


def spanning_tree(g: DirectedGraph, edge_ids) -> SpanningTree:
    """The spanning tree on edge ids that `is_spanning_tree` accepts, with its
    directed flag: its |V| - 1 edges leave distinct interior vertices, so each
    interior vertex is the tail of exactly one of them."""
    edges = frozenset(edge_ids)
    tails = {g.edge_by_id[eid].tail for eid in edges}
    return SpanningTree(edges, len(tails) == len(edges) and g.cemetery not in tails)


def enumerate_spanning_trees(g: DirectedGraph, directed_only: bool = False) -> list[SpanningTree]:
    """All spanning trees, sorted by their sorted edge-id tuple (the basis order)."""
    n = len(g.vertices)
    trees = [spanning_tree(g, combo) for combo in combinations(sorted(g.edge_ids), n - 1)
             if is_spanning_tree(g, combo)]
    return [t for t in trees if t.directed or not directed_only]


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
    """Cyclomatic number |S| - |V(S)| + c(S) of the edge subset S.

    Every edge that closes no cycle merges two components, so union-find
    counts it as the edges that do.  It equals the dimension of the cycle
    space of S: the rank of the signed indicators of the cycles inside S.
    """
    return _closing_edges(g, frozenset(subset))


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


def solve_tree_coordinates(g: DirectedGraph, tree: SpanningTree, u) -> FlowPoint:
    """The unique flow point with the given values on the cotree edges."""
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


def tree_orientation_sign(g: DirectedGraph, tree: SpanningTree) -> int:
    """Sign of the tree chart relative to the lexicographically smallest tree.

    The reference orientation declares the coordinates of the first tree in
    basis order (by increasing edge id) positive; any other tree chart gets
    the sign of the coordinate-change determinant.
    """
    ref = tree_basis(g)[0]
    free_ids, rows = tree_coordinate_map(g, ref)
    target = cotree(g, tree)
    det = mat_det([[rows[eid][1][k] for k in range(len(free_ids))] for eid in target])
    if det == 0:
        raise ValueError("degenerate tree chart; not a spanning tree?")
    return 1 if det > 0 else -1


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

