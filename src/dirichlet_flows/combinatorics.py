"""Exhaustive combinatorics on small directed graphs.

Simple cycles and base-to-cemetery paths are enumerated over the *underlying*
graph: a walk may traverse an edge against its direction, and the sign map of
the result records +1/-1 per edge for traversal along/against.  Spanning
trees, fundamental cycles, tree paths, the genus of an edge set, and the flow
coordinates attached to a spanning tree all live here.

Everything is exact (integers and Fractions) and deliberately exhaustive;
the intended scale is |E| <= 16.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .graphs import DirectedGraph
from .rationals import mat_det, mat_rank, mat_solve


@dataclass(frozen=True, eq=False)
class SignedEdgeSet:
    """A simple cycle or a simple base->cemetery path with traversal signs."""
    edges: frozenset[str]
    signs: dict[str, int]
    kind: str  # "cycle" | "path"
    directed: bool
    vertices: tuple[str, ...]  # walk order; cycles omit the repeated start

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
            self.directed,
            tuple(reversed(self.vertices)),
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


def _canonical_cycle(edge_signs: dict[str, int], walk: tuple[str, ...], directed: bool) -> SignedEdgeSet:
    # orient so the lexicographically smallest edge id gets +1
    if edge_signs[min(edge_signs)] < 0:
        edge_signs = {k: -v for k, v in edge_signs.items()}
        walk = tuple(reversed(walk))
    return SignedEdgeSet(frozenset(edge_signs), edge_signs, "cycle", directed, walk)


def enumerate_cycles(g: DirectedGraph) -> list[SignedEdgeSet]:
    """All simple cycles of the underlying multigraph, canonically oriented.

    A cycle is a set of >= 2 edges whose underlying closed walk visits distinct
    vertices; it is directed when some orientation traverses every edge
    forwards.
    """
    adj = _undirected_adjacency(g)
    order = {v: i for i, v in enumerate(sorted(g.vertices))}
    found: dict[frozenset, SignedEdgeSet] = {}

    def dfs(start, current, walk, used, signs):
        for e, nxt, fwd in adj[current]:
            if e.id in used:
                continue
            if nxt == start:
                if len(used) >= 1:  # closing edge makes length >= 2
                    key = frozenset(used | {e.id})
                    if key not in found:
                        allsigns = dict(signs)
                        allsigns[e.id] = fwd
                        directed = len(set(allsigns.values())) == 1
                        found[key] = _canonical_cycle(allsigns, tuple(walk), directed)
                continue
            if nxt in walk or order[nxt] < order[start]:
                continue
            signs[e.id] = fwd
            used.add(e.id)
            walk.append(nxt)
            dfs(start, nxt, walk, used, signs)
            walk.pop()
            used.discard(e.id)
            del signs[e.id]

    for start in sorted(g.vertices, key=order.get):
        dfs(start, start, [start], set(), {})
    return sorted(found.values(), key=lambda c: tuple(sorted(c.edges)))


def enumerate_paths(g: DirectedGraph) -> list[SignedEdgeSet]:
    """All simple paths base -> cemetery in the underlying graph, oriented base->cemetery."""
    adj = _undirected_adjacency(g)
    results = []

    def dfs(current, walk, used, signs):
        for e, nxt, fwd in adj[current]:
            if e.id in used or nxt in walk:
                continue
            if nxt == g.cemetery:
                allsigns = dict(signs)
                allsigns[e.id] = fwd
                directed = all(s == +1 for s in allsigns.values())
                results.append(
                    SignedEdgeSet(frozenset(allsigns), allsigns, "path", directed,
                                  tuple(walk) + (nxt,))
                )
                continue
            signs[e.id] = fwd
            used.add(e.id)
            walk.append(nxt)
            dfs(nxt, walk, used, signs)
            walk.pop()
            used.discard(e.id)
            del signs[e.id]

    dfs(g.base, [g.base], set(), {})
    return sorted(results, key=lambda p: tuple(sorted(p.edges)))


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


def _is_directed_tree(g: DirectedGraph, edge_ids) -> bool:
    outdeg = {v: 0 for v in g.interior}
    for eid in edge_ids:
        outdeg[g.edge_by_id[eid].tail] += 1
    return all(n == 1 for n in outdeg.values())


def enumerate_spanning_trees(g: DirectedGraph, directed_only: bool = False) -> list[SpanningTree]:
    """All spanning trees, sorted by their sorted edge-id tuple (the basis order)."""
    n = len(g.vertices)
    trees = []
    for combo in combinations(sorted(g.edge_ids), n - 1):
        if is_spanning_tree(g, combo):
            directed = _is_directed_tree(g, combo)
            if directed_only and not directed:
                continue
            trees.append(SpanningTree(frozenset(combo), directed))
    trees.sort(key=lambda t: t.key)
    return trees


def tree_basis(g: DirectedGraph) -> list[SpanningTree]:
    """The ordered spanning-tree basis shared by the connection matrices."""
    return enumerate_spanning_trees(g, directed_only=False)


def _tree_walk(g: DirectedGraph, tree_edges: frozenset[str], src: str, dst: str):
    """Unique simple walk src -> dst inside a tree; yields (edge, forward_sign)."""
    adj = _undirected_adjacency(g, tree_edges)
    stack = [(src, None)]
    prev: dict[str, tuple] = {src: None}
    while stack:
        v, _ = stack.pop()
        if v == dst:
            break
        for e, nxt, fwd in adj[v]:
            if nxt not in prev:
                prev[nxt] = (v, e, fwd)
                stack.append((nxt, None))
    if dst not in prev:
        raise ValueError(f"tree does not connect {src!r} to {dst!r}")
    steps = []
    v = dst
    while prev[v] is not None:
        u, e, fwd = prev[v]
        steps.append((e, fwd))
        v = u
    return list(reversed(steps))


def fundamental_cycle(g: DirectedGraph, tree: SpanningTree, e0: str) -> SignedEdgeSet:
    """The unique cycle in tree + e0, oriented along e0 (sign(e0) = +1)."""
    if e0 in tree.edges:
        raise ValueError(f"edge {e0!r} is in the tree; a fundamental cycle needs a cotree edge")
    edge0 = g.edge_by_id[e0]
    signs = {e0: +1}
    walk = [edge0.tail, edge0.head]
    for e, fwd in _tree_walk(g, tree.edges, edge0.head, edge0.tail):
        signs[e.id] = fwd
        walk.append(e.head if fwd == +1 else e.tail)
    directed = len(set(signs.values())) == 1
    return SignedEdgeSet(frozenset(signs), signs, "cycle", directed, tuple(walk[:-1]))


def tree_path(g: DirectedGraph, tree: SpanningTree) -> SignedEdgeSet:
    """The unique simple path base -> cemetery inside the tree."""
    signs = {}
    walk = [g.base]
    for e, fwd in _tree_walk(g, tree.edges, g.base, g.cemetery):
        signs[e.id] = fwd
        walk.append(e.head if fwd == +1 else e.tail)
    directed = all(s == +1 for s in signs.values())
    return SignedEdgeSet(frozenset(signs), signs, "path", directed, tuple(walk))


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
def _coordinate_map_cached(g: DirectedGraph, tree_edges: frozenset):
    tree_ids = sorted(tree_edges)
    free_ids = sorted(set(g.edge_ids) - tree_edges)
    interior = list(g.interior)
    vindex = {v: i for i, v in enumerate(interior)}

    # divergence rows of the tree edges (square: |tree| == |interior|)
    m = [[Fraction(0)] * len(tree_ids) for _ in interior]
    for j, eid in enumerate(tree_ids):
        e = g.edge_by_id[eid]
        if e.tail in vindex:
            m[vindex[e.tail]][j] += 1
        if e.head in vindex:
            m[vindex[e.head]][j] -= 1

    # one elimination for the tree values at u = 0 (unit mass at the base)
    # and for the tree-value column of every free edge
    rhs = [[Fraction(1) if v == g.base else Fraction(0) for v in interior]]
    for eid in free_ids:
        e = g.edge_by_id[eid]
        col = [Fraction(0)] * len(interior)
        if e.tail in vindex:
            col[vindex[e.tail]] -= 1
        if e.head in vindex:
            col[vindex[e.head]] += 1
        rhs.append(col)
    offset, *columns = mat_solve(m, rhs)

    # full affine map over all edges, rows in g.edges order
    rows = {}
    for eid in g.edge_ids:
        if eid in tree_edges:
            i = tree_ids.index(eid)
            rows[eid] = (offset[i], tuple(col[i] for col in columns))
        else:
            j = free_ids.index(eid)
            rows[eid] = (Fraction(0), tuple(Fraction(1) if k == j else Fraction(0)
                                            for k in range(len(free_ids))))
    return tuple(free_ids), rows


def tree_coordinate_map(g: DirectedGraph, tree: SpanningTree):
    """Affine map u -> z: for each edge id, (offset, coefficients over the free edges).

    The free edges (cotree, sorted by id) are the coordinates; the tree-edge
    values are the unique solution of div(z) = unit mass at the base.  All
    entries are exact Fractions (in fact integers).
    """
    return _coordinate_map_cached(g, frozenset(tree.edges))


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

