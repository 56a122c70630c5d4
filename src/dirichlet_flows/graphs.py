"""Directed-graph model with an absorbing cemetery vertex.

A graph here is finite and directed, with a distinguished absorbing vertex
(the cemetery, which has no outgoing edges) and a base vertex from which the
walk starts.  Parallel edges are allowed, loops are not.  Every non-cemetery
vertex must reach the cemetery and be reachable from the base; those standing
assumptions are what `validate` checks and what every other module relies on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path

from .rationals import format_scalar, parse_scalar


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str
    alpha: Fraction


@dataclass(frozen=True)
class DirectedGraph:
    vertices: tuple[str, ...]
    cemetery: str
    base: str
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        if self.cemetery not in self.vertices:
            raise ValueError(f"cemetery {self.cemetery!r} not a vertex")
        if self.base not in self.vertices or self.base == self.cemetery:
            raise ValueError(f"base {self.base!r} must be a non-cemetery vertex")
        for e in self.edges:
            if e.tail not in self.vertices or e.head not in self.vertices:
                raise ValueError(f"edge {e.id!r} has endpoint outside the vertex set")

    @property
    def interior(self) -> tuple[str, ...]:
        """Vertices other than the cemetery, in declaration order."""
        return tuple(v for v in self.vertices if v != self.cemetery)

    @cached_property
    def edge_by_id(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def edge_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.edges)

    @cached_property
    def out_edges(self) -> dict[str, tuple[Edge, ...]]:
        out: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            out[e.tail].append(e)
        return {v: tuple(es) for v, es in out.items()}

    @cached_property
    def in_edges(self) -> dict[str, tuple[Edge, ...]]:
        inc: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            inc[e.head].append(e)
        return {v: tuple(es) for v, es in inc.items()}

    def alpha_map(self) -> dict[str, Fraction]:
        return {e.id: e.alpha for e in self.edges}


def reach(g: DirectedGraph, start: str, backwards: bool = False, usable=None) -> set[str]:
    """The vertices reached from `start` along directed edges (against them if
    `backwards`), using only the edges e with usable(e) when usable is given."""
    reached, frontier = {start}, [start]
    while frontier:
        v = frontier.pop()
        for e in (g.in_edges[v] if backwards else g.out_edges[v]):
            nxt = e.tail if backwards else e.head
            if nxt not in reached and (usable is None or usable(e)):
                reached.add(nxt)
                frontier.append(nxt)
    return reached


def validate(g: DirectedGraph) -> list[str]:
    """Check the standing assumptions; returns a list of violations (empty = ok).

    Checked: unique edge ids, no loops, no edge leaving the cemetery, every
    interior vertex reaches the cemetery, every vertex is reachable from the
    base.  Violations name the offending edge or vertex.
    """
    violations = []
    seen = set()
    for e in g.edges:
        if e.id in seen:
            violations.append(f"duplicate edge id {e.id!r}")
        seen.add(e.id)
        if e.tail == e.head:
            violations.append(f"loop edge {e.id!r} at vertex {e.tail!r}")
        if e.tail == g.cemetery:
            violations.append(f"edge {e.id!r} with origin the cemetery {g.cemetery!r}")

    reaches = reach(g, g.cemetery, backwards=True)
    for v in g.interior:
        if v not in reaches:
            violations.append(f"no directed path from {v!r} to the cemetery")

    reachable = reach(g, g.base)
    for v in g.vertices:
        if v not in reachable:
            violations.append(f"no directed path from the base {g.base!r} to {v!r}")

    return violations


def require_valid(g: DirectedGraph) -> DirectedGraph:
    violations = validate(g)
    if violations:
        raise ValueError("invalid graph: " + "; ".join(violations))
    return g


def divergence(g: DirectedGraph, theta) -> dict[str, Fraction]:
    """Net outflow minus inflow at each interior vertex for an edge vector.

    theta maps every edge id to a number; the cemetery row is omitted.
    """
    for eid in g.edge_ids:
        if eid not in theta:
            raise KeyError(f"edge vector missing value for edge {eid!r}")
    div = {v: 0 for v in g.interior}
    for e in g.edges:
        if e.tail != g.cemetery:
            div[e.tail] = div[e.tail] + theta[e.id]
        if e.head != g.cemetery:
            div[e.head] = div[e.head] - theta[e.id]
    return div


def out_weights(g: DirectedGraph, alpha) -> dict[str, Fraction]:
    """The total weight beta_x of the out-edges of each interior vertex x,
    under `alpha` (edge id -> weight)."""
    return {x: sum((alpha[e.id] for e in g.out_edges[x]), Fraction(0)) for x in g.interior}


# ---------------------------------------------------------------------------
# vertex splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitGraph:
    """Bipartite vertex-split companion of a graph.

    Every interior vertex x is split into an in-copy x- and an out-copy x+,
    joined by a bridge edge x- -> x+.  Original edges keep their ids and
    weights and run between out- and in-copies; the bridge at x gets weight
    -beta_x, minus the out-weight of x, so bridges carry negative weights by
    design.  These weights are the exponents of Theorem 2.1's flow integral.
    """
    graph: DirectedGraph
    bridge_of: dict[str, str]  # interior vertex -> bridge edge id

    @property
    def bridge_ids(self) -> tuple[str, ...]:
        return tuple(self.bridge_of.values())


def split_graph(g: DirectedGraph, alpha=None) -> SplitGraph:
    """Split every interior vertex into an in/out pair with a negative-weight
    bridge, under the weights `alpha` (edge id -> weight), or under the
    graph's own weights."""
    alpha = g.alpha_map() if alpha is None else alpha
    minus = {x: f"{x}-" for x in g.interior}
    plus = {x: f"{x}+" for x in g.interior}
    vertices = tuple(minus[x] for x in g.interior) + tuple(plus[x] for x in g.interior) + (g.cemetery,)

    beta = out_weights(g, alpha)
    bridge_of = {x: f"@{x}" for x in g.interior}
    taken = set(g.edge_ids)
    for x, bid in bridge_of.items():
        if bid in taken:
            raise ValueError(f"bridge edge id {bid!r} collides with an existing edge id")

    edges = []
    for e in g.edges:
        head = g.cemetery if e.head == g.cemetery else minus[e.head]
        edges.append(Edge(e.id, plus[e.tail], head, alpha[e.id]))
    for x in g.interior:
        edges.append(Edge(bridge_of[x], minus[x], plus[x], -beta[x]))

    split = DirectedGraph(vertices, g.cemetery, minus[g.base], tuple(edges))
    return SplitGraph(split, bridge_of)


# ---------------------------------------------------------------------------
# structured-text graph files
# ---------------------------------------------------------------------------

def _typed(value, kind: type, what: str):
    """value, which must be of the JSON type kind: str, list or dict."""
    if not isinstance(value, kind):
        json_type = {str: "a string", list: "an array", dict: "an object"}[kind]
        raise ValueError(f"{what} must be {json_type}, got {value!r}")
    return value


def _field(obj: dict, name: str, where: str, kind: type | None = None):
    """obj[name], of the JSON type kind when one is given."""
    if name not in obj:
        raise ValueError(f"{where} missing field {name!r}")
    return obj[name] if kind is None else _typed(obj[name], kind, f"{where} field {name!r}")


def graph_from_dict(data: dict) -> DirectedGraph:
    """The graph of a graph object: an array of string vertex names, string
    cemetery and base, and an array of edge objects, each with a string id,
    tail and head and an alpha that is a number or a string like "2/3".  A
    field of any other JSON type raises ValueError."""
    top = "graph object"
    _typed(data, dict, "a graph file")
    vertices = tuple(_typed(v, str, "a vertex") for v in _field(data, "vertices", top, list))
    edges = []
    for e in _field(data, "edges", top, list):
        eid = _field(_typed(e, dict, "an edge"), "id", "edge", str)
        where = f"edge {eid!r}"
        alpha = _field(e, "alpha", where)
        try:
            alpha = parse_scalar(alpha)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"{where} field 'alpha': {exc}") from None
        edges.append(Edge(eid, _field(e, "tail", where, str), _field(e, "head", where, str), alpha))
    return DirectedGraph(vertices, _field(data, "cemetery", top, str), _field(data, "base", top, str),
                         tuple(edges))


def graph_to_dict(g: DirectedGraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "cemetery": g.cemetery,
        "base": g.base,
        "edges": [
            {"id": e.id, "tail": e.tail, "head": e.head, "alpha": format_scalar(e.alpha)}
            for e in g.edges
        ],
    }


def load_graph(path) -> DirectedGraph:
    with open(Path(path)) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed graph file (line {exc.lineno}, col {exc.colno}): {exc.msg}") from exc
    return graph_from_dict(data)
