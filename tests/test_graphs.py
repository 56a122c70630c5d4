import json
from fractions import Fraction

import numpy as np
import pytest

from dirichlet_flows import (
    DirichletWeights,
    divergence,
    enumerate_cycles,
    enumerate_spanning_trees,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    split_graph,
    validate,
)
from dirichlet_flows.graphs import DirectedGraph, Edge

from conftest import bundled_graphs, complete_graph, random_graphs, random_rational_weights


def _g(vertices, base, edges):
    return DirectedGraph(tuple(vertices), "delta", base,
                         tuple(Edge(i, t, h, Fraction(a)) for i, t, h, a in edges))


def test_validate_bundled_ok():
    for g in bundled_graphs():
        assert validate(g) == []


def test_validate_edge_from_cemetery():
    g = _g(["x0", "delta"], "x0",
           [("e1", "x0", "delta", 1), ("bad", "delta", "x0", 1)])
    msgs = validate(g)
    assert any("origin the cemetery" in m for m in msgs)


def test_validate_isolated_vertex():
    g = _g(["x0", "y", "delta"], "x0", [("e1", "x0", "delta", 1)])
    msgs = validate(g)
    assert any("from 'y' to the cemetery" in m for m in msgs)
    assert any("to 'y'" in m for m in msgs)


def test_validate_loop_and_duplicate_ids():
    g = _g(["x0", "a", "delta"], "x0",
           [("e1", "x0", "delta", 1), ("e1", "x0", "a", 1), ("e2", "a", "a", 1),
            ("e3", "a", "delta", 1)])
    msgs = validate(g)
    assert any("duplicate edge id" in m for m in msgs)
    assert any("loop edge" in m for m in msgs)


def test_divergence_two_edge(two_edge):
    div = divergence(two_edge, {"e1": 0.4, "e2": 0.6})
    assert div == {"x0": 1.0}


def test_divergence_triangle(triangle):
    theta = {"e1": Fraction(2, 3), "e2": Fraction(1, 3),
             "e3": Fraction(2, 3), "e4": Fraction(1, 3)}
    assert divergence(triangle, theta) == {"x0": 1, "a": 0}


def test_divergence_of_cycles_vanishes():
    for g in bundled_graphs():
        for c in enumerate_cycles(g):
            theta = {eid: c.sign(eid) for eid in g.edge_ids}
            assert all(v == 0 for v in divergence(g, theta).values())


def test_divergence_missing_edge(two_edge):
    with pytest.raises(KeyError):
        divergence(two_edge, {"e1": 1.0})


def test_split_graph_two_edge(two_edge):
    split = split_graph(two_edge)
    h = split.graph
    assert len(h.vertices) == 3
    assert len(h.edges) == 3
    assert h.edge_by_id["@x0"].alpha == -2  # minus the total out-weight
    assert validate(h) == []


def test_split_graph_triangle(triangle):
    split = split_graph(triangle)
    h = split.graph
    assert len(h.vertices) == 5
    assert len(h.edges) == 6
    assert h.edge_by_id["@x0"].alpha == -(triangle.edge_by_id["e1"].alpha
                                          + triangle.edge_by_id["e3"].alpha)
    assert h.edge_by_id["@a"].alpha == -(triangle.edge_by_id["e2"].alpha
                                         + triangle.edge_by_id["e4"].alpha)
    assert validate(h) == []


def test_split_graph_carries_override_weights():
    """Under weights other than the graph's own, every original edge of the
    split graph carries its weight, and every bridge minus the out-weight of
    its vertex, summed here edge by edge; DirichletWeights.beta gives those
    totals too.  Without weights the split graph takes the graph's own."""
    rng = np.random.default_rng(29)
    moved = 0
    for g in bundled_graphs() + [complete_graph(3)] + random_graphs(seed=12, count=8):
        w = DirichletWeights(random_rational_weights(g, rng))
        split = split_graph(g, w.alpha)
        h = split.graph
        for eid in g.edge_ids:
            assert h.edge_by_id[eid].alpha == w.alpha[eid]
        for x, bid in split.bridge_of.items():
            total = Fraction(0)
            for e in g.edges:
                if e.tail == x:
                    total += w.alpha[e.id]
            assert h.edge_by_id[bid].alpha == -total
            assert w.beta(g)[x] == total
        assert split_graph(g) == split_graph(g, g.alpha_map())
        moved += w.alpha != g.alpha_map()
    assert moved >= 10


def test_split_graph_bipartite():
    for g in bundled_graphs():
        h = split_graph(g).graph
        for e in h.edges:
            # every edge runs plus-side -> minus-side/cemetery or minus -> plus
            if e.id.startswith("@"):
                assert e.tail.endswith("-") and e.head.endswith("+")
            else:
                assert e.tail.endswith("+")
                assert e.head == h.cemetery or e.head.endswith("-")


def test_split_graph_directed_tree_bijection():
    for g in bundled_graphs():
        split = split_graph(g)
        bridges = set(split.bridge_ids)
        originals = {t.edges for t in enumerate_spanning_trees(g, directed_only=True)}
        lifted = {t.edges - bridges
                  for t in enumerate_spanning_trees(split.graph, directed_only=True)}
        assert originals == lifted
        for t in enumerate_spanning_trees(split.graph, directed_only=True):
            assert bridges <= t.edges


def test_graph_file_roundtrip(tmp_path, triangle):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph_to_dict(triangle)))
    loaded = load_graph(path)
    assert loaded == triangle


def test_graph_file_rational_alpha(tmp_path):
    data = {
        "vertices": ["x0", "delta"],
        "cemetery": "delta",
        "base": "x0",
        "edges": [{"id": "e1", "tail": "x0", "head": "delta", "alpha": "2/3"},
                  {"id": "e2", "tail": "x0", "head": "delta", "alpha": "0.25"}],
    }
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    g = load_graph(path)
    assert g.edge_by_id["e1"].alpha == Fraction(2, 3)
    assert g.edge_by_id["e2"].alpha == Fraction(1, 4)


def test_graph_file_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="line 1"):
        load_graph(path)
    path.write_text(json.dumps({"vertices": ["x0", "delta"]}))
    with pytest.raises(ValueError, match="missing field"):
        load_graph(path)


def test_constructor_rejects_bad_shapes():
    with pytest.raises(ValueError, match="cemetery"):
        DirectedGraph(("x0",), "delta", "x0", ())
    with pytest.raises(ValueError, match="base"):
        DirectedGraph(("x0", "delta"), "delta", "delta", ())
