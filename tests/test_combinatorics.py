from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from dirichlet_flows import (
    cotree,
    divergence,
    enumerate_cycles,
    enumerate_paths,
    enumerate_spanning_trees,
    fundamental_cycle,
    genus,
    tree_basis,
    tree_path,
)
from dirichlet_flows.combinatorics import (
    SpanningTree,
    edge_indicators,
    is_spanning_tree,
    matrix_tree_counts,
    pair_genus,
    tree_coordinate_map,
)
from dirichlet_flows.graphs import split_graph
from dirichlet_flows.rationals import mat_rank

from conftest import (
    bundled_graphs,
    coordinate_family_is_basis,
    complete_graph,
    multigraph,
    oracle_coordinate_map,
    oracle_cycles,
    oracle_genus,
    oracle_paths,
    oracle_spanning_trees,
    oracle_tree_coordinates,
    random_graphs,
)


def tree_of(*edges):
    return SpanningTree(frozenset(edges), directed=False)


# ---------------------------------------------------------------------------
# enumeration vs brute force
# ---------------------------------------------------------------------------

def test_cycles_match_oracle_everywhere():
    for g in bundled_graphs() + random_graphs(seed=11, count=10):
        got = {c.edges for c in enumerate_cycles(g)}
        assert got == set(oracle_cycles(g))


def test_paths_match_oracle_everywhere():
    for g in bundled_graphs() + random_graphs(seed=12, count=10):
        got = {p.edges for p in enumerate_paths(g)}
        assert got == set(oracle_paths(g))


def test_trees_match_oracle_everywhere():
    for g in bundled_graphs() + random_graphs(seed=13, count=10) + [multigraph()]:
        got = [t.edges for t in enumerate_spanning_trees(g)]
        assert got == oracle_spanning_trees(g)  # same canonical order


def test_two_edge_cycle(two_edge):
    cycles = enumerate_cycles(two_edge)
    assert len(cycles) == 1
    assert cycles[0].edges == frozenset({"e1", "e2"})
    assert not cycles[0].directed


def test_triangle_cycles(triangle):
    cycles = enumerate_cycles(triangle)
    assert [sorted(c.edges) for c in cycles] == [
        ["e1", "e2"], ["e1", "e3", "e4"], ["e2", "e3", "e4"]]
    directed = [c for c in cycles if c.directed]
    assert [sorted(c.edges) for c in directed] == [["e1", "e2"]]


def test_cycle_canonical_orientation():
    for g in bundled_graphs() + random_graphs(seed=14, count=6):
        for c in enumerate_cycles(g):
            assert c.sign(min(c.edges)) == +1


def test_tree_subgraphs_have_no_cycles(triangle):
    for t in enumerate_spanning_trees(triangle):
        assert genus(triangle, t.edges) == 0


def test_two_edge_paths(two_edge):
    paths = enumerate_paths(two_edge)
    assert [sorted(p.edges) for p in paths] == [["e1"], ["e2"]]
    assert all(p.directed for p in paths)


def test_triangle_paths(triangle):
    paths = {frozenset(p.edges): p for p in enumerate_paths(triangle)}
    assert set(paths) == {frozenset({"e3"}), frozenset({"e1", "e4"}),
                          frozenset({"e2", "e4"})}
    assert paths[frozenset({"e2", "e4"})].sign("e2") == -1
    assert paths[frozenset({"e2", "e4"})].sign("e4") == +1


def test_chain_single_path(chain):
    assert len(enumerate_paths(chain)) == 1


def test_triangle_trees(triangle):
    trees = enumerate_spanning_trees(triangle)
    assert len(trees) == 5
    directed = enumerate_spanning_trees(triangle, directed_only=True)
    assert {t.edges for t in directed} == {
        frozenset({"e3", "e4"}), frozenset({"e1", "e4"}), frozenset({"e2", "e3"})}


def test_two_edge_trees(two_edge):
    trees = enumerate_spanning_trees(two_edge, directed_only=True)
    assert [sorted(t.edges) for t in trees] == [["e1"], ["e2"]]


# ---------------------------------------------------------------------------
# fundamental cycles and tree paths
# ---------------------------------------------------------------------------

def test_fundamental_cycle_two_edge(two_edge):
    c = fundamental_cycle(two_edge, tree_of("e1"), "e2")
    assert c.sign("e2") == +1 and c.sign("e1") == -1


def test_fundamental_cycle_triangle(triangle):
    t = tree_of("e3", "e4")
    c1 = fundamental_cycle(triangle, t, "e1")
    assert (c1.sign("e1"), c1.sign("e4"), c1.sign("e3")) == (1, 1, -1)
    c2 = fundamental_cycle(triangle, t, "e2")
    assert (c2.sign("e2"), c2.sign("e3"), c2.sign("e4")) == (1, 1, -1)


def test_fundamental_cycle_rejects_tree_edge(triangle):
    with pytest.raises(ValueError):
        fundamental_cycle(triangle, tree_of("e3", "e4"), "e3")


def test_tree_path_triangle(triangle):
    assert tree_path(triangle, tree_of("e3", "e4")).edges == frozenset({"e3"})
    p = tree_path(triangle, tree_of("e1", "e4"))
    assert p.edges == frozenset({"e1", "e4"})
    assert all(s == 1 for s in p.signs.values())
    assert tree_path(triangle, tree_of("e2", "e3")).edges == frozenset({"e3"})


def _walk_vertices(g, signs, start):
    """The vertices of the walk that traverses the sign map's edges in key order
    from `start`, or None if some edge does not leave the vertex reached."""
    walk = [start]
    for eid, s in signs.items():
        e = g.edge_by_id[eid]
        tail, head = (e.tail, e.head) if s == +1 else (e.head, e.tail)
        if tail != walk[-1]:
            return None
        walk.append(head)
    return walk


def test_sign_maps_trace_their_walks_in_order():
    # SignedEdgeSet.form adds its terms in sign-map order, so the order is output
    graphs = (bundled_graphs() + random_graphs(seed=15, count=10)
              + [complete_graph(3), complete_graph(4)])
    for g in graphs:
        for p in enumerate_paths(g):
            walk = _walk_vertices(g, p.signs, g.base)
            assert walk is not None and walk[-1] == g.cemetery, (g.edge_ids, p)
        for c in enumerate_cycles(g):
            # the closed walk found first from the cycle's smallest vertex leaves
            # it by the cycle's first edge there in graph order; the flip to the
            # canonical orientation negates the signs in place
            ends = [v for eid in c.edges for v in (g.edge_by_id[eid].tail, g.edge_by_id[eid].head)]
            start = min(ends)
            first = next(e.id for e in g.edges if e.id in c.edges and start in (e.tail, e.head))
            assert next(iter(c.signs)) == first, (g.edge_ids, c)
            walks = [_walk_vertices(g, signs, start)
                     for signs in (c.signs, {k: -v for k, v in c.signs.items()})]
            assert any(w is not None and w[-1] == start for w in walks), (g.edge_ids, c)
        for t in tree_basis(g):
            walk = _walk_vertices(g, tree_path(g, t).signs, g.base)
            assert walk is not None and walk[-1] == g.cemetery, (g.edge_ids, t)
            for e0 in cotree(g, t):
                cyc = fundamental_cycle(g, t, e0)
                assert next(iter(cyc.signs)) == e0
                start = g.edge_by_id[e0].tail
                walk = _walk_vertices(g, cyc.signs, start)
                assert walk is not None and walk[-1] == start, (g.edge_ids, t, e0)


# ---------------------------------------------------------------------------
# genus
# ---------------------------------------------------------------------------

def test_genus_triangle(triangle):
    assert genus(triangle, {"e1", "e2"}) == 1
    assert genus(triangle, triangle.edge_ids) == 2
    assert genus(triangle, {"e3", "e4"}) == 0


def test_genus_matches_cycle_indicator_rank():
    # the reference definition: rank of the signed indicators of the cycles in S
    for g in bundled_graphs() + random_graphs(seed=23, count=8):
        ids = sorted(g.edge_ids)
        cycles = enumerate_cycles(g)
        for r in range(len(ids) + 1):
            for subset in combinations(ids, r):
                inside = [c for c in cycles if c.edges <= set(subset)]
                rank = mat_rank([[c.sign(eid) for eid in ids] for c in inside])
                assert genus(g, subset) == rank, (g.edge_ids, subset)


def test_genus_formula_property():
    # rank of cycle indicators == |S| - |V(S)| + #components
    rng = np.random.default_rng(21)
    for g in bundled_graphs() + random_graphs(seed=22, count=8):
        ids = sorted(g.edge_ids)
        for _ in range(20):
            take = rng.random(len(ids)) < 0.5
            subset = [eid for eid, k in zip(ids, take) if k]
            verts = set()
            for eid in subset:
                e = g.edge_by_id[eid]
                verts |= {e.tail, e.head}
            comps = _components(g, subset)
            expected = len(subset) - len(verts) + comps if subset else 0
            assert genus(g, subset) == expected


def _components(g, subset):
    adj = {}
    for eid in subset:
        e = g.edge_by_id[eid]
        adj.setdefault(e.tail, set()).add(e.head)
        adj.setdefault(e.head, set()).add(e.tail)
    seen, comps = set(), 0
    for v in adj:
        if v in seen:
            continue
        comps += 1
        stack = [v]
        while stack:
            u = stack.pop()
            if u not in seen:
                seen.add(u)
                stack.extend(adj[u] - seen)
    return comps


# the incidence kernel against the union-find oracle
PAIR_GRAPHS = {**dict(zip(("two-edge", "triangle", "two-diamond", "chain"), bundled_graphs())),
               **{f"random{k}": g for k, g in enumerate(random_graphs(seed=24, count=10))},
               "K3": complete_graph(3), "K4": complete_graph(4), "multigraph": multigraph()}


@pytest.mark.parametrize("g", list(PAIR_GRAPHS.values()), ids=list(PAIR_GRAPHS))
def test_pair_genus_matches_union_find(g):
    """The genus of the union of every pair of cycles and paths, both orders."""
    sets = [s.edges for s in enumerate_cycles(g) + enumerate_paths(g)]
    rows = edge_indicators(g, sets)
    assert pair_genus(g, rows).tolist() == [[oracle_genus(g, x | y) for y in sets]
                                            for x in sets]


@pytest.mark.parametrize("g", [complete_graph(3), complete_graph(4), multigraph()],
                         ids=["K3", "K4", "multigraph"])
def test_is_spanning_tree_matches_union_find(g):
    n = len(g.vertices) - 1
    for subset in combinations(g.edge_ids, n):
        assert is_spanning_tree(g, subset) == (oracle_genus(g, subset) == 0), subset


@pytest.mark.parametrize("g", list(PAIR_GRAPHS.values()), ids=list(PAIR_GRAPHS))
def test_matrix_tree_counts_match_the_union_find_enumeration(g):
    """Kirchhoff's and Tutte's determinants count the spanning trees that the
    union-find oracle finds and those of them whose edges leave distinct
    interior vertices."""
    trees = oracle_spanning_trees(g)
    tails = [{g.edge_by_id[e].tail for e in t} for t in trees]
    directed = [t for t, x in zip(trees, tails) if len(x) == len(t) and g.cemetery not in x]
    assert matrix_tree_counts(g) == (len(trees), len(directed))


def test_matrix_tree_counts_of_complete_digraphs():
    assert matrix_tree_counts(complete_graph(3)) == (49, 16)
    assert matrix_tree_counts(complete_graph(4)) == (729, 125)


def test_genus_matches_union_find_on_a_multigraph():
    g = multigraph()
    for r in range(len(g.edge_ids) + 1):
        for subset in combinations(g.edge_ids, r):
            assert genus(g, subset) == oracle_genus(g, subset), subset


# ---------------------------------------------------------------------------
# flow coordinates
# ---------------------------------------------------------------------------

def test_solve_tree_coordinates_triangle(triangle):
    t = tree_of("e3", "e4")
    z = oracle_tree_coordinates(triangle, t, {"e1": Fraction(1, 2), "e2": Fraction(1, 4)})
    assert z["e3"] == Fraction(3, 4) and z["e4"] == Fraction(1, 4)
    z = oracle_tree_coordinates(triangle, t, {"e1": 10, "e2": Fraction(19, 2)})
    assert z["e3"] == Fraction(1, 2) and z["e4"] == Fraction(1, 2)
    assert all(v > 0 for v in z.z.values())  # the chamber is unbounded along the cycle


def test_solve_tree_coordinates_two_edge(two_edge):
    z = oracle_tree_coordinates(two_edge, tree_of("e1"), {"e2": Fraction(1, 3)})
    assert z["e1"] == Fraction(2, 3)


def test_solve_tree_coordinates_divergence_exact():
    rng = np.random.default_rng(31)
    for g in bundled_graphs() + random_graphs(seed=32, count=6):
        for t in tree_basis(g)[:4]:
            u = {eid: Fraction(int(rng.integers(-20, 21)), 8) for eid in cotree(g, t)}
            z = oracle_tree_coordinates(g, t, u)
            div = divergence(g, z.z)
            assert div == {x: (1 if x == g.base else 0) for x in g.interior}
            for eid in cotree(g, t):
                assert z[eid] == u[eid]


def test_coordinate_map_matches_divergence_solve():
    # the path-plus-cycles chart equals the exact solve of div z = unit mass at
    # the base, Fraction entries and edge order included
    builtins = bundled_graphs()
    graphs = (builtins + [split_graph(g).graph for g in builtins]
              + random_graphs(seed=33, count=10) + [complete_graph(3)])
    for g in graphs:
        for t in tree_basis(g):
            free_ids, rows = tree_coordinate_map(g, t)
            expected_ids, expected = oracle_coordinate_map(g, t)
            assert free_ids == expected_ids
            assert list(rows.items()) == list(expected.items()), (g.edge_ids, t)
            for offset, coeffs in rows.values():
                assert all(type(x) is Fraction for x in (offset, *coeffs))


def test_solve_missing_coordinate(triangle):
    with pytest.raises(KeyError):
        oracle_tree_coordinates(triangle, tree_of("e3", "e4"), {"e1": 1})


# ---------------------------------------------------------------------------
# arrangement bases
# ---------------------------------------------------------------------------

def test_basis_iff_tree_complement():
    from itertools import combinations

    for g in bundled_graphs() + random_graphs(seed=51, count=6):
        d = len(g.edge_ids) - len(g.interior)
        complements = {frozenset(set(g.edge_ids) - t.edges)
                       for t in enumerate_spanning_trees(g)}
        for combo in combinations(sorted(g.edge_ids), d):
            assert coordinate_family_is_basis(g, combo) == (frozenset(combo) in complements)


def test_basis_rejects_wrong_size(triangle):
    assert not coordinate_family_is_basis(triangle, ["e1"])
    assert not coordinate_family_is_basis(triangle, ["e1", "e2", "e3"])
