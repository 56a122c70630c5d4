from dataclasses import replace
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from dirichlet_flows import (
    DirichletWeights,
    ExcludedLocusError,
    build_connection,
    check_commutation,
    check_flatness,
    connection_coefficients,
    enumerate_cycles,
    enumerate_paths,
    integral_vector,
    split_graph,
    transport,
    tree_basis,
)
from dirichlet_flows import connection, rationals
from dirichlet_flows.cli import main
from dirichlet_flows.connection import (
    _cycle_flats,
    flatness_certificate,
    sample_rates_off_kernels,
    solve_ivp,
)
from dirichlet_flows.combinatorics import edge_indicators, pair_genus
from dirichlet_flows.combinatorics import SignedEdgeSet
from dirichlet_flows.graphs import DirectedGraph, Edge
from dirichlet_flows.rationals import int_table

from conftest import (
    broken_connection,
    bundled_graphs,
    complete_graph,
    multigraph,
    oracle_combine,
    oracle_commutes,
    oracle_flatness,
    oracle_genus,
    oracle_matmul,
    oracle_numeric_matrices,
    oracle_operators,
    oracle_term_matrices,
    random_graphs,
    random_rational_weights,
    table_matrices,
)


def figure_eight():
    # two 2-cycles sharing only the base vertex; genus of the union is 2
    return DirectedGraph(
        ("x0", "a", "b", "delta"), "delta", "x0",
        (Edge("f1", "x0", "a", Fraction(1)), Edge("f2", "a", "x0", Fraction(2)),
         Edge("f3", "x0", "b", Fraction(3)), Edge("f4", "b", "x0", Fraction(1)),
         Edge("f5", "x0", "delta", Fraction(1))),
    )


# ---------------------------------------------------------------------------
# linear forms
# ---------------------------------------------------------------------------

def test_linear_form_two_edge_cycle(two_edge):
    cyc = enumerate_cycles(two_edge)[0]
    # the same cycle, oriented so that e2 gets +1
    cyc = SignedEdgeSet(cyc.edges, {eid: s * cyc.sign("e2") for eid, s in cyc.signs.items()},
                        cyc.kind)
    assert cyc.form({"e1": 3, "e2": 10}) == 7  # lam2 - lam1


def test_linear_form_triangle_path(triangle):
    paths = {frozenset(p.edges): p for p in enumerate_paths(triangle)}
    # -lam2 + lam4
    assert paths[frozenset({"e2", "e4"})].form({"e1": 0, "e2": 5, "e3": 0, "e4": 2}) == -3
    assert paths[frozenset({"e3"})].form({"e1": 0, "e2": 0, "e3": 4, "e4": 0}) == 4


# ---------------------------------------------------------------------------
# the two operator families, in the integer term table
# ---------------------------------------------------------------------------

def _term_matrix(g, w, edges):
    """The term matrix with the given edge set, read from the table over L."""
    conn = build_connection(g, w)
    terms = [frozenset(t.edges) for t in conn.path_terms + conn.cycle_terms]
    return table_matrices(conn)[terms.index(frozenset(edges))]


def _random_weights(g, rng):
    """Random rational weights with denominators 1, 2, 3 and 7."""
    return {eid: Fraction(int(rng.integers(1, 13)), int(rng.choice([1, 2, 3, 7])))
            for eid in g.edge_ids}


TABLE_GRAPHS = bundled_graphs() + [complete_graph(3)] + random_graphs(seed=33, count=8)


@pytest.mark.parametrize("k", range(len(TABLE_GRAPHS)))
def test_table_matches_term_oracle(k):
    """The table over L equals the term matrices built from their definitions,
    term by term, at the graph's weights and at random rational weights with
    denominators 1, 2, 3 and 7, where L > 1 on a graph with a cycle; each
    term's entries are nonzero integers sorted by (row, col), and L is the lcm
    of the entries' denominators."""
    g = TABLE_GRAPHS[k]
    rng = np.random.default_rng(34 + k)
    for w in (DirichletWeights.from_graph(g).alpha, _random_weights(g, rng)):
        conn = build_connection(g, w)
        oracle = oracle_term_matrices(g, w)
        assert list(conn.path_terms + conn.cycle_terms) == [term for term, _ in oracle]
        assert table_matrices(conn) == [m for _, m in oracle]
        entries = [v for _, m in oracle for row in m for v in row if v]
        assert conn.scale == lcm(*(v.denominator for v in entries))
        for t in range(len(oracle)):
            rows, cols, values = (part.tolist() for part in conn.table.matrix(t))
            assert all(values) and list(zip(rows, cols)) == sorted(set(zip(rows, cols)))
    if conn.cycle_terms:
        assert conn.scale > 1


def test_omega_path_triangle_diagonal(triangle):
    dense = _term_matrix(triangle, DirichletWeights.from_graph(triangle), {"e3"})
    diag = [dense[i][i] for i in range(5)]
    assert diag == [1, 0, 1, 0, 1]  # basis order: e1e3, e1e4, e2e3, e2e4, e3e4
    assert all(dense[i][j] == 0 for i in range(5) for j in range(5) if i != j)


def test_omega_path_idempotent_everywhere():
    for g in bundled_graphs():
        conn = build_connection(g, DirichletWeights.from_graph(g))
        for m in table_matrices(conn)[:len(conn.path_terms)]:
            assert oracle_matmul(m, m) == m


def test_omega_path_chain_identity(chain):
    conn = build_connection(chain, DirichletWeights.from_graph(chain))
    assert conn.size == 1 and table_matrices(conn) == [[[Fraction(1)]]]


def test_omega_cycle_two_edge_matrix(two_edge):
    m = _term_matrix(two_edge, {"e1": 3, "e2": 5}, {"e1", "e2"})
    # basis (f_{e1}, f_{e2}); the swap signs are orientation-invariant
    assert m == [[Fraction(5), Fraction(-5)], [Fraction(-3), Fraction(3)]]


def test_omega_cycle_triangle_columns(triangle):
    w = {eid: Fraction(k + 2) for k, eid in enumerate(triangle.edge_ids)}
    m = _term_matrix(triangle, w, {"e1", "e2"})
    # column of tree {e1,e3}: alpha2 at itself, alpha1 at {e2,e3}
    assert m[0][0] == w["e2"] and m[2][0] == w["e1"]
    # column of tree {e3,e4} is zero: two cycle edges are missing
    assert all(m[i][4] == 0 for i in range(5))


def test_omega_cycle_scaled_projector_identity():
    # squared cycle operator equals (total cycle weight) times itself
    rng = np.random.default_rng(31)
    for g in bundled_graphs() + random_graphs(seed=32, count=8):
        w = random_rational_weights(g, rng)
        conn = build_connection(g, w)
        for c, m in zip(conn.cycle_terms, table_matrices(conn)[len(conn.path_terms):]):
            total = sum((w[eid] for eid in c.edges), Fraction(0))
            assert oracle_matmul(m, m) == oracle_combine((total, m))


# ---------------------------------------------------------------------------
# assembled connection
# ---------------------------------------------------------------------------

def test_build_connection_shapes(two_edge, triangle, chain):
    c1 = build_connection(two_edge, DirichletWeights.from_graph(two_edge))
    assert len(c1.path_terms) == 2 and len(c1.cycle_terms) == 1 and c1.size == 2
    c2 = build_connection(triangle, DirichletWeights.from_graph(triangle))
    assert len(c2.path_terms) == 3 and len(c2.cycle_terms) == 3 and c2.size == 5
    c3 = build_connection(chain, DirichletWeights.from_graph(chain))
    assert len(c3.path_terms) == 1 and len(c3.cycle_terms) == 0


def test_connection_coefficients_two_edge(two_edge):
    w = DirichletWeights.from_graph(two_edge)
    conn = build_connection(two_edge, w)
    mats = connection_coefficients(conn, {"e1": 1, "e2": 2})
    sigma1 = _term_matrix(two_edge, w, {"e1"})
    sigma2 = _term_matrix(two_edge, w, {"e2"})
    qc = _term_matrix(two_edge, w, {"e1", "e2"})
    assert mats[0] == oracle_combine((1, sigma1), (-1, qc))
    assert mats[1] == oracle_combine((1, sigma2), (1, qc))


def test_connection_coefficients_chain_constant(chain):
    conn = build_connection(chain, DirichletWeights.from_graph(chain))
    a = connection_coefficients(conn, {"e1": 1, "e2": 2})
    b = connection_coefficients(conn, {"e1": 7, "e2": 11})
    assert a == b


def test_connection_coefficients_excluded_locus(two_edge):
    conn = build_connection(two_edge, DirichletWeights.from_graph(two_edge))
    with pytest.raises(ExcludedLocusError, match="e1"):
        connection_coefficients(conn, {"e1": 2, "e2": 2})


# ---------------------------------------------------------------------------
# commutation relations
# ---------------------------------------------------------------------------

def test_commutation_bundled_graphs():
    for g in bundled_graphs():
        rep = check_commutation(g, DirichletWeights.from_graph(g))
        assert rep["pass"], [it for it in rep["items"] if not it["ok"]]


def test_commutation_triangle_has_triple_and_pair(triangle):
    rep = check_commutation(triangle, DirichletWeights.from_graph(triangle))
    assert sum(it["relation"] == "iv" for it in rep["items"]) == 3
    assert sum(it["relation"] == "v" for it in rep["items"]) >= 1
    assert rep["pass"]


def test_commutation_disjoint_cycles(two_diamond):
    rep = check_commutation(two_diamond, DirichletWeights.from_graph(two_diamond))
    claimed_pairs = [it for it in rep["items"] if it["relation"] == "i" and it["claimed"]]
    assert claimed_pairs and all(it["commutes"] for it in claimed_pairs)
    assert rep["pass"]


def test_commutation_edge_disjoint_sharing_vertex():
    # two cycles through the same vertex but no shared edge commute
    g = figure_eight()
    rep = check_commutation(g, DirichletWeights.from_graph(g))
    pair_items = [it for it in rep["items"] if it["relation"] == "i"]
    assert pair_items and all(it["claimed"] and it["commutes"] for it in pair_items)
    assert rep["pass"]


def test_commutation_random_graphs():
    rng = np.random.default_rng(41)
    for g in random_graphs(seed=42, count=10):
        w = random_rational_weights(g, rng)
        rep = check_commutation(g, w)
        assert rep["pass"], [it for it in rep["items"] if not it["ok"]]


def _flags_match_oracle(g, w):
    """Every item's commutation flag against dense products; its claim and
    its members against the union-find genus of the members' union."""
    rep = check_commutation(g, w)
    ops = oracle_operators(g, w)
    for it in rep["items"]:
        assert it["commutes"] == oracle_commutes(ops, w, it), it
        sets = [frozenset(m.split(",")) for m in it["members"]]
        if it["relation"] in ("i", "iii"):
            disjoint = not sets[0] & sets[1]
            claimed_genus = 2 if it["relation"] == "i" else 1
            assert it["claimed"] == (disjoint or oracle_genus(g, sets[0] | sets[1])
                                     != claimed_genus), it
        elif it["relation"] == "iv":  # three cycles of a genus-2 union, then one of them
            assert oracle_genus(g, sets[0] | sets[1] | sets[2]) == 2 and sets[3] in sets[:3], it
        elif it["relation"] == "v":  # two paths of a genus-1 union, then its cycle
            assert oracle_genus(g, sets[0] | sets[1]) == 1 and sets[2] <= sets[0] | sets[1], it
    return rep


def test_commutation_flags_match_dense_oracle():
    rng = np.random.default_rng(43)
    for g in bundled_graphs() + [multigraph()]:
        _flags_match_oracle(g, DirichletWeights.from_graph(g).alpha)
    for g in random_graphs(seed=44, count=10):
        _flags_match_oracle(g, random_rational_weights(g, rng))


def test_commutation_flags_match_dense_oracle_on_k3():
    g = complete_graph(3)
    rng = np.random.default_rng(45)
    choices = [Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2), Fraction(2)]
    w = {eid: choices[int(rng.integers(0, len(choices)))] for eid in g.edge_ids}
    rep = _flags_match_oracle(g, w)
    assert len(rep["items"]) == 1142 and rep["pass"]
    assert not all(it["commutes"] for it in rep["items"])


# weights with a denominator near 2^40: the scaled operators have entries
# near 2^41, so every product bound is past 2^63 and needs several primes
HUGE = {"e1": Fraction(1, 2**40 - 87), "e2": Fraction(3, 2), "e3": Fraction(5, 3),
        "e4": Fraction(2**40 + 1, 2**40 - 87)}


def test_commutation_past_int64_matches_oracle(triangle):
    scale = lcm(*(a.denominator for a in HUGE.values()))
    assert (scale * max(HUGE.values())) ** 2 > 2**63
    assert _flags_match_oracle(triangle, HUGE)["pass"]


# ---------------------------------------------------------------------------
# flatness
# ---------------------------------------------------------------------------

def _flipped(conn, which=0):
    """conn with the sign of one edge of its path term `which` flipped."""
    terms = list(conn.path_terms)
    path = terms[which]
    eid = sorted(path.edges)[0]
    terms[which] = SignedEdgeSet(path.edges, {**path.signs, eid: -path.signs[eid]}, path.kind)
    return replace(conn, path_terms=tuple(terms))


def _rates_off_kernels(conn, rng, denominators):
    """Rates k/d with each edge's d drawn from denominators, off every kernel."""
    while True:
        lam = {eid: Fraction(int(rng.integers(1, 8 * d + 1)), int(d))
               for eid, d in zip(conn.edge_ids, rng.choice(denominators, len(conn.edge_ids)))}
        try:
            conn.check_membership(lam)
            return lam
        except ExcludedLocusError:
            continue


def _assert_matches_oracle(conn, samples) -> list[Fraction]:
    """check_flatness of conn reads 0, and of its flipped and broken copies the
    oracle's residual; returns those residuals."""
    assert check_flatness(conn, samples) == 0 == oracle_flatness(conn, samples)
    variants = [_flipped(conn)] if conn.path_terms else []
    if conn.cycle_terms:
        variants += [broken_connection(conn), broken_connection(conn, Fraction(-3, 2), len(conn.cycle_terms) - 1)]
    residuals = [check_flatness(variant, samples) for variant in variants]
    assert residuals == [oracle_flatness(variant, samples) for variant in variants]
    return residuals


FLATNESS_GRAPHS = bundled_graphs() + random_graphs(seed=54, count=5)


@pytest.mark.parametrize("k", range(len(FLATNESS_GRAPHS)))
def test_flatness_matches_oracle(k):
    """Exact flatness equals the dense oracle on the builtins and on random
    graphs at random rational weights: 0 when flat, the oracle's residual when
    an operator entry or a path sign is broken."""
    g = FLATNESS_GRAPHS[k]
    rng = np.random.default_rng(55 + k)
    conn = build_connection(g, random_rational_weights(g, rng))
    _assert_matches_oracle(conn, [sample_rates_off_kernels(conn, rng) for _ in range(3)])


def test_flipped_path_sign_is_not_flat(triangle, two_diamond):
    for g in (triangle, two_diamond):
        conn = build_connection(g, DirichletWeights.from_graph(g))
        rng = np.random.default_rng(56)
        samples = [sample_rates_off_kernels(conn, rng) for _ in range(2)]
        assert check_flatness(_flipped(conn), samples) == oracle_flatness(_flipped(conn), samples) != 0


def test_flatness_matches_oracle_on_k3():
    g = complete_graph(3)
    rng = np.random.default_rng(57)
    choices = [Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2), Fraction(2)]
    conn = build_connection(g, {eid: choices[int(rng.integers(0, 5))] for eid in g.edge_ids})
    samples = [sample_rates_off_kernels(conn, rng)]
    assert check_flatness(conn, samples) == 0
    broken = broken_connection(conn, Fraction(1, 3), 7)
    residual = check_flatness(broken, samples)
    assert residual != 0 and residual == oracle_flatness(broken, samples)


def test_k3_checks_do_not_depend_on_the_chunks(monkeypatch):
    """K3 commutation flags and flatness residuals, of the connection and of a
    broken copy, are the same when every chunk of combinations and of quads
    is cut as small as it goes.  Flatness sends one sample per kernel call;
    the samples' common denominators differ, so each call's peaks must be
    scaled by the denominators of its own sample."""
    g = complete_graph(3)
    w = {eid: Fraction(1 + k % 4, 3) for k, eid in enumerate(g.edge_ids)}
    conn = build_connection(g, w)
    rng = np.random.default_rng(61)
    samples = [_rates_off_kernels(conn, rng, d) for d in ([16], [3], [7], [16, 3, 7])]
    assert len({lcm(*(v.denominator for v in lam.values())) for lam in samples}) == 4
    broken = broken_connection(conn, Fraction(1, 3), 7)

    def checks():
        return (check_commutation(g, w), check_flatness(conn, samples),
                check_flatness(broken, samples))

    expected = checks()
    assert expected[1] == 0 != expected[2]
    assert not all(it["commutes"] for it in expected[0]["items"])
    monkeypatch.setattr(rationals, "_CHUNK_CAP", 1)
    assert checks() == expected


def test_flatness_calls_the_kernel_once_per_sample(monkeypatch, triangle):
    """Each sample is one call of the residue kernel, whose combinations are
    that sample's N_e, one integer per term in proportion to the weights of
    `ConnectionForm.terms`: 100 samples of a builtin, 4 and 60 of K3."""
    calls = []

    def spy(table, n, combos, quads, **kwargs):
        calls.append(combos)
        return rationals.residue_peaks(table, n, combos, quads, **kwargs)

    monkeypatch.setattr(connection, "residue_peaks", spy)
    for g, count in ((triangle, 100), (complete_graph(3), 4), (complete_graph(3), 60)):
        conn = build_connection(g, DirichletWeights.from_graph(g))
        rng = np.random.default_rng(63)
        samples = [sample_rates_off_kernels(conn, rng) for _ in range(count)]
        calls.clear()
        assert check_flatness(conn, samples) == 0
        assert len(calls) == count
        for combos, lam in zip(calls, samples):
            assert len(combos) == len(conn.edge_ids)
            for (ks, coef), eid in zip(combos, conn.edge_ids):
                weights = list(conn.terms(eid, lam))
                assert ks == [k for _, k in weights]
                assert all(type(c) is int for c in coef)
                assert [Fraction(c, coef[0]) for c in coef] == [
                    Fraction(w) / weights[0][0] for w, _ in weights]


@pytest.mark.parametrize("count", [1, 40])
def test_flatness_sample_list_lengths(two_diamond, count):
    conn = build_connection(two_diamond, random_rational_weights(two_diamond,
                                                                 np.random.default_rng(58)))
    rng = np.random.default_rng(59 + count)
    assert all(_assert_matches_oracle(conn, [sample_rates_off_kernels(conn, rng)
                                             for _ in range(count)]))


@pytest.mark.parametrize("graph", ["triangle", "two-diamond"])
def test_flatness_mixed_denominators(request, graph):
    """Rates k/16, k/3 and k/7 in one sample: their common denominator is 336."""
    g = request.getfixturevalue(graph.replace("-", "_"))
    conn = build_connection(g, DirichletWeights.from_graph(g))
    rng = np.random.default_rng(60)
    samples = [_rates_off_kernels(conn, rng, [16, 3, 7]) for _ in range(6)]
    assert any(len({v.denominator for v in lam.values()}) == 3 for lam in samples)
    # rates given as strings are read as the Fractions they spell
    samples.append({eid: str(v) for eid, v in samples[0].items()})
    assert all(_assert_matches_oracle(conn, samples))


@pytest.mark.parametrize("graph", ["triangle", "two-diamond"])
def test_broken_connection_fails_with_the_exact_residual(request, graph):
    g = request.getfixturevalue(graph.replace("-", "_"))
    conn = build_connection(g, DirichletWeights.from_graph(g))
    rng = np.random.default_rng(52)
    samples = [sample_rates_off_kernels(conn, rng) for _ in range(3)]
    assert check_flatness(conn, samples) == 0
    broken = broken_connection(conn)
    residual = check_flatness(broken, samples)
    assert residual != 0 and residual == oracle_flatness(broken, samples)


def test_flatness_past_int64_matches_oracle(triangle):
    conn = build_connection(triangle, HUGE)
    rng = np.random.default_rng(53)
    samples = [sample_rates_off_kernels(conn, rng) for _ in range(3)]
    assert check_flatness(conn, samples) == 0 == oracle_flatness(conn, samples)
    broken = broken_connection(conn)
    residual = check_flatness(broken, samples)
    assert residual != 0 and residual == oracle_flatness(broken, samples)
    _assert_matches_oracle(conn, samples + [_rates_off_kernels(conn, rng, [16, 3, 7])])


def test_flatness_reads_numpy_integer_rates_exactly(triangle):
    """Rates whose Fractions hold numpy integers give the residual of the same
    rates in Python integers, though L^2 times their forms is past int64."""
    conn = broken_connection(build_connection(triangle, HUGE))
    rates = {"e1": (97, 16), "e2": (1, 3), "e3": (87, 7), "e4": (44, 7)}
    exact = [{eid: Fraction(n, d) for eid, (n, d) in rates.items()}]
    numpy_ints = [{eid: Fraction(np.int64(n), np.int64(d)) for eid, (n, d) in rates.items()}]
    residual = check_flatness(conn, exact)
    assert residual == oracle_flatness(conn, exact) != 0
    assert check_flatness(conn, numpy_ints) == residual


def test_flatness_of_no_sample_is_zero(triangle):
    assert check_flatness(build_connection(triangle, HUGE), []) == 0


def test_sampled_rates_are_the_fraction_tests(triangle, two_diamond):
    """The integer exclusion test accepts the candidates the Fraction forms
    accept, with the same draws: the rates are the parent's."""
    for g in (triangle, two_diamond, complete_graph(3)):
        conn = build_connection(g, DirichletWeights.from_graph(g))
        rng, ref = np.random.default_rng(61), np.random.default_rng(61)
        for _ in range(20):
            while True:
                lam = {eid: Fraction(int(ref.integers(1, 129)), 16) for eid in conn.edge_ids}
                if all(cyc.form(lam) != 0 for cyc in conn.cycle_terms):
                    break
            assert sample_rates_off_kernels(conn, rng) == lam


def test_flatness_is_an_exact_zero(triangle):
    conn = build_connection(triangle, DirichletWeights.from_graph(triangle))
    rng = np.random.default_rng(51)
    samples = [sample_rates_off_kernels(conn, rng) for _ in range(25)]
    residual = check_flatness(conn, samples)
    assert isinstance(residual, Fraction) and residual == 0


def test_flatness_chain_trivial(chain):
    conn = build_connection(chain, DirichletWeights.from_graph(chain))
    assert check_flatness(conn, [{"e1": Fraction(1), "e2": Fraction(2)}]) == 0


def test_flatness_membership_failure(two_edge):
    conn = build_connection(two_edge, DirichletWeights.from_graph(two_edge))
    with pytest.raises(ExcludedLocusError):
        check_flatness(conn, [{"e1": Fraction(1), "e2": Fraction(1)}])


# ---------------------------------------------------------------------------
# the flatness certificate against the sampled checks
# ---------------------------------------------------------------------------

def _same_verdicts(conn, samples, oracle=True) -> bool:
    """The certificate, check_flatness at the samples and (unless oracle is
    false) the dense oracle at the first sample give one verdict; returns it,
    True for flat."""
    flat = not flatness_certificate(conn)["failed"]
    assert (check_flatness(conn, samples) == 0) == flat
    if oracle:
        assert (oracle_flatness(conn, samples[:1]) == 0) == flat
    return flat


def _mutated(conn, term, kind):
    """conn with the middle entry (i, j, v) of table term `term` changed:
    "plus one" makes it v + 1, "sign" -v, and "move" moves it to (i', j), i'
    the next row after i, cyclically, where the term has no entry in column j;
    None when there is no such row."""
    mats = [dict(((i, j), v) for i, j, v in zip(*(part.tolist() for part in conn.table.matrix(k))))
            for k in range(len(conn.table.ptr) - 1)]
    entries = mats[term]
    (i, j), v = sorted(entries.items())[len(entries) // 2]
    if kind == "plus one":
        entries[i, j] = v + 1
    elif kind == "sign":
        entries[i, j] = -v
    else:
        row = next(((i + d) % conn.size for d in range(1, conn.size)
                    if ((i + d) % conn.size, j) not in entries), None)
        if row is None:
            return None
        entries[row, j] = entries.pop((i, j))
    mats = [tuple(zip(*((i, j, v) for (i, j), v in sorted(m.items()) if v))) or ((), (), ())
            for m in mats]
    return replace(conn, table=int_table(mats))


@pytest.mark.parametrize("k", range(len(FLATNESS_GRAPHS) + 1))
def test_certificate_matches_sampled_oracle(k):
    """The certificate, check_flatness and the dense oracle agree on every
    builtin, on random graphs and on K3 at random rational weights: all find
    the connection flat, and all find its flipped and broken copies not flat
    on every graph with a cycle and more than two edges (on two-edge M_e1 +
    M_e2 = I whatever the terms, and without a cycle each M_e is diagonal)."""
    g = FLATNESS_GRAPHS[k] if k < len(FLATNESS_GRAPHS) else complete_graph(3)
    rng = np.random.default_rng(70 + k)
    conn = build_connection(g, random_rational_weights(g, rng))
    samples = [sample_rates_off_kernels(conn, rng) for _ in range(3)]
    assert _same_verdicts(conn, samples)
    variants = [_flipped(conn)]
    if conn.cycle_terms:
        variants += [broken_connection(conn),
                     broken_connection(conn, Fraction(-3, 2), len(conn.cycle_terms) - 1)]
    verdicts = [_same_verdicts(variant, samples) for variant in variants]
    assert not any(verdicts) or not conn.cycle_terms or len(g.edge_ids) == 2


MUTATION_GRAPHS = bundled_graphs() + random_graphs(seed=71, count=4) + [complete_graph(3)]


@pytest.mark.parametrize("k", range(len(MUTATION_GRAPHS)))
def test_certificate_matches_sampled_oracle_on_table_mutations(k):
    """One table entry changed (plus one, sign flipped, or moved to another
    row) in the first path term, in the first and last cycle terms and in the
    middle term: the certificate and the sampled checks give one verdict on
    every mutation, and some mutations of every graph with a cycle and more
    than two edges are not flat.  On K3 the dense oracle runs on the first
    cycle term's mutations only."""
    g = MUTATION_GRAPHS[k]
    conn = build_connection(g, random_rational_weights(g, np.random.default_rng(72 + k)))
    rng = np.random.default_rng(73 + k)
    k3 = len(g.edge_ids) > 8
    samples = [sample_rates_off_kernels(conn, rng) for _ in range(3)]
    n_paths, n_terms = len(conn.path_terms), len(conn.table.ptr) - 1
    terms = sorted({0, n_paths, n_terms - 1, n_terms // 2} - {n_terms})
    mutations = [(t, _mutated(conn, t, kind)) for t in terms
                 for kind in ("plus one", "sign", "move")]
    verdicts = [_same_verdicts(mutated, samples, oracle=not k3 or t == n_paths)
                for t, mutated in mutations if mutated is not None]
    assert not all(verdicts) or not conn.cycle_terms or len(g.edge_ids) == 2


def test_certificate_identity_counts(triangle):
    """Triangle: 6 edge pairs, 3 cycles x 3 edges off their pivot, and its
    three cycles form one flat of three.  K3: 36 edge pairs, 29 cycles x 8
    edges, and 406 Kohno relations, one per pair of cycles (a flat of three
    holds three pairs and gives three).  K4: 120, 3 630 and 29 161."""
    expected = [(triangle, (6, 9, 3)), (complete_graph(3), (36, 232, 406)),
                (complete_graph(4), (120, 3630, 29161))]
    for g, counts in expected:
        certificate = flatness_certificate(build_connection(g, DirichletWeights.from_graph(g)))
        assert certificate == {"identities": dict(zip(("degree 0", "degree -1", "degree -2"),
                                                      counts)),
                               "failed": []}


def test_certificate_decides_degree_zero(two_edge):
    """The degree 0 identities decide a table whose path terms do not
    commute: on two-edge with its cycle term emptied and an entry added off
    the diagonal of the first path term, every identity of degree -1 and -2
    holds, the one of degree 0 fails, and the sampled checks agree that the
    connection is not flat."""
    conn = build_connection(two_edge, DirichletWeights.from_graph(two_edge))
    assert conn.size == 2 and len(conn.path_terms) == 2 and len(conn.cycle_terms) == 1
    first = [part.tolist() for part in conn.table.matrix(0)]
    mats = [tuple(zip(*sorted([*zip(*first), (0, 1, conn.scale)])))]
    mats += [[part.tolist() for part in conn.table.matrix(1)], ((), (), ())]
    conn = replace(conn, table=int_table(mats))
    assert flatness_certificate(conn)["failed"] == [{"degree": 0, "edges": ["e1", "e2"]}]
    assert not _same_verdicts(conn, [sample_rates_off_kernels(conn, np.random.default_rng(75))])


def test_certificate_names_the_failing_identities(triangle):
    """Adding 1/7 to one entry of the first cycle term breaks identities of
    that cycle only: no degree 0 identity, and every failed one names it."""
    conn = build_connection(triangle, DirichletWeights.from_graph(triangle))
    failed = flatness_certificate(broken_connection(conn))["failed"]
    cycle = ",".join(sorted(conn.cycle_terms[0].edges))
    assert failed and all(f["degree"] != 0 for f in failed)
    assert all(f["cycle"] == cycle or cycle in f.get("flat", ()) for f in failed)


@pytest.mark.parametrize("g", [*bundled_graphs(), multigraph(), figure_eight(),
                               *random_graphs(seed=74, count=8), complete_graph(3),
                               complete_graph(4)])
def test_cycle_flats_are_the_spans_of_cycle_pairs(g):
    """A pair of cycles stands alone in its flat exactly when no third
    cycle's signed edge vector is plus or minus the sum or difference of the
    pair's, and the triples are exactly those of the pairs that span a third
    cycle, each flat once."""
    cycles = enumerate_cycles(g)
    vectors = [np.array([c.sign(e) for e in g.edge_ids]) for c in cycles]
    index = {tuple(sign * v): k for k, v in enumerate(vectors) for sign in (1, -1)}
    rows = edge_indicators(g, [c.edges for c in cycles])
    pairs, triples = _cycle_flats(rows, pair_genus(g, rows))
    spanned = set()
    assert [(a, b) for a, b, _ in pairs] == [(a, b) for a in range(len(cycles))
                                              for b in range(a + 1, len(cycles))]
    for a, b, alone in pairs:
        third = {index[key] for v in (vectors[a] + vectors[b], vectors[a] - vectors[b])
                 if (key := tuple(v)) in index}
        assert alone == (not third), (a, b)
        spanned |= {tuple(sorted({a, b} | third))} if third else set()
    assert len(triples) == len(set(triples)) and set(triples) == spanned


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

def _two_edge_split_system(two_edge):
    split = split_graph(two_edge)
    from dirichlet_flows.integrals import split_integrand_spec

    spec = split_integrand_spec(split, {"e1": 1.0, "e2": 2.0}, tree_basis(two_edge)[0])
    alpha = spec.alpha
    conn = build_connection(split.graph, alpha)
    return split, alpha, conn


def test_transport_constant_path(two_edge):
    split, alpha, conn = _two_edge_split_system(two_edge)
    lam = {"e1": 1.0, "e2": 2.0, "@x0": 0.0}
    start = np.array([1.0, 2.0])
    out = transport(conn, start, [lam, lam], tol=1e-12)
    assert np.allclose(out, start, atol=1e-12)


def test_transport_contractible_loop(two_edge):
    split, alpha, conn = _two_edge_split_system(two_edge)
    base = {"e1": 1.0, "e2": 2.0, "@x0": 0.0}
    start, errs, ok = integral_vector(split.graph, alpha, base, conn.basis)
    assert all(ok)
    loop = [base,
            {"e1": 1.3, "e2": 2.1, "@x0": 0.0},
            {"e1": 1.4, "e2": 2.9, "@x0": 0.0},
            {"e1": 0.9, "e2": 2.4, "@x0": 0.0},
            base]
    out = transport(conn, start, loop, tol=1e-11)
    assert np.abs(out - start).max() <= 10 * 1e-11 + 3 * errs.max()


def test_transport_matches_direct_integration(two_edge):
    split, alpha, conn = _two_edge_split_system(two_edge)
    lam_a = {"e1": 1.0, "e2": 2.0, "@x0": 0.0}
    lam_b = {"e1": 2.0, "e2": 1.0, "@x0": 0.0}
    mid = {"e1": 1.5 + 0.5j, "e2": 1.5 - 0.5j, "@x0": 0.0}
    start, errs_a, _ = integral_vector(split.graph, alpha, lam_a, conn.basis)
    out = transport(conn, start, [lam_a, mid, lam_b], tol=1e-11)
    direct, errs_b, _ = integral_vector(split.graph, alpha, lam_b, conn.basis)
    assert np.abs(out - direct).max() <= 3 * (errs_a.max() + errs_b.max()) + 1e-7
    assert np.abs(out.imag).max() < 1e-8


def test_transport_homotopic_paths_agree(two_edge):
    split, alpha, conn = _two_edge_split_system(two_edge)
    lam_a = {"e1": 1.0, "e2": 2.0, "@x0": 0.0}
    lam_b = {"e1": 2.0, "e2": 1.0, "@x0": 0.0}
    start, _, _ = integral_vector(split.graph, alpha, lam_a, conn.basis)
    route1 = [lam_a, {"e1": 1.5 + 0.5j, "e2": 1.5 - 0.5j, "@x0": 0.0}, lam_b]
    route2 = [lam_a, {"e1": 1.2 + 0.8j, "e2": 1.9 - 0.8j, "@x0": 0.0},
              {"e1": 1.7 + 0.4j, "e2": 1.3 - 0.4j, "@x0": 0.0}, lam_b]
    out1 = transport(conn, start, route1, tol=1e-11)
    out2 = transport(conn, start, route2, tol=1e-11)
    assert np.abs(out1 - out2).max() <= 1e-8


def test_transport_detects_kernel_crossing(two_edge):
    split, alpha, conn = _two_edge_split_system(two_edge)
    lam_a = {"e1": 1.0, "e2": 2.0, "@x0": 0.0}
    lam_b = {"e1": 2.0, "e2": 1.0, "@x0": 0.0}
    with pytest.raises(ExcludedLocusError):
        transport(conn, np.ones(2), [lam_a, lam_b])


def test_transport_rejects_negative_real_part(two_edge):
    split, alpha, conn = _two_edge_split_system(two_edge)
    with pytest.raises(ValueError, match="negative real part"):
        transport(conn, np.ones(2),
                  [{"e1": 1.0, "e2": 2.0, "@x0": 0.0},
                   {"e1": -1.0, "e2": 2.0, "@x0": 0.0}])


def _transport_stack(conn, lam) -> np.ndarray:
    """The transposed coefficient stack at float or complex rates, from the
    float terms transport reads, each weighted term added in term order."""
    vals = {k: complex(v) for k, v in lam.items()}
    cplx = any(v.imag != 0 for v in vals.values())
    terms = connection._transposed_terms(conn)
    out = np.zeros((len(conn.edge_ids), conn.size, conn.size), dtype=complex if cplx else float)
    for m, eid in zip(out, conn.edge_ids):
        for weight, k in conn.terms(eid, vals):
            m += (weight if cplx else weight.real) * terms[k]
    return out


def test_numeric_matrices_match_exact(triangle):
    """The float terms transport reads, weighted at float rates, are the
    exact coefficient matrices, transposed."""
    conn = build_connection(triangle, DirichletWeights.from_graph(triangle))
    lam = {"e1": Fraction(1), "e2": Fraction(2), "e3": Fraction(3), "e4": Fraction(7)}
    exact = connection_coefficients(conn, lam)
    numeric = _transport_stack(conn, {k: float(v) for k, v in lam.items()})
    for m, a in zip(exact, numeric):
        assert np.allclose(np.array(m, dtype=float), a.T, atol=1e-13)


NUMERIC_GRAPHS = bundled_graphs() + [complete_graph(3)]


@pytest.mark.parametrize("k", range(len(NUMERIC_GRAPHS)))
def test_numeric_matrices_are_the_dense_sum_to_the_bit(k):
    """The float terms transport reads are the table's values over L as
    correctly rounded floats, transposed, and weighted at rational and at
    complex rates they have the bits of the sum of dense weighted term
    matrices, at the graph's weights and at weights with denominators 3
    and 7."""
    g = NUMERIC_GRAPHS[k]
    rng = np.random.default_rng(62 + k)
    for w in (DirichletWeights.from_graph(g).alpha, _random_weights(g, rng)):
        conn = build_connection(g, w)
        dense = [np.array([[float(v) for v in row] for row in m]).T for m in table_matrices(conn)]
        assert connection._transposed_terms(conn).tobytes() == np.array(dense).tobytes()
        lam = sample_rates_off_kernels(conn, rng)
        shifted = {eid: float(v) + 1j * int(rng.integers(1, 17)) / 16 for eid, v in lam.items()}
        for rates, dtype in ((lam, float), (shifted, complex)):
            numeric = _transport_stack(conn, rates)
            assert numeric.dtype == dtype
            oracle = oracle_numeric_matrices(conn, rates).transpose(0, 2, 1)
            assert numeric.tobytes() == np.ascontiguousarray(oracle).tobytes()


# ---------------------------------------------------------------------------
# the Dormand-Prince integrator against scipy's RK45
# ---------------------------------------------------------------------------

def _scipy_rk45(fun, t_span, y0, rtol, atol):
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(fun, t_span, y0, method="RK45", rtol=rtol, atol=atol)


@pytest.mark.parametrize("argv", [
    *[["transport", "--graph", g] for g in ("chain", "triangle", "two-diamond", "two-edge")],
    ["transport", "--graph", "triangle", "--split",
     "--waypoint", "e1=17/16", "--waypoint", "e1=2,e2=3/2"],
    ["transport", "--graph", "two-edge",
     "--waypoint", "e1=2", "--waypoint", "e1=2+0.5j", "--waypoint", "e1=3"],
], ids=["chain", "triangle", "two-diamond", "two-edge", "triangle-split-open", "two-edge-complex"])
def test_integrator_matches_scipy_rk45_bit_for_bit(capsys, monkeypatch, argv):
    """Every segment the CLI's transport integrates ends on the same vector,
    after as many right-hand side evaluations, as scipy's RK45."""
    pairs = []

    def both(fun, t_span, y0, rtol, atol):
        # the reference runs now: transport rebinds the right-hand side's data per segment
        pairs.append((solve_ivp(fun, t_span, y0, rtol=rtol, atol=atol),
                      _scipy_rk45(fun, t_span, y0, rtol, atol)))
        return pairs[-1][0]

    monkeypatch.setattr(connection, "solve_ivp", both)
    assert main(argv) == 0
    capsys.readouterr()
    assert pairs
    for sol, ref in pairs:
        assert sol.success and ref.success
        assert np.array_equal(sol.y[:, -1], ref.y[:, -1])
        assert sol.nfev == ref.nfev


def test_integrator_fails_when_the_step_collapses():
    """y' = y^2, y(0) = 1 blows up at t = 1: the step shrinks below the float
    spacing there, as it does in scipy's RK45, after as many evaluations."""
    def fun(t, y):
        return y * y

    sol = solve_ivp(fun, (0.0, 2.0), np.array([1.0]), rtol=1e-6, atol=1e-9)
    ref = _scipy_rk45(fun, (0.0, 2.0), np.array([1.0]), 1e-6, 1e-9)
    assert not sol.success and not ref.success
    assert sol.message == ref.message and sol.nfev == ref.nfev
    assert np.array_equal(sol.y[:, -1], ref.y[:, -1])
