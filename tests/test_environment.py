import hashlib
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from scipy.special import chdtrc

from dirichlet_flows import (
    DirichletWeights,
    Environment,
    IterationCapExceeded,
    builtin_graph,
    divergence,
    edge_occupation,
    enumerate_spanning_trees,
    green_function,
    loop_erase,
    loop_erased_paths,
    mc_estimate_rhs,
    mc_laplace,
    mc_laplace_by_tree,
    sample_environment,
    simulate_chains,
    survival_determinant,
    tree_probability,
    wilson_sample_trees,
    wilson_tree_counts,
)
from dirichlet_flows import environment as env_mod
from dirichlet_flows.combinatorics import SpanningTree, enumerate_paths
from dirichlet_flows.graphs import DirectedGraph, Edge

from conftest import (
    RecordingMoments,
    bundled_graphs,
    complete_graph,
    gth_flows,
    oracle_environment_batch,
    oracle_laplace_values,
    oracle_lockstep,
    oracle_mc_laplace_by_tree,
    oracle_moments,
    random_graphs,
    random_rational_environment,
    simulate_chain,
    wilson_sample_tree,
)

HALVES = {eid: Fraction(1, 2) for eid in ("e1", "e2", "e3", "e4")}


def tree_of(*edges, directed=True):
    return SpanningTree(frozenset(edges), directed)


def test_weights_positive(two_edge):
    with pytest.raises(ValueError):
        DirichletWeights({"e1": Fraction(0), "e2": Fraction(1)})
    w = DirichletWeights.from_graph(two_edge)
    assert w.beta(two_edge) == {"x0": 2}


def test_sampling_deterministic(triangle):
    w = DirichletWeights.from_graph(triangle)
    a = sample_environment(triangle, w, seed=9)
    b = sample_environment(triangle, w, seed=9)
    assert a.p == b.p
    c = sample_environment(triangle, w, seed=10)
    assert a.p != c.p


def test_single_out_edge_probability_one(chain):
    w = DirichletWeights.from_graph(chain)
    env = sample_environment(chain, w, seed=0)
    assert env.p["e1"] == 1.0 and env.p["e2"] == 1.0


def test_dirichlet_moments_symmetric(two_edge):
    w = DirichletWeights.from_graph(two_edge)  # alpha = (1, 1)
    p = env_mod.sample_environment_batch(two_edge, w, 100_000, seed=3)[:, 0]
    stderr = p.std(ddof=1) / np.sqrt(len(p))
    assert abs(p.mean() - 0.5) < 3 * stderr


def test_dirichlet_moments_asymmetric(two_edge):
    w = DirichletWeights.from_graph(two_edge, {"e1": 2})  # alpha = (2, 1)
    p = env_mod.sample_environment_batch(two_edge, w, 100_000, seed=4)[:, 0]
    stderr = p.std(ddof=1) / np.sqrt(len(p))
    assert abs(p.mean() - 2 / 3) < 3 * stderr


def test_green_function_values(two_edge, triangle, chain):
    g1 = green_function(two_edge, Environment({"e1": 0.5, "e2": 0.5}))
    assert g1.shape == (1, 1) and g1[0, 0] == 1.0
    g2 = green_function(triangle, Environment(HALVES))
    assert abs(g2[0, 0] - 4 / 3) < 1e-14
    g3 = green_function(chain, Environment({"e1": 1.0, "e2": 1.0}))
    assert np.allclose(g3, [[1.0, 1.0], [0.0, 1.0]])  # one visit to x0 and to a


def test_edge_occupation_values(two_edge, triangle):
    env = Environment({"e1": Fraction(3, 10), "e2": Fraction(7, 10)})
    z = edge_occupation(two_edge, env)
    assert z["e1"] == Fraction(3, 10) and z["e2"] == Fraction(7, 10)
    z = edge_occupation(triangle, Environment(HALVES))
    assert z.z == {"e1": Fraction(2, 3), "e2": Fraction(1, 3),
                   "e3": Fraction(2, 3), "e4": Fraction(1, 3)}


def test_edge_occupation_is_unit_flow():
    rng = np.random.default_rng(17)
    for g in bundled_graphs() + random_graphs(seed=18, count=6):
        env = random_rational_environment(g, rng)
        z = edge_occupation(g, env)
        assert all(v > 0 for v in z.z.values())
        assert divergence(g, z.z) == {x: (1 if x == g.base else 0) for x in g.interior}


def test_survival_determinant_triangle(triangle):
    assert survival_determinant(triangle, Environment(HALVES)) == Fraction(3, 4)


def test_survival_determinant_no_returns(chain):
    assert survival_determinant(chain, Environment({"e1": 1.0, "e2": 1.0})) == 1.0


def test_matrix_tree_identity_exact():
    rng = np.random.default_rng(23)
    for g in bundled_graphs() + random_graphs(seed=24, count=8):
        directed = enumerate_spanning_trees(g, directed_only=True)
        for _ in range(10):
            env = random_rational_environment(g, rng)
            det = survival_determinant(g, env)
            total = Fraction(0)
            for t in directed:
                prod = Fraction(1)
                for eid in t.edges:
                    prod *= env.p[eid]
                total += prod
            assert det == total


def test_tree_probabilities_sum_to_one(triangle):
    env = Environment(HALVES)
    trees = enumerate_spanning_trees(triangle, directed_only=True)
    probs = [tree_probability(triangle, env, t) for t in trees]
    assert probs == [Fraction(1, 3)] * 3
    assert sum(probs) == 1


def test_tree_probability_requires_directed(triangle):
    with pytest.raises(ValueError):
        tree_probability(triangle, Environment(HALVES), tree_of("e1", "e3", directed=False))


def test_tree_probability_two_edge(two_edge):
    env = Environment({"e1": Fraction(1, 4), "e2": Fraction(3, 4)})
    assert tree_probability(two_edge, env, tree_of("e1")) == Fraction(1, 4)
    assert tree_probability(two_edge, env, tree_of("e2")) == Fraction(3, 4)


def test_single_environment_matches_batch_kernel():
    """Float edge_occupation and survival_determinant, solved exactly and rounded
    once, agree with the rows of the float Monte Carlo kernel."""
    for i, g in enumerate(bundled_graphs() + random_graphs(seed=41, count=8)):
        w = DirichletWeights.from_graph(g)
        p = env_mod.sample_environment_batch(g, w, 20, seed=42 + i)
        dets, flows = gth_flows(g, p)
        for row, det, flow in zip(p, dets, flows):
            env = Environment(dict(zip(g.edge_ids, row.tolist())))
            assert survival_determinant(g, env) == pytest.approx(det, rel=1e-12)
            z = edge_occupation(g, env)
            assert [z[eid] for eid in g.edge_ids] == pytest.approx(flow, rel=1e-12)


def _tree_sum(g: DirectedGraph, p: np.ndarray) -> np.ndarray:
    """Matrix-tree theorem: det(I - P) is the sum over the directed spanning
    trees of the product of their exit probabilities, a sum of positive terms."""
    col = {eid: j for j, eid in enumerate(g.edge_ids)}
    return sum(p[:, [col[e] for e in sorted(t.edges)]].prod(axis=1)
               for t in env_mod.directed_trees(g))


def _assert_unit_source_flows(g: DirectedGraph, flows: np.ndarray):
    """Kirchhoff's law at every interior vertex: outflow minus inflow is 1 at
    the base and 0 elsewhere, within 1e-12 of the vertex's throughput."""
    for x in g.interior:
        out = sum(flows[:, j] for j, e in enumerate(g.edges) if e.tail == x)
        inflow = sum((flows[:, j] for j, e in enumerate(g.edges) if e.head == x),
                     np.zeros(len(flows)))
        gap = np.abs(out - inflow - float(x == g.base))
        assert (gap <= 1e-12 * np.maximum(out, 1.0)).all(), (x, gap.max())


def test_batch_kernel_matches_matrix_tree_sum(two_diamond):
    """det(I - P) of the batch kernel is the directed-tree sum to 1e-13 relative,
    and its flows carry a unit source at the base, at weights drawn from (0, 2].
    Each row's determinant, flows and rate term do not depend on the blocks
    the batch is cut into."""
    rng = np.random.default_rng(43)
    graphs = bundled_graphs() + random_graphs(seed=44, count=10) + [complete_graph(3)]
    # the base need not come first among the interior vertices
    graphs.append(DirectedGraph(two_diamond.interior[::-1] + (two_diamond.cemetery,),
                                two_diamond.cemetery, two_diamond.base, two_diamond.edges))
    for i, g in enumerate(graphs):
        w = DirichletWeights({eid: Fraction(int(rng.integers(1, 41)), 20) for eid in g.edge_ids})
        p = env_mod.sample_environment_batch(g, w, 2000, seed=45 + i)
        dets, flows = gth_flows(g, p)
        np.testing.assert_allclose(dets, _tree_sum(g, p), rtol=1e-13, atol=0)
        _assert_unit_source_flows(g, flows)
        lam = {eid: 1 + 2.0 ** -(k + 4) for k, eid in enumerate(g.edge_ids)}
        _, laplace = oracle_laplace_values(g, p, lam)
        for lo in range(0, len(p), 296):
            rows = slice(lo, lo + 296)
            det, block = gth_flows(g, p[rows])
            assert np.array_equal(det, dets[rows]) and np.array_equal(block, flows[rows])
            assert np.array_equal(oracle_laplace_values(g, p[rows], lam)[1], laplace[rows])


def test_batch_kernel_keeps_tiny_determinants(two_diamond):
    """At every weight 1/3, x0's exit to b can be ~1e-18, so its exit to a rounds
    to 1 and a walks straight back to x0.  The 8 smallest determinants of seed
    1 lie between 1e-19 and 1e-14; LU with partial pivoting returns 0, 0 and
    6.48e-17 for the tree sums 2.63e-18, 1.02e-19 and 1.05e-16."""
    w = DirichletWeights({eid: Fraction(1, 3) for eid in two_diamond.edge_ids})
    p = env_mod.sample_environment_batch(two_diamond, w, 100_000, seed=1)
    tree_sum = _tree_sum(two_diamond, p)
    rows = np.argsort(tree_sum)[:8]
    assert tree_sum[rows[0]] < 1e-18
    dets, flows = gth_flows(two_diamond, p[rows])
    np.testing.assert_allclose(dets, tree_sum[rows], rtol=1e-13, atol=0)
    _assert_unit_source_flows(two_diamond, flows)


def fan(k: int) -> DirectedGraph:
    """One vertex with k parallel exits to the cemetery."""
    return DirectedGraph(("x0", "delta"), "delta", "x0", tuple(
        Edge(f"e{i + 1}", "x0", "delta", Fraction(1)) for i in range(k)))


# vertices with one and two exits (two-diamond), three (K3) and eleven: from
# eight columns on, a sum along contiguous rows would take numpy's pairwise
# order, but the oracle's column blocks, strided copies, add one by one
LAYOUT_GRAPHS = [builtin_graph("two-diamond"), complete_graph(3), fan(11)]
# not a multiple of BLOCK_ROWS: the last block of the kernels is a short one
LAYOUT_N = env_mod.BLOCK_ROWS + 1001


@pytest.mark.parametrize("weight", ["1/16", "1/3", "2/3", "1", "3/2"])
def test_environment_batch_matches_row_major_oracle(weight):
    """The edge-major batch, seen as (n, |E|), is the row-major oracle's to the
    bit, and the killed-chain kernel reads either layout to the same bits."""
    for i, g in enumerate(LAYOUT_GRAPHS):
        w = DirichletWeights({eid: Fraction(weight) for eid in g.edge_ids})
        p = env_mod.sample_environment_batch(g, w, LAYOUT_N, seed=61 + i)
        want = oracle_environment_batch(g, w, LAYOUT_N, seed=61 + i)
        assert p.shape == want.shape and p.T.flags.c_contiguous
        assert np.ascontiguousarray(p).tobytes() == want.tobytes(), g
        det, flows = gth_flows(g, p)
        det_rm, flows_rm = gth_flows(g, want)
        assert flows.flags.c_contiguous and flows_rm.flags.c_contiguous
        assert det.tobytes() == det_rm.tobytes() and flows.tobytes() == flows_rm.tobytes(), g


@pytest.mark.parametrize("graph, weights", [
    ("two-diamond", dict.fromkeys(("e1", "e2", "e3", "e4", "e5", "e6"), "1/100")),
    # x0 mixes a weight of 1/100 with one of 3/2; a draws in log space at 1/20
    ("triangle", {"e1": "1/100", "e2": "2", "e3": "3/2", "e4": "1/20"}),
])
def test_tiny_weights_draw_in_log_space(graph, weights):
    """Below weight 1/16 a vertex draws its exits in log space: every exit is
    positive and finite, each vertex's exits sum to 1, and each column's mean
    lies within 4 standard errors of alpha_e / beta_x."""
    g = builtin_graph(graph)
    w = DirichletWeights({eid: Fraction(v) for eid, v in weights.items()})
    n = 100_000
    p = env_mod.sample_environment_batch(g, w, n, seed=7)
    assert np.isfinite(p).all() and (p > 0).all()
    beta = w.beta(g)
    for x in g.interior:
        cols = [g.edge_ids.index(e.id) for e in g.out_edges[x]]
        assert np.abs(p[:, cols].sum(axis=1) - 1).max() < 1e-12
    for j, e in enumerate(g.edges):
        stderr = p[:, j].std(ddof=1) / np.sqrt(n)
        assert abs(p[:, j].mean() - float(w.alpha[e.id] / beta[e.tail])) <= 4 * stderr, e.id


@pytest.mark.parametrize("weight", ["1/3", "2/3", "1", "3/2"])
def test_mc_laplace_by_tree_matches_row_major_oracle(weight):
    """Each estimate, a tree's weight a product of rows in edge order, is the
    oracle's to the bit: its batch is the row-major concatenation of the
    blocks, a tree's weight the product along each row, the rate term one
    edge-order sum over the whole batch, and the moments numpy's per block,
    merged in block order."""
    for i, g in enumerate(LAYOUT_GRAPHS):
        w = DirichletWeights({eid: Fraction(weight) for eid in g.edge_ids})
        lam = {eid: 1 + 2.0 ** -(k + 4) for k, eid in enumerate(g.edge_ids)}
        trees = env_mod.directed_trees(g)
        total, per_tree = mc_laplace_by_tree(g, w, lam, trees, LAYOUT_N, seed=65 + i)
        want_total, want_trees = oracle_mc_laplace_by_tree(g, w, lam, trees, LAYOUT_N, 65 + i)
        assert (total.value, total.std_error) == want_total
        assert [(e.value, e.std_error) for e in per_tree] == want_trees, g


def test_blocked_laplace_values_match_whole_batch_product(monkeypatch):
    """Each environment's Laplace value and each tree's term, as the blocks of
    BLOCK_ROWS samples feed them to the running moments, equal to the bit
    those of the whole row-major batch (det set to 1 where the value
    underflows), on 6, 9 and 11 columns."""
    monkeypatch.setattr(env_mod, "Moments", RecordingMoments)
    for i, g in enumerate(LAYOUT_GRAPHS):
        for weight in ("1/3", "3/2"):
            w = DirichletWeights({eid: Fraction(weight) for eid in g.edge_ids})
            lam = {eid: 1 + 2.0 ** -(k + 4) for k, eid in enumerate(g.edge_ids)}
            trees = env_mod.directed_trees(g)
            n = 4 * LAYOUT_N
            RecordingMoments.fed = []
            mc_laplace_by_tree(g, w, lam, trees, n, seed=75 + i)
            # per block: each tree's terms in turn, then the Laplace values
            fed = [np.concatenate(RecordingMoments.fed[k::len(trees) + 1])
                   for k in range(len(trees) + 1)]
            p = oracle_environment_batch(g, w, n, seed=75 + i)
            det, laplace = oracle_laplace_values(g, p, lam)
            assert np.array_equal(fed[-1], laplace), g
            for t, terms in zip(trees, fed):
                cols = [j for j, eid in enumerate(g.edge_ids) if eid in t.edges]
                assert np.array_equal(terms, laplace * p[:, cols].prod(axis=1) / det), (g, t)


@pytest.mark.parametrize("n", [2, 7, 8, 129, LAYOUT_N, 100_000])
def test_mean_and_std_error_match_numpy(n):
    """The running moments fed block by block give the mean and standard
    error of the oracle's block-order merge of numpy's block moments to the
    bit, numpy's mean() and std(ddof=1) / sqrt(n) to the bit within one
    block, and to 1e-12 relative over several: on uniform values, on
    mostly-zero vectors as importance sampling scatters its weights, and on
    values spread over 1e-300..1e300, whose squared deviations overflow."""
    rng = np.random.default_rng(n)
    sparse = np.zeros(n)
    inside = rng.random(n) < 0.05
    inside[0] = True
    sparse[inside] = rng.gamma(0.5, size=inside.sum()) * 1e-3
    for vals in (rng.random(n), sparse, 10.0 ** rng.uniform(-300, 300, n)):
        moments = env_mod.Moments()
        with np.errstate(over="ignore"):
            for lo in range(0, n, env_mod.BLOCK_ROWS):
                moments.add(vals[lo:lo + env_mod.BLOCK_ROWS].copy())
            got = np.array(moments.estimate())
            want = np.array([vals.mean(), vals.std(ddof=1) / np.sqrt(n)])
            assert got.tobytes() == np.array(oracle_moments(vals)).tobytes()
        if n <= env_mod.BLOCK_ROWS:
            assert got.tobytes() == want.tobytes(), (got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mc_laplace_by_tree_memory_is_bounded():
    """On K3 with its 16 directed trees, the estimator's traced peak stays
    below 4 |E| + 24 rows of one block, at 50 000 and at 500 000 samples:
    it holds one block at a time and nothing of length n."""
    g = complete_graph(3)
    w = DirichletWeights.from_graph(g)
    lam = {eid: 1 + 2.0 ** -(k + 4) for k, eid in enumerate(g.edge_ids)}
    trees = env_mod.directed_trees(g)
    assert len(trees) == 16
    mc_laplace_by_tree(g, w, lam, trees, 2, seed=3)  # lazy imports stay out of the peak
    bound = (4 * len(g.edge_ids) + 24) * env_mod.BLOCK_ROWS * 8
    for n in (50_000, 500_000):
        peak = _traced_peak(lambda: mc_laplace_by_tree(g, w, lam, trees, n, seed=3))
        assert peak < bound, (n, peak, bound)


def test_walker_memory_is_bounded(two_diamond):
    """On two-diamond the traced peaks of loop_erased_paths, of
    wilson_tree_counts, and of wilson_sample_trees less its result list of n
    pointers, stay below 24 rows of 8 bytes per walker of one block, and
    differ by less than one byte per block row between 50 000 and 500 000
    walkers: the walkers run one block at a time and hold no step array of
    length n."""
    env = Environment(DIAMOND)
    bound = 24 * env_mod.BLOCK_ROWS * 8
    for sample, result_bytes in ((loop_erased_paths, lambda n: 0),
                                 (wilson_tree_counts, lambda n: 0),
                                 (wilson_sample_trees, lambda n: 8 * n)):
        sample(two_diamond, env, 2, seed=3)  # lazy imports stay out of the peak
        peaks = [_traced_peak(lambda: sample(two_diamond, env, n, seed=3)) - result_bytes(n)
                 for n in (50_000, 500_000)]
        assert max(peaks) < bound, (sample.__name__, peaks, bound)
        assert abs(peaks[0] - peaks[1]) < env_mod.BLOCK_ROWS, (sample.__name__, peaks)


def test_block_zero_walks_what_one_stream_walks(two_diamond):
    """At n = BLOCK_ROWS the walkers run one block, on the unblocked streams:
    the Wilson trees and loop-erased path counts are the ones drawn before
    the walkers ran by blocks, on two-diamond and on the complete digraph on
    three vertices."""
    q = Fraction(1, 4)
    cases = [
        (two_diamond, Environment(DIAMOND),
         9, "87d48df804c53bb2ddda833399a3d3f41ae3bfcd311068853142ec8bf9a3fe39",
         "35d65bef94f06993ae94953ec79729282ede1c84c26a5aa8b03aea51d745e1d5"),
        (complete_graph(3), Environment({
            "e1": 2 * q, "e2": q, "e7": q, "e3": q, "e4": 2 * q, "e8": q,
            "e5": Fraction(1, 3), "e6": Fraction(1, 3), "e9": Fraction(1, 3)}),
         10, "1880100a005bed3b2c7001ee811f22a31e9c4fc8a44b54d1e8920afad50043aa",
         "880f72559c21d30504c800e7121a92e492f30afaf8b5d4b27a34df636736ca34"),
    ]
    for g, env, seed, trees_digest, paths_digest in cases:
        n = env_mod.BLOCK_ROWS
        trees = [sorted(t.edges) for t in wilson_sample_trees(g, env, n, seed)]
        paths = sorted((sorted(p), c) for p, c in loop_erased_paths(g, env, n, seed).items())
        assert hashlib.sha256(repr(trees).encode()).hexdigest() == trees_digest, g
        assert hashlib.sha256(repr(paths).encode()).hexdigest() == paths_digest, g


def test_block_zero_draws_what_one_stream_draws():
    """Block 0 of every stream kind is the unblocked stream's key: a batch of
    at most BLOCK_ROWS environments is the one drawn before the streams
    were keyed by block, also where a vertex draws in log space."""
    g = builtin_graph("two-diamond")
    w = DirichletWeights.from_graph(g, {"e1": Fraction(1, 2), "e4": Fraction(3, 2)})
    assert sample_environment(g, w, seed=2024).p == {
        "e1": 0.4181946093976107, "e2": 1.0, "e3": 1.0, "e4": 0.8874717680126895,
        "e5": 0.5818053906023892, "e6": 0.1125282319873105}
    triangle = builtin_graph("triangle")
    w = DirichletWeights({eid: Fraction(1, 100) for eid in triangle.edge_ids})
    assert sample_environment(triangle, w, seed=7).p == {
        "e1": 5.2237538568911e-25, "e2": 1.974775183181728e-19, "e3": 1.0, "e4": 1.0}
    for g, alpha, seed, digest in [
        (complete_graph(3), None, 5,
         "9a22e135b20fd9212ba8f3280dffb9a9326b427a01c5a8a6d61684d7d3caafae"),
        (builtin_graph("two-diamond"), {"e1": Fraction(1, 50), "e4": Fraction(3, 2)}, 6,
         "164aef32e24a95bcb865ebea5b08f78a719fcfb891a944cdca5ebdd2af37ef82"),
    ]:
        p = env_mod.sample_environment_batch(g, DirichletWeights.from_graph(g, alpha),
                                             env_mod.BLOCK_ROWS, seed)
        assert hashlib.sha256(np.ascontiguousarray(p).tobytes()).hexdigest() == digest
    key = env_mod.philox_stream(11, 3, 0).bit_generator.state["state"]["key"]
    assert key.tolist() == [11, 3 << 48]
    assert env_mod.philox_stream(11, 3, 5).bit_generator.state["state"]["key"].tolist() == [
        11, (3 << 48) | 5]


def test_distinct_rows_match_numpy_unique():
    """The distinct rows in lexicographic order, each row's position among
    them and their counts, as np.unique gives them, by int64 keys and, where
    a key would overflow, by lexsort: 70 flag columns, or entries near 2^40.
    The counts come from a bincount of the keys where their range is at most
    the number of rows (the first three arrays), and from the sort otherwise."""
    rng = np.random.default_rng(71)
    arrays = [rng.integers(0, 9, (5000, 3)), rng.integers(0, 2, (5000, 3)) + 7,
              rng.random((5000, 9)) < 0.3, rng.random((2000, 70)) < 0.02,
              rng.integers(0, 2, (3000, 3)) << 40, np.array([[4, 0, 2]]),
              rng.random((1, 12)) < 0.5]
    for a in arrays:
        rows, inverse = env_mod._distinct_rows(a)
        want_rows, want_inverse, want_counts = np.unique(a, axis=0, return_inverse=True,
                                                         return_counts=True)
        assert rows.dtype == a.dtype and np.array_equal(rows, want_rows)
        assert np.array_equal(inverse, want_inverse.reshape(-1))
        rows, counts = env_mod._row_counts(a)
        assert rows.dtype == a.dtype and np.array_equal(rows, want_rows)
        assert np.array_equal(counts, want_counts)


@pytest.mark.parametrize("scalar", [Fraction, float], ids=["exact", "float"])
def test_singular_chain_outcome(triangle, scalar):
    """x0 and a only hand the walk to each other: det(I - P) = 0, which the
    matrix-tree sum also gives, and every solve raises the one ValueError."""
    env = Environment({"e1": scalar(1), "e3": scalar(0), "e2": scalar(1), "e4": scalar(0)})
    det = survival_determinant(triangle, env)
    assert det == 0 and type(det) is scalar
    for solve in (lambda: edge_occupation(triangle, env),
                  lambda: green_function(triangle, env),
                  lambda: tree_probability(triangle, env, tree_of("e3", "e4"))):
        with pytest.raises(ValueError, match="survival system is singular"):
            solve()


def test_simulate_chain_deterministic_graph(chain):
    env = Environment({"e1": 1.0, "e2": 1.0})
    assert simulate_chain(chain, env, seed=0) == ["e1", "e2"]


def test_simulate_chain_crossings_match_occupation(triangle):
    env = Environment(HALVES)
    n = 40_000
    counts = {eid: 0 for eid in triangle.edge_ids}
    sq = {eid: 0 for eid in triangle.edge_ids}
    for traj in simulate_chains(triangle, env, n, seed=5):
        per = {eid: 0 for eid in triangle.edge_ids}
        for eid in traj:
            per[eid] += 1
        for eid, k in per.items():
            counts[eid] += k
            sq[eid] += k * k
    z = edge_occupation(triangle, env)
    for eid in triangle.edge_ids:
        mean = counts[eid] / n
        var = sq[eid] / n - mean**2
        stderr = np.sqrt(var / n)
        assert abs(mean - float(z[eid])) < 3.5 * stderr


def test_step_cap(chain, monkeypatch):
    monkeypatch.setattr(env_mod, "STEP_CAP", 1)
    env = Environment({"e1": 1.0, "e2": 1.0})
    with pytest.raises(IterationCapExceeded):
        simulate_chain(chain, env, seed=0)
    with pytest.raises(IterationCapExceeded):
        wilson_sample_trees(chain, env, 10, seed=0)
    with pytest.raises(IterationCapExceeded):
        loop_erased_paths(chain, env, 10, seed=0)


def test_step_cap_allows_walks_at_the_cap(chain, monkeypatch):
    monkeypatch.setattr(env_mod, "STEP_CAP", 2)  # the chain's walk takes exactly 2 steps
    env = Environment({"e1": 1.0, "e2": 1.0})
    assert simulate_chains(chain, env, 3, seed=0) == [["e1", "e2"]] * 3
    assert loop_erased_paths(chain, env, 3, seed=0) == {frozenset({"e1", "e2"}): 3}


def test_unreachable_cemetery_is_rejected(triangle):
    """x0 and a only hand the walk to each other, so no walk would ever end."""
    env = Environment({"e1": Fraction(1), "e3": Fraction(0),
                       "e2": Fraction(1), "e4": Fraction(0)})
    for sample in (lambda: env_mod.check_environment(triangle, env),
                   lambda: wilson_sample_trees(triangle, env, 10, seed=0),
                   lambda: loop_erased_paths(triangle, env, 10, seed=0),
                   lambda: simulate_chains(triangle, env, 10, seed=0)):
        with pytest.raises(ValueError, match=r"from \['x0', 'a'\] to the cemetery"):
            sample()
    # a zero exit probability alone is fine while another path remains
    env_mod.check_environment(triangle, Environment({"e1": Fraction(1), "e3": Fraction(0),
                                                     "e2": Fraction(1, 2), "e4": Fraction(1, 2)}))


@pytest.mark.parametrize("exact", [True, False], ids=["fraction", "float"])
def test_exits_outside_the_unit_interval_are_rejected(triangle, exact):
    """Exits 3/2 and -1/2 at x0 sum to one, and a walk could still reach the
    cemetery, but they are no probabilities."""
    probs = {"e1": 1.5, "e3": -0.5, "e2": 0.5, "e4": 0.5}
    env = Environment({e: Fraction(p) if exact else p for e, p in probs.items()})
    for sample in (lambda: env_mod.check_environment(triangle, env),
                   lambda: wilson_sample_trees(triangle, env, 10, seed=0)):
        with pytest.raises(ValueError, match=r"^exit probability of 'e1' is (3/2|1\.5), "
                                             r"not in \[0, 1\]$"):
            sample()
    # the ends of [0, 1] are probabilities
    env_mod.check_environment(triangle, Environment({"e1": Fraction(0), "e3": Fraction(1),
                                                     "e2": Fraction(0), "e4": Fraction(1)}))


def test_loop_erase_hand_case(triangle):
    # x0 -> a -> x0 -> a -> delta: the x0-a-x0 excursion vanishes
    assert loop_erase(triangle, ["e1", "e2", "e1", "e4"]) == ["e1", "e4"]
    assert loop_erase(triangle, ["e3"]) == ["e3"]


def test_wilson_chain_graph(chain):
    env = Environment({"e1": 1.0, "e2": 1.0})
    t = wilson_sample_tree(chain, env, seed=1)
    assert t.edges == frozenset({"e1", "e2"}) and t.directed


def test_wilson_deterministic(triangle):
    env = Environment(HALVES)
    a = wilson_sample_trees(triangle, env, 50, seed=6)
    b = wilson_sample_trees(triangle, env, 50, seed=6)
    assert a == b


def test_wilson_frequencies_rough(triangle):
    env = Environment(HALVES)
    n = 6000
    counts = {}
    for t in wilson_sample_trees(triangle, env, n, seed=7):
        counts[t.edges] = counts.get(t.edges, 0) + 1
    assert set(counts) == {t.edges for t in
                           enumerate_spanning_trees(triangle, directed_only=True)}
    for c in counts.values():
        assert abs(c / n - 1 / 3) < 0.025


# exit probabilities far from uniform; tree law (1/9, 2/9, 2/3)
SKEWED = {"e1": Fraction(1, 3), "e3": Fraction(2, 3), "e2": Fraction(3, 4), "e4": Fraction(1, 4)}
# two-diamond: x0 and c leave by two exits, a and b by one
DIAMOND = {"e1": Fraction(2, 3), "e5": Fraction(1, 3), "e2": Fraction(1),
           "e3": Fraction(1), "e4": Fraction(3, 5), "e6": Fraction(2, 5)}


def lockstep_cases(triangle, two_diamond):
    """(graph, environment) pairs for the lockstep samplers: the skewed triangle,
    two-diamond, the complete digraph on three vertices and random graphs, the
    last two with random rational environments."""
    rng = np.random.default_rng(37)
    cases = [(triangle, Environment(SKEWED)), (two_diamond, Environment(DIAMOND))]
    return cases + [(g, random_rational_environment(g, rng))
                    for g in [complete_graph(3)] + random_graphs(seed=38, count=6)]


def chi2_pvalue(counts: Counter, law: dict, n: int) -> float:
    """p-value of the chi-square goodness of fit of n counts to an exact law."""
    assert set(counts) <= set(law) and sum(law.values()) == 1
    stat = sum((counts[k] - n * float(p)) ** 2 / (n * float(p)) for k, p in law.items())
    return float(chdtrc(max(len(law) - 1, 1), stat))


def test_wilson_tree_law(triangle, two_diamond):
    n = 20_000
    for g, env in lockstep_cases(triangle, two_diamond):
        law = {t.edges: tree_probability(g, env, t)
               for t in enumerate_spanning_trees(g, directed_only=True)}
        counts = Counter(t.edges for t in wilson_sample_trees(g, env, n, seed=21))
        assert chi2_pvalue(counts, law, n) >= 1e-3, g


def test_loop_erased_path_law(triangle, two_diamond):
    """The loop-erased path has the law of the base path of the random tree: the
    probability of a path is that of the directed trees containing it."""
    n = 20_000
    for g, env in lockstep_cases(triangle, two_diamond):
        trees = enumerate_spanning_trees(g, directed_only=True)
        law = {frozenset(p.edges): sum((tree_probability(g, env, t) for t in trees
                                        if p.edges <= t.edges), Fraction(0))
               for p in enumerate_paths(g) if p.directed}
        law = {path: prob for path, prob in law.items() if prob > 0}
        assert chi2_pvalue(loop_erased_paths(g, env, n, seed=22), law, n) >= 1e-3, g


def test_last_exit_erasure_is_loop_erase(triangle, two_diamond, monkeypatch):
    """loop_erased_paths erases the very walks of simulate_chains at the same
    seed, in one block and in blocks of 1001 walkers."""
    for rows in (env_mod.BLOCK_ROWS, 1001):
        monkeypatch.setattr(env_mod, "BLOCK_ROWS", rows)
        for g, env in lockstep_cases(triangle, two_diamond):
            erased = Counter(frozenset(loop_erase(g, traj))
                             for traj in simulate_chains(g, env, 3000, seed=23))
            assert loop_erased_paths(g, env, 3000, seed=23) == erased, (g, rows)


def test_lockstep_samplers_deterministic(triangle):
    env = Environment(SKEWED)
    assert simulate_chains(triangle, env, 200, seed=4) == simulate_chains(triangle, env, 200, seed=4)
    assert simulate_chains(triangle, env, 200, seed=4) != simulate_chains(triangle, env, 200, seed=5)
    assert loop_erased_paths(triangle, env, 200, seed=4) == loop_erased_paths(triangle, env, 200, 4)


class GridStream:
    """Uniforms k/16, k = 0..15, and the largest double below 1, so that walks
    meet dyadic thresholds exactly, where `<=` and `<` part ways, and the top
    of the unit interval."""

    def __init__(self, seed, kind, block=0):
        self.gen = np.random.default_rng([seed, kind, block])

    def random(self, m):
        return np.minimum(np.floor(self.gen.random(m) * 17) / 16, np.nextafter(1.0, 0.0))


STREAMS = {"philox": env_mod.philox_stream, "grid": GridStream}


def assert_walkers_match_oracle(g, env, n, seed):
    """The three walkers give exactly what the two-dimensional gather kernel of
    the oracle gives from the same streams; returns the chain trajectories."""
    trajectories, erased, trees = oracle_lockstep(g, env, n, seed)
    assert simulate_chains(g, env, n, seed) == trajectories, (g, n, seed)
    assert loop_erased_paths(g, env, n, seed) == erased, (g, n, seed)
    assert wilson_sample_trees(g, env, n, seed) == trees, (g, n, seed)
    return trajectories


def test_wilson_tree_counts_are_the_sampled_trees(monkeypatch):
    """wilson_tree_counts counts the trees that wilson_sample_trees lists and
    that the oracle walks, at one walker, one block and one block and one
    more, on every builtin, random graphs, K3 and K4.  The exit rows' key
    range is base^|interior|: within a block on K3 (9^3), where a full block
    is counted by key, and past it on K4 (16^4), where it is sorted."""
    sort = env_mod._distinct_rows
    sorted_shapes = []

    def spy(a):
        sorted_shapes.append(a.shape)
        return sort(a)
    rng = np.random.default_rng(47)
    full_block_sorts = []
    for g in (bundled_graphs() + random_graphs(seed=48, count=6)
              + [complete_graph(3), complete_graph(4)]):
        env = random_rational_environment(g, rng)
        for n, seed in zip((1, env_mod.BLOCK_ROWS, env_mod.BLOCK_ROWS + 1), (0, 1, 2)):
            want = Counter(t.edges for t in oracle_lockstep(g, env, n, seed)[2])
            assert Counter(t.edges for t in wilson_sample_trees(g, env, n, seed)) == want
            sorted_shapes.clear()
            with monkeypatch.context() as patch:
                patch.setattr(env_mod, "_distinct_rows", spy)
                assert wilson_tree_counts(g, env, n, seed) == want, (g, n, seed)
            if n == env_mod.BLOCK_ROWS:
                full_block_sorts.append(list(sorted_shapes))
    assert full_block_sorts[-2:] == [[], [(env_mod.BLOCK_ROWS, 4)]]


@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_step_kernel_matches_oracle(triangle, two_diamond, monkeypatch, stream):
    """Draw for draw the oracle's walks, in one block and, at 1001 walkers per
    block, in two full blocks and a short last one."""
    monkeypatch.setattr(env_mod, "philox_stream", STREAMS[stream])
    monkeypatch.setattr(env_mod, "STEP_CAP", 100_000)  # a wrong kernel fails, not hangs
    for g, env in lockstep_cases(triangle, two_diamond):
        for n, seed in product((1, 7, 3000), (0, 1, 2)):
            assert_walkers_match_oracle(g, env, n, seed)
    monkeypatch.setattr(env_mod, "BLOCK_ROWS", 1001)
    for g, env in lockstep_cases(triangle, two_diamond):
        for seed in (0, 1, 2):
            assert_walkers_match_oracle(g, env, 3000, seed)


@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_zero_probability_exit_is_never_taken(monkeypatch, stream):
    """Exits of probability 0 in the first (e1), a middle (e4) and the last
    (e9) slot of the complete digraph on three vertices."""
    monkeypatch.setattr(env_mod, "philox_stream", STREAMS[stream])
    g = complete_graph(3)
    assert [[e.id for e in g.out_edges[x]] for x in g.interior] == [
        ["e1", "e2", "e7"], ["e3", "e4", "e8"], ["e5", "e6", "e9"]]
    zero, q = Fraction(0), Fraction(1, 4)
    env = Environment({"e1": zero, "e2": q, "e7": 3 * q, "e3": 2 * q, "e4": zero, "e8": 2 * q,
                       "e5": q, "e6": 3 * q, "e9": zero})
    never = {"e1", "e4", "e9"}
    for seed in range(3):
        assert not never & {e for traj in simulate_chains(g, env, 2000, seed) for e in traj}
        assert not never & {e for t in wilson_sample_trees(g, env, 2000, seed) for e in t.edges}


@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_no_walker_takes_a_padding_slot(triangle, two_diamond, stream):
    """On graphs whose vertices have fewer exits than the widest one, every step
    leaves the walker's vertex by one of its own exits."""
    cases = [(g, env) for g, env in lockstep_cases(triangle, two_diamond)
             if len({len(g.out_edges[x]) for x in g.interior}) > 1]
    assert len(cases) >= 3
    for g, env in cases:
        vidx = {x: i for i, x in enumerate(g.interior)}
        tail = np.array([vidx[e.tail] for e in g.edges])
        head, chooser = env_mod._random_exits(g, env)
        choose = chooser(STREAMS[stream](5, 1))
        start = np.full(2000, vidx[g.base])
        stop = np.zeros(len(g.interior) + 1, dtype=bool)
        stop[-1] = True
        for _, x, e in env_mod._lockstep(head, choose, np.arange(2000), start, stop, 10_000):
            assert (tail[e] == x).all(), g


@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_cumulative_sum_rounding_to_one(monkeypatch, stream):
    """At x0 of the complete digraph the float sum of the first two exit
    probabilities, 1/3 and 2/3 - 2^-60, rounds to 1.0: every u < 1 stays below
    it, so the last exit, of probability 2^-60, is never taken, as in the oracle."""
    monkeypatch.setattr(env_mod, "philox_stream", STREAMS[stream])
    g = complete_graph(3)
    tiny = Fraction(1, 2**60)
    env = Environment({"e1": Fraction(1, 3), "e2": Fraction(2, 3) - tiny, "e7": tiny,
                       "e3": Fraction(1, 2), "e4": Fraction(1, 4), "e8": Fraction(1, 4),
                       "e5": Fraction(1, 4), "e6": Fraction(1, 4), "e9": Fraction(1, 2)})
    assert float(Fraction(1, 3)) + float(Fraction(2, 3) - tiny) == 1.0
    for seed in range(3):
        trajectories = assert_walkers_match_oracle(g, env, 500, seed)
        assert not any("e7" in traj for traj in trajectories)


def test_mc_estimate_rhs_symmetric_mean(two_edge):
    w = DirichletWeights.from_graph(two_edge)
    est = mc_estimate_rhs(two_edge, w, {"e1": 0.0, "e2": 0.0}, tree_of("e1"),
                          n=50_000, seed=8)
    assert abs(est.value - 0.5) < 3 * est.std_error


def test_mc_estimate_rhs_closed_form(two_edge):
    w = DirichletWeights.from_graph(two_edge)
    est = mc_estimate_rhs(two_edge, w, {"e1": 1.0, "e2": 0.0}, tree_of("e1"),
                          n=200_000, seed=9)
    assert abs(est.value - (1 - 2 / np.e)) < 3 * est.std_error


def test_mc_estimate_rhs_beta_moment(two_edge):
    w = DirichletWeights.from_graph(two_edge, {"e1": 5, "e2": 2})
    est = mc_estimate_rhs(two_edge, w, {"e1": 0.0, "e2": 0.0}, tree_of("e1"),
                          n=100_000, seed=10)
    assert abs(est.value - 5 / 7) < 3 * est.std_error


def test_mc_estimate_rejects_bad_input(two_edge):
    w = DirichletWeights.from_graph(two_edge)
    with pytest.raises(ValueError, match="negative"):
        mc_estimate_rhs(two_edge, w, {"e1": -1.0, "e2": 0.0}, tree_of("e1"), 10, 0)
    with pytest.raises(ValueError, match="directed"):
        mc_estimate_rhs(two_edge, w, {"e1": 1.0, "e2": 1.0},
                        tree_of("e1", directed=False), 10, 0)
    with pytest.raises(ValueError, match="samples"):
        mc_estimate_rhs(two_edge, w, {"e1": 1.0, "e2": 1.0}, tree_of("e1"), 0, 0)
    # one sample has no standard error; an infinite one would pass every gate
    with pytest.raises(ValueError, match="at least 2 samples"):
        mc_estimate_rhs(two_edge, w, {"e1": 1.0, "e2": 1.0}, tree_of("e1"), 1, 0)
    with pytest.raises(ValueError, match="at least 2 samples"):
        mc_laplace(two_edge, w, {"e1": 1.0, "e2": 1.0}, 1, 0)


def test_mc_laplace_normalization(triangle):
    w = DirichletWeights.from_graph(triangle)
    est = mc_laplace(triangle, w, {eid: 0.0 for eid in triangle.edge_ids}, 1000, seed=11)
    assert est.value == 1.0 and est.std_error == 0.0


def test_mc_laplace_two_edge_unit_rates(two_edge):
    w = DirichletWeights.from_graph(two_edge)
    est = mc_laplace(two_edge, w, {"e1": 1.0, "e2": 1.0}, 20_000, seed=12)
    assert abs(est.value - np.exp(-1)) < 1e-12  # z1 + z2 = 1 almost surely


def test_mc_laplace_equals_tree_sum(triangle):
    w = DirichletWeights.from_graph(triangle, {"e1": 2, "e4": Fraction(1, 2)})
    lam = {"e1": 1.0, "e2": 2.0, "e3": 3.0, "e4": 4.0}
    n, seed = 30_000, 13
    total = mc_laplace(triangle, w, lam, n, seed)
    acc = sum(mc_estimate_rhs(triangle, w, lam, t, n, seed).value
              for t in enumerate_spanning_trees(triangle, directed_only=True))
    assert abs(total.value - acc) <= 1e-12


def test_mc_bit_identical_per_seed(triangle):
    w = DirichletWeights.from_graph(triangle)
    lam = {eid: 1.0 for eid in triangle.edge_ids}
    a = mc_laplace(triangle, w, lam, 5000, seed=14)
    b = mc_laplace(triangle, w, lam, 5000, seed=14)
    assert a == b


def test_mc_laplace_by_tree_is_the_separate_calls(triangle):
    w = DirichletWeights.from_graph(triangle, {"e1": 2, "e4": Fraction(1, 2)})
    lam = {"e1": 1.0, "e2": 2.0, "e3": 0.5, "e4": 0.0}
    trees = enumerate_spanning_trees(triangle, directed_only=True)
    total, per_tree = mc_laplace_by_tree(triangle, w, lam, trees, 3000, seed=15)
    assert total == mc_laplace(triangle, w, lam, 3000, seed=15)
    assert per_tree == [mc_estimate_rhs(triangle, w, lam, t, 3000, seed=15) for t in trees]

