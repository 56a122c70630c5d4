import gc
import math
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from dirichlet_flows import (
    DirichletWeights,
    IntegrandSpec,
    QuadratureNonConvergence,
    builtin_graph,
    cohomology_identity_check,
    constant_C_alpha,
    enumerate_spanning_trees,
    integral_vector,
    integrand,
    integrate_mc,
    integrate_quadrature,
    mc_laplace_by_tree,
    split_graph,
    split_integrand_spec,
    tree_basis,
    validate,
    verify_theorem_2_1,
)
from dirichlet_flows import cli as cli_mod
from dirichlet_flows import environment as env_mod
from dirichlet_flows import integrals as int_mod
from dirichlet_flows.combinatorics import SpanningTree, cotree
from dirichlet_flows.graphs import DirectedGraph, Edge, SplitGraph

from conftest import (
    RecordingMoments,
    bundled_graphs,
    complete_graph,
    oracle_coordinate_map,
    oracle_flows,
    oracle_integrate_mc,
    oracle_log_weights,
    oracle_pairing,
    oracle_pairing_residual,
    oracle_quadrature,
    oracle_tree_coordinates,
    oracle_unmerged_log_weights,
    random_graphs,
    _oracle_poles,
)


def tree_of(*edges, directed=False):
    return SpanningTree(frozenset(edges), directed)


def spec_for(g, alpha, lam, tree):
    return IntegrandSpec(g, alpha, lam, tree)


def ones(g):
    return {eid: 1 for eid in g.edge_ids}


def zeros(g):
    return {eid: 0.0 for eid in g.edge_ids}


# ---------------------------------------------------------------------------
# integrand point values
# ---------------------------------------------------------------------------

def test_integrand_two_edge_point(two_edge):
    spec = spec_for(two_edge, ones(two_edge), zeros(two_edge), tree_of("e1"))
    assert integrand(spec, {"e2": 0.5}) == pytest.approx(0.5)
    assert integrand(spec, {"e2": 1.5}) == 0.0  # z1 = -0.5, outside the chamber


def test_integrand_split_two_edge_point(two_edge):
    split = split_graph(two_edge)
    spec = split_integrand_spec(split, zeros(two_edge), tree_of("e1", directed=True))
    # z1 + z2 = 1 on the chamber, so the bridge factor (z1+z2)^-2 is 1
    assert integrand(spec, {"e2": 0.5}) == pytest.approx(0.5)


def test_integrand_requires_positive_coordinates(two_edge):
    spec = spec_for(two_edge, ones(two_edge), zeros(two_edge), tree_of("e1"))
    with pytest.raises(ValueError):
        integrand(spec, {"e2": -0.5})
    with pytest.raises(KeyError):
        integrand(spec, {})


def test_integrand_rejects_non_tree(two_edge):
    spec = spec_for(two_edge, ones(two_edge), zeros(two_edge), tree_of("e1", "e2"))
    with pytest.raises(ValueError, match="spanning tree"):
        integrand(spec, {"e2": 0.5})


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_quadrature_two_edge_half(two_edge):
    spec = spec_for(two_edge, ones(two_edge), zeros(two_edge), tree_of("e1"))
    est = integrate_quadrature(spec, tol=1e-10)
    assert est.method == "quadrature"
    assert abs(est.value - 0.5) <= 1e-10


def test_quadrature_split_two_edge_closed_form(two_edge):
    split = split_graph(two_edge)
    spec = split_integrand_spec(split, {"e1": 1.0, "e2": 0.0}, tree_of("e1", directed=True))
    est = integrate_quadrature(spec, tol=1e-10)
    assert abs(est.value - (1 - 2 / math.e)) <= 1e-10


def test_quadrature_zero_dimensional(chain):
    spec = spec_for(chain, ones(chain), {"e1": 0.3, "e2": 1.1}, tree_of("e1", "e2"))
    est = integrate_quadrature(spec, tol=1e-12)
    assert est.value == pytest.approx(math.exp(-1.4), abs=1e-14)
    assert est.error == 0.0 and est.n_evals == 1


def _triangle_chart_closed_form(l1, l2, l3, l4):
    """The triangle chart {e3, e4} integral at unit weights.

    z3 = 1 - u1 + u2 and z4 = s = u1 - u2 with 0 < s < 1, so integrating out
    u2 > 0 leaves exp(-l3) / (l1 + l2) * int_0^1 exp(-c s) s (1 - s) ds with
    c = l1 + l4 - l3, and that integral is (c - 2 + (c + 2) exp(-c)) / c^3.
    """
    c = l1 + l4 - l3
    return math.exp(-l3) / (l1 + l2) * (c - 2 + (c + 2) * math.exp(-c)) / c ** 3


@pytest.mark.parametrize("rates", [(1.0, 1.0, 1.0, 1.0), (1.0, 2.0, 3.0, 4.0)],
                         ids=["unit", "1234"])
def test_quadrature_triangle_closed_form(triangle, rates):
    """A slanted chart: 0 < u1 - u2 < 1 with both coordinates unbounded."""
    spec = spec_for(triangle, ones(triangle), dict(zip(triangle.edge_ids, rates)),
                    tree_of("e3", "e4"))
    exact = _triangle_chart_closed_form(*rates)
    quad = integrate_quadrature(spec, tol=1e-8)
    assert abs(quad.value - exact) <= 1e-10 * exact
    assert abs(quad.value - exact) <= quad.error
    mc = integrate_mc(spec, n=400_000, seed=3)
    assert abs(mc.value - exact) <= 3 * mc.error


def _chamber_systems():
    """Exact chamber rows (offset, coefficients) and their dimension: every chart
    of the builtins, of their split graphs and of random graphs, then random
    integer systems whose eliminations meet coefficients other than +-1."""
    graphs = bundled_graphs()
    graphs += [split_graph(g).graph for g in graphs] + random_graphs(seed=12, count=8)
    for g in graphs:
        for t in enumerate_spanning_trees(g):
            ev = int_mod._Evaluator(spec_for(g, ones(g), zeros(g), t))
            if ev.dim:
                yield ev.rows, ev.dim
    rng = np.random.default_rng(14)
    for _ in range(30):
        d = int(rng.integers(2, 5))
        rows = [(Fraction(0), tuple(Fraction(int(j == k)) for j in range(d))) for k in range(d)]
        rows += [(Fraction(int(rng.integers(1, 5))),
                  tuple(Fraction(int(c)) for c in rng.integers(-3, 4, size=d)))
                 for _ in range(4)]
        yield rows, d


def test_chamber_limits_match_chamber():
    """A point lies in the chamber exactly when each coordinate lies in its
    level's interval given the coordinates before it, and every prefix that
    lies in its levels' intervals leaves the next coordinate a nonempty one."""
    rng = np.random.default_rng(13)
    seen = {True: 0, False: 0}
    for rows, d in _chamber_systems():
        limits = int_mod._ChamberLimits(rows, d)
        assert not limits.empty
        offset = np.array([float(b) for b, _ in rows])
        coeffs = np.array([[float(c) for c in a] for _, a in rows])
        pts = rng.uniform(-0.25, 2.0, size=(100, d))
        inside = (offset + pts @ coeffs.T > 0).all(axis=1)
        within = np.ones(len(pts), dtype=bool)
        for k in range(d):
            lo, hi, *_ = limits.intervals(k, pts[:, :k])
            assert np.isfinite(lo).all()
            assert ((hi > lo) | ~within).all()
            within &= (lo < pts[:, k]) & (pts[:, k] < hi)
        assert (within == inside).all()
        seen[True] += int(inside.sum())
        seen[False] += int((~inside).sum())
    assert min(seen.values()) > 1000


def _triangle_level_1(triangle):
    """Chart {e3, e4} of the triangle: u1 (z2) lies in (max(0, u0 - 1), u0)."""
    spec = spec_for(triangle, ones(triangle), ones(triangle), tree_of("e3", "e4"))
    ev = int_mod._Evaluator(spec)
    return ev, int_mod._ChamberLimits(ev.rows, ev.dim)


def test_empty_inner_interval_contributes_zero(triangle):
    # the interval of u1 is empty for u0 <= 0
    ev, limits = _triangle_level_1(triangle)
    prefixes = np.array([[-0.5]])
    lo, hi, *_ = limits.intervals(1, prefixes)
    assert hi[0] <= lo[0]
    counter = [0]
    vals, errs = int_mod._integrate_level(ev, limits, 1, prefixes, np.array([1e-8]), counter)
    assert (vals.tolist(), errs.tolist()) == ([0.0], [0.0])
    assert counter == [0]


def _lone_calls(ev, limits, k, prefixes, tols):
    """Each row's (value, error, evaluations) when it is integrated alone."""
    out = []
    for i in range(len(tols)):
        counter = [0]
        v, e = int_mod._integrate_level(ev, limits, k, prefixes[i:i + 1], tols[i:i + 1], counter)
        out.append((v[0], e[0], counter[0]))
    return out


def test_batch_rows_equal_lone_calls(triangle):
    """Empty and non-empty prefixes interleaved, each with its own target: the
    empty rows give (0, 0) and the others exactly what they give alone."""
    ev, limits = _triangle_level_1(triangle)
    prefixes = np.array([[-0.5], [0.3], [0.0], [1.7], [-2.0], [0.9]])
    tols = np.array([1e-8, 1e-8, 1e-8, 1e-12, 1e-8, 1e-6])
    counter = [0]
    vals, errs = int_mod._integrate_level(ev, limits, 1, prefixes, tols, counter)
    lone = _lone_calls(ev, limits, 1, prefixes, tols)
    assert list(zip(vals, errs)) == [(v, e) for v, e, _ in lone]
    assert [n == 0 for _, _, n in lone] == (prefixes[:, 0] <= 0).tolist()
    assert vals[[0, 2, 4]].tolist() == errs[[0, 2, 4]].tolist() == [0.0] * 3
    assert counter[0] == sum(n for _, _, n in lone)
    # one outer integral at three targets: three different panel sets (at
    # 1e-4 and 1e-8 alike the outer level settles on its graded start)
    tols = np.array([1e-8, 1e-12, 1e-10])
    counter = [0]
    vals, errs = int_mod._integrate_level(ev, limits, 0, np.zeros((3, 0)), tols, counter)
    lone = _lone_calls(ev, limits, 0, np.zeros((3, 0)), tols)
    assert list(zip(vals, errs)) == [(v, e) for v, e, _ in lone]
    assert lone[0][2] < lone[2][2] < lone[1][2] and counter[0] == sum(n for _, _, n in lone)


def test_graded_panels_settle_in_one_round():
    """An unbounded level whose graded start meets the target settles in one
    round: 60 evaluations per row, the 4 graded panels of 15 nodes each."""
    g = _loop_return_graph()
    spec = spec_for(g, ones(g), {"e1": 1.0, "e2": 0.5, "e3": 0.25}, tree_of("e2", "e3"))
    ev = int_mod._Evaluator(spec)
    limits = int_mod._ChamberLimits(ev.rows, ev.dim)
    assert limits.intervals(0, np.zeros((1, 0)))[1].tolist() == [math.inf]
    counter = [0]
    tols = np.array([1e-4, 1e-5, 1e-6])
    vals, errs = int_mod._integrate_level(ev, limits, 0, np.zeros((3, 0)), tols, counter)
    assert counter[0] == 3 * 60
    assert (errs <= 0.45 * tols).all()
    # z = (u, u, 1): the integral is e^{-1/4} / 2.25
    assert np.abs(vals - math.exp(-0.25) / 2.25).max() <= errs.max()
    counter = [0]
    int_mod._integrate_level(ev, limits, 0, np.zeros((1, 0)), np.array([1e-8]), counter)
    assert counter[0] > 60


def test_dimension_two_charts_match_scipy_dblquad():
    """Every dimension-2 chart of the builtins and of their split graphs at
    generic rates, against scipy's dblquad over the same chamber: the inner
    coordinate runs between the bounds of the rows of the oracle's coordinate
    map, the outer one over (0, inf)."""
    integrate = pytest.importorskip("scipy.integrate")
    checked = 0
    for g, alpha, bridges in _builtin_charts():
        lam = {eid: 1.0 + 2.0 ** -(k + 3) for k, eid in enumerate(g.edge_ids)}
        lam.update({bid: 0.0 for bid in bridges})
        for t in enumerate_spanning_trees(g):
            free, rows = oracle_coordinate_map(g, t)
            if len(free) != 2:
                continue
            terms = [(float(off), float(a[0]), float(a[1]),
                      float(alpha[eid]) - (eid in free), lam[eid])
                     for eid, (off, a) in rows.items()]

            def f(u1, u0):
                z = [(b + a0 * u0 + a1 * u1, x, r) for b, a0, a1, x, r in terms]
                if min(v for v, _, _ in z) <= 0:
                    return 0.0
                return math.exp(math.fsum(x * math.log(v) - r * v for v, x, r in z))

            def inner(u0):
                lo, hi = 0.0, math.inf
                for b, a0, a1, _, _ in terms:
                    c = b + a0 * u0
                    if a1 > 0:
                        lo = max(lo, -c / a1)
                    elif a1 < 0:
                        hi = min(hi, -c / a1)
                    elif c <= 0:
                        return 0.0, 0.0
                return lo, max(lo, hi)

            value, _ = integrate.dblquad(f, 0, math.inf, lambda u0: inner(u0)[0],
                                         lambda u0: inner(u0)[1], epsabs=1e-13, epsrel=1e-12)
            est = integrate_quadrature(spec_for(g, alpha, lam, t), 1e-8)
            assert abs(est.value - value) <= 3 * est.error + 1e-12, (g.edge_ids, t)
            checked += 1
    assert checked == 5 + 12 + 4 + 16  # triangle, split triangle, two-diamond, split


def _builtin_charts():
    """(graph, alpha, bridge ids) of the builtins and their split graphs."""
    for g in bundled_graphs():
        yield g, g.alpha_map(), ()
        split = split_graph(g)
        yield split.graph, split.graph.alpha_map(), split.bridge_ids


def _oracle_charts():
    """`_builtin_charts`, then the random graphs of `_chamber_systems`."""
    yield from _builtin_charts()
    for g in random_graphs(seed=12, count=8):
        yield g, g.alpha_map(), ()


def _pole_masks(spec, weight_edge=None):
    """Each level's masks of its lower and upper limits that are poles."""
    ev = int_mod._Evaluator(spec, weight_edge)
    return int_mod._ChamberLimits(ev.rows, ev.dim, ev.poles).poles


def test_pole_masks_select_the_oracle_poles():
    """Each level's pole masks select exactly the poles the oracle finds from
    the chart's flows and exponents, with bit-equal offsets and
    coefficients: those above the chamber among the upper limits, those below
    among the lower ones.  Every chart up to dimension MAX_QUAD_DIM of the
    builtins and their split graphs at equal weights 1/3 to 3/2, and of
    random graphs at their own weights, with and without a weight edge."""
    def charts():
        for w in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2)):
            for g in bundled_graphs():
                alpha = {eid: w for eid in g.edge_ids}
                yield g, alpha
                split = split_graph(g, alpha).graph
                yield split, split.alpha_map()
        for g in random_graphs(seed=12, count=8):
            yield g, g.alpha_map()

    cases, poles = 0, Counter()
    for g, alpha in charts():
        for t in enumerate_spanning_trees(g):
            spec = spec_for(g, alpha, ones(g), t)
            for weight_edge in (None, min(cotree(g, t), default=None)):
                ev = int_mod._Evaluator(spec, weight_edge)
                if not 1 <= ev.dim <= int_mod.MAX_QUAD_DIM:
                    continue
                limits = int_mod._ChamberLimits(ev.rows, ev.dim, ev.poles)
                for k, oracle in enumerate(_oracle_poles(spec, ev, weight_edge)):
                    for ends, mask, above in zip(limits.levels[k], limits.poles[k],
                                                 (False, True)):
                        offsets, coeffs = ends[0][mask], ends[1][mask]
                        found = sorted((o, tuple(c)) for o, c in zip(offsets.tolist(),
                                                                     coeffs.tolist()))
                        expected = sorted((o, tuple(c.tolist())) for o, c, up in oracle
                                          if up == above)
                        assert found == expected, (g.edge_ids, t, weight_edge, k)
                        poles[above] += len(found)
                cases += 1
    assert cases > 400 and poles[True] > 30 and poles[False] > 500, (cases, poles)


def test_batched_quadrature_matches_scalar_oracle():
    """Lockstep batches take each integral's adaptive decisions as if it were
    alone: every chart of dimension 1-3, at unit and generic rates, with and
    without a weight edge, against one-integral-at-a-time recursion."""
    cases = diverged = unbounded = graded = 0
    for g, alpha, bridges in _oracle_charts():
        for generic in (False, True):
            lam = {eid: 1.0 + generic * 2.0 ** -(k + 3) for k, eid in enumerate(g.edge_ids)}
            lam.update({bid: 0.0 for bid in bridges})
            for t in enumerate_spanning_trees(g):
                spec = spec_for(g, alpha, lam, t)
                ev = int_mod._Evaluator(spec)
                limits = int_mod._ChamberLimits(ev.rows, ev.dim)
                if not 1 <= ev.dim <= 3 or limits.empty:
                    continue
                has_unbounded_level = any(not len(hi_b) for _, (hi_b, _) in limits.levels)
                for weight_edge in (None, min(cotree(g, t))):
                    try:
                        value, err, n_evals = oracle_quadrature(spec, 1e-8, weight_edge)
                    except QuadratureNonConvergence:
                        with pytest.raises(QuadratureNonConvergence):
                            integrate_quadrature(spec, 1e-8, weight_edge)
                        diverged += 1
                        continue
                    est = integrate_quadrature(spec, 1e-8, weight_edge)
                    assert est.n_evals == n_evals
                    assert abs(est.value - value) <= 1e-14 * abs(value)
                    assert abs(est.error - err) <= 1e-12 * abs(err)
                    cases += 1
                    unbounded += has_unbounded_level
                    graded += any(m.any() for level in _pole_masks(spec, weight_edge)
                                  for m in level)
    assert cases > 150 and diverged and unbounded > 100 and graded > 40


# The triangle's rates in the benchmark's quadrature workload at seed 7
SEED7_RATES = {"e1": Fraction(129, 128), "e2": Fraction(17, 16), "e3": Fraction(33, 32),
               "e4": Fraction(65, 64)}


def test_sinh_graded_charts_take_fewer_evaluations(triangle):
    """Panels graded toward a pole just beyond their level: the split
    triangle's corner chart {e1, e4} at the seed-7 rates takes 18 330
    evaluations (43 770 affinely), and chart {e1, e3} at the CLI's default
    rates 111 810 (340 050; with u formed from x in [-1, 1] rather than as
    an offset from the end nearest the pole, it ran to the panel limit).  The
    benchmark's reference chart {e3, e4} of the triangle has no pole and
    keeps its 900."""
    split = split_graph(triangle)
    corner = split_integrand_spec(split, SEED7_RATES, tree_of("e1", "e4", directed=True))
    assert integrate_quadrature(corner).n_evals <= 18_330
    defaults = cli_mod.default_rates(triangle)
    assert integrate_quadrature(split_integrand_spec(split, defaults,
                                                     tree_of("e1", "e3"))).n_evals <= 112_000
    reference = spec_for(triangle, ones(triangle), SEED7_RATES, tree_of("e3", "e4"))
    assert not any(m.any() for level in _pole_masks(reference) for m in level)
    assert integrate_quadrature(reference).n_evals == 900


@pytest.mark.parametrize("above", [True, False], ids=["pole-above", "pole-below"])
def test_sinh_map_nodes_and_jacobian(above):
    """The sinh map of 64 panels of (0, 1) onto (lo, hi), for a pole at
    relative distance 1e-12 to 1e6 beyond either end: the nodes lie strictly
    inside and increase, the Jacobian integrates to hi - lo, and far from the
    pole the nodes are the affine map's."""
    lo, hi = 0.25, 1.75
    a = np.arange(64) / 64
    b = a + 1 / 64
    t = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * int_mod._NODES
    for rho in 10.0 ** np.arange(-12, 6.5, 0.5):
        u, jac = int_mod._sinh_map(t, lo, hi, rho, above)
        nodes = u.ravel()
        assert lo < nodes[0] and nodes[-1] < hi and (np.diff(nodes) > 0).all(), rho
        kron = int_mod._gk_panels(jac, np.zeros_like(jac), a, b)[0]
        assert abs(math.fsum(kron) - (hi - lo)) <= 1e-13 * (hi - lo), rho
    assert np.abs(u - (lo + (hi - lo) * t)).max() <= 1e-9  # rho = 1e6


def test_quadrature_empty_chamber_is_zero():
    # nothing flows into a, so conservation at a forces z2 = 0
    g = DirectedGraph(
        ("x0", "a", "delta"), "delta", "x0",
        (Edge("e1", "x0", "delta", Fraction(1)), Edge("e2", "a", "x0", Fraction(1)),
         Edge("e3", "x0", "delta", Fraction(1))),
    )
    spec = spec_for(g, ones(g), ones(g), tree_of("e1", "e2"))
    est = integrate_quadrature(spec)
    assert (est.value, est.error, est.n_evals) == (0.0, 0.0, 0)


def test_quadrature_matches_mc_two_edge(two_edge):
    spec = spec_for(two_edge, ones(two_edge), {"e1": 1.0, "e2": 2.0}, tree_of("e2"))
    quad = integrate_quadrature(spec, tol=1e-9)
    mc = integrate_mc(spec, n=300_000, seed=4)
    assert abs(quad.value - mc.value) <= 3 * mc.error + 1e-8


def test_quadrature_dimension_cap():
    edges = tuple(Edge(f"e{i}", "x0", "delta", Fraction(1)) for i in range(1, 7))
    g = DirectedGraph(("x0", "delta"), "delta", "x0", edges)
    spec = spec_for(g, ones(g), zeros(g), tree_of("e1"))
    with pytest.raises(ValueError, match="dimension"):
        integrate_quadrature(spec)


def _loop_return_graph():
    return DirectedGraph(
        ("x0", "a", "delta"), "delta", "x0",
        (Edge("e1", "x0", "a", Fraction(1)), Edge("e2", "a", "x0", Fraction(1)),
         Edge("e3", "x0", "delta", Fraction(1))),
    )


def test_quadrature_nonconvergence_on_divergent_integral():
    g = _loop_return_graph()
    spec = spec_for(g, ones(g), zeros(g), tree_of("e2", "e3"))
    with pytest.raises(QuadratureNonConvergence):
        integrate_quadrature(spec, tol=1e-8)


def test_inner_level_nonconvergence_fails_fast_and_names_its_level(triangle):
    """At weight 0 on e2 the integrand of chart {e3, e4} goes as 1/u1 near
    u1 = 0, so the inner integrals whose interval (max(0, u0 - 1), u0) reaches
    0 diverge: the first of the batch to give up raises."""
    alpha = dict(ones(triangle), e2=0)
    spec = spec_for(triangle, alpha, ones(triangle), tree_of("e3", "e4"))
    with pytest.raises(QuadratureNonConvergence, match=r"^level 2 of 2: .* after \d+ panels$"):
        integrate_quadrature(spec, tol=1e-8)
    with pytest.raises(QuadratureNonConvergence, match="level 2 of 2"):
        oracle_quadrature(spec, 1e-8)


def test_running_panel_error_total_keeps_the_stopping_rule(triangle):
    """At rates e1 = e2 = 0 the inner integrals of chart {e1, e3} run to the
    panel budget: the running error totals stop them where the sums in heap
    order did, to the digit of the message."""
    lam = dict(ones(triangle), e1=0.0, e2=0.0)
    spec = spec_for(triangle, ones(triangle), lam, tree_of("e1", "e3"))
    with pytest.raises(QuadratureNonConvergence) as exc:
        integrate_quadrature(spec, tol=1e-8)
    assert str(exc.value) == ("level 2 of 2: error estimate 4.814e-08 above target "
                              "5.000e-10 after 4000 panels")


def test_evaluation_budget_stops_the_quadrature(triangle, monkeypatch):
    """A call whose integrand evaluations would pass _MAX_EVALS raises and
    names the budget; a budget of exactly the evaluations a chart takes
    leaves its estimate as it was."""
    spec = spec_for(triangle, ones(triangle), ones(triangle), tree_of("e3", "e4"))
    est = integrate_quadrature(spec, tol=1e-8)
    assert 0 < est.n_evals <= int_mod._MAX_EVALS // 20
    monkeypatch.setattr(int_mod, "_MAX_EVALS", est.n_evals)
    assert integrate_quadrature(spec, tol=1e-8) == est
    monkeypatch.setattr(int_mod, "_MAX_EVALS", est.n_evals - 1)
    with pytest.raises(QuadratureNonConvergence,
                       match=rf"^level 2 of 2: the budget of {est.n_evals - 1} integrand "
                             r"evaluations ran out after \d+$"):
        integrate_quadrature(spec, tol=1e-8)


def test_quadrature_unbounded_direction_converges_with_decay():
    g = _loop_return_graph()
    lam = {"e1": 1.0, "e2": 0.5, "e3": 0.25}
    spec = spec_for(g, ones(g), lam, tree_of("e2", "e3"))
    est = integrate_quadrature(spec, tol=1e-9)
    # oracle: z = (u, u, 1), so I = int_0^inf e^{-1.5u - 0.25} u du = e^{-0.25}/2.25
    assert abs(est.value - math.exp(-0.25) / 2.25) <= 1e-9


# ---------------------------------------------------------------------------
# Monte Carlo integration
# ---------------------------------------------------------------------------

def test_mc_requires_samples(two_edge):
    spec = spec_for(two_edge, ones(two_edge), zeros(two_edge), tree_of("e1"))
    with pytest.raises(ValueError, match="samples"):
        integrate_mc(spec, 0, 0)
    # one sample has no standard error; an infinite one would pass every gate
    with pytest.raises(ValueError, match="at least 2 samples"):
        integrate_mc(spec, 1, 0)


def test_mc_rejects_nonpositive_proposal_shape(triangle):
    split = split_graph(triangle)
    h = split.graph
    bad_tree = tree_of("e1", "e2", "e3", "e4")  # bridges in the cotree
    spec = spec_for(h, h.alpha_map(), {eid: 0.5 for eid in h.edge_ids}, bad_tree)
    with pytest.raises(ValueError, match="positive exponents"):
        integrate_mc(spec, 100, 0)


def test_mc_deterministic(two_edge):
    spec = spec_for(two_edge, ones(two_edge), {"e1": 1.0, "e2": 2.0}, tree_of("e1"))
    a = integrate_mc(spec, 1000, seed=5)
    b = integrate_mc(spec, 1000, seed=5)
    assert a == b


def _split_specs(g, alpha, count=None):
    w = DirichletWeights.from_graph(g, alpha)
    lam = {eid: 1 + 2.0 ** -(k + 4) for k, eid in enumerate(g.edge_ids)}
    trees = enumerate_spanning_trees(g, directed_only=True)[:count]
    return [split_integrand_spec(split_graph(g, w.alpha), lam, t) for t in trees]


def _mc_specs():
    """Every directed-tree chart of split K3 at unit weights, a split triangle
    chart, and K3 charts at weights other than 1."""
    return (_split_specs(complete_graph(3), {})
            + _split_specs(builtin_graph("triangle"), {"e1": 2, "e4": Fraction(1, 2)}, 1)
            + _split_specs(complete_graph(3), {"e2": Fraction(3, 2), "e7": Fraction(2, 3)}, 4))


def _two_diamond_specs():
    """Every directed-tree chart of split two-diamond, at weights other than 1.
    A cotree edge into a vertex with one in-edge, as e1 into a under the tree
    {e5, e2, e3, e6}, shares its coordinate with that vertex's tree edges."""
    return _split_specs(builtin_graph("two-diamond"), {"e1": Fraction(3, 2), "e4": 2})


def test_mc_matches_unblocked_oracle():
    """Every estimate equals, to the bit, the oracle's one-pass estimate at the
    same (n, seed), with the Kish effective sample size of its weights, and a
    new seed or n draws afresh."""
    n, seed = 20_000, 9
    specs = _mc_specs()
    for spec in specs:
        est = integrate_mc(spec, n, seed)
        value, error, ess = oracle_integrate_mc(spec, n, seed)
        assert (est.value, est.error, est.ess) == (value, error, ess)
        vals = np.zeros(n)
        inside, logw = oracle_log_weights(spec, n, seed)
        vals[inside] = np.exp(logw)
        assert est.ess == pytest.approx(vals.sum() ** 2 / (vals ** 2).sum(), rel=1e-12)
        assert 1 <= est.ess <= n
    spec, first = specs[0], integrate_mc(specs[0], n, seed)
    for n2, seed2 in [(n, seed + 1), (n + 1, seed)]:
        est = integrate_mc(spec, n2, seed2)
        assert est != first
        assert (est.value, est.error, est.ess) == oracle_integrate_mc(spec, n2, seed2)


@pytest.mark.parametrize("block_rows", [1001, env_mod.BLOCK_ROWS])
def test_mc_log_weights_match_one_pass(monkeypatch, block_rows):
    """The weights fed to the running moments, block by block, are the
    one-pass oracle's to the bit, exp(log weight) inside the chamber and 0
    outside it, with or without a weight edge, for blocks of 1001 points
    (a stream contract of its own) and of the default size."""
    monkeypatch.setattr(env_mod, "BLOCK_ROWS", block_rows)
    monkeypatch.setattr(int_mod, "Moments", RecordingMoments)
    n, seed = 20_000, 9
    k3 = complete_graph(3)
    specs = _mc_specs()[::3] + _two_diamond_specs()
    specs += _split_specs(k3, {"e1": Fraction(3, 2), "e7": Fraction(1, 3)}, 2)
    for spec, e in [(s, None) for s in specs] + [(specs[-1], split_graph(k3).bridge_ids[0])]:
        RecordingMoments.fed = []
        integrate_mc(spec, n, seed, weight_edge=e)
        assert len(RecordingMoments.fed) == -(-n // block_rows)
        inside, logw = oracle_log_weights(spec, n, seed, e)
        want = np.zeros(n)
        want[inside] = np.exp(logw)
        assert np.array_equal(np.concatenate(RecordingMoments.fed), want)


def test_mc_memory_is_bounded():
    """On a split K3 chart, the estimator's traced peak stays below 4 |E|
    rows of one block, at 50 000 and at 500 000 points: it draws, tests and
    weighs one block at a time and holds nothing of length n."""
    spec = _split_specs(complete_graph(3), {}, 1)[0]
    integrate_mc(spec, 2, 7)  # lazy imports and caches stay out of the peak
    bound = 4 * len(spec.graph.edge_ids) * env_mod.BLOCK_ROWS * 8
    for n in (50_000, 500_000):
        tracemalloc.start()
        try:
            integrate_mc(spec, n, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, (n, peak, bound)


def test_no_monte_carlo_array_outlives_its_call():
    """Once `integrate_mc` and `mc_laplace_by_tree` return, the traced memory
    is back to its level before the call: no draw or block is cached."""
    k3 = complete_graph(3)
    spec = _split_specs(k3, {}, 1)[0]
    w = DirichletWeights.from_graph(k3)
    lam = {eid: 1 + 2.0 ** -(k + 4) for k, eid in enumerate(k3.edge_ids)}
    trees = enumerate_spanning_trees(k3, directed_only=True)
    calls = [lambda: integrate_mc(spec, 100_000, 7),
             lambda: mc_laplace_by_tree(k3, w, lam, trees, 100_000, 7)]
    for call in calls:
        call()  # lazy imports and caches of the graph's charts stay out
    tracemalloc.start()
    try:
        for call in calls:
            gc.collect()  # the interpreter's free lists hold no array
            before = tracemalloc.get_traced_memory()[0]
            call()
            gc.collect()
            assert tracemalloc.get_traced_memory()[0] - before < 4096
    finally:
        tracemalloc.stop()


def test_mc_chamber_test_matches_flows():
    """The chamber test on coordinate rows selects exactly the points where every
    flow is positive, zero coordinates included, and writes the mixed flows
    of every point to the bit, each flow its offset plus its coefficients
    times the coordinates in coordinate order; a bare row's flow is its
    coordinate.  The oracle tests above run it over several blocks."""
    for spec in _mc_specs():
        ev = int_mod._Evaluator(spec)
        u = np.random.default_rng(11).gamma(1.0, size=(20_000, ev.dim))
        u[::97, -1] = 0.0  # a gamma draw that underflowed
        z = oracle_flows(ev, u)
        zt = np.empty((len(ev.mixed), len(u)))
        inside = ev.chamber(np.ascontiguousarray(u.T), zt)
        assert np.array_equal(inside, (z > 0).all(axis=1))
        assert not inside[::97].any()
        assert np.array_equal(zt, z[:, ev.mixed].T)
        assert set(ev.bare.values()) == set(range(ev.dim))
        assert all(np.array_equal(z[:, i], u[:, j]) for i, j in ev.bare.items())


def test_integrand_matches_row_sum_formula():
    """The evaluator's integrand is exp(-<rates, z> + <exps, log z>), the flows
    z from `oracle_flows` and each inner product a numpy row sum, to 1e-12 at
    every point inside the chamber, and 0 outside: every chart of dimension
    1-4 of the builtins, their split graphs and random graphs, at generic
    rates, with and without a weight edge."""
    rng = np.random.default_rng(15)
    charts = 0
    for g, alpha, bridges in _oracle_charts():
        lam = {eid: 1.0 + 2.0 ** -(k + 3) for k, eid in enumerate(g.edge_ids)}
        lam.update({bid: 0.0 for bid in bridges})
        for t in enumerate_spanning_trees(g):
            free = cotree(g, t)
            if not 1 <= len(free) <= 4:
                continue
            for weight_edge in (None, min(free)):
                ev = int_mod._Evaluator(spec_for(g, alpha, lam, t), weight_edge)
                u = rng.uniform(-0.25, 2.0, size=(200, ev.dim))
                z = oracle_flows(ev, u)
                inside = (z > 0).all(axis=1)
                zin = z[inside]
                want = np.exp(-(zin * ev.lam).sum(axis=1) + (np.log(zin) * ev.exps).sum(axis=1))
                got = ev(np.ascontiguousarray(u.T))
                assert not got[~inside].any()
                np.testing.assert_allclose(got[inside], want, rtol=1e-12, atol=0)
                charts += 1
    assert charts > 100


def test_weighted_mc_matches_unblocked_oracle():
    """With a weight edge, a bridge, a tree edge or a cotree one, at weights
    other than 1 on split K3, every estimate is the one-pass oracle's to the
    bit."""
    k3 = complete_graph(3)
    specs = _split_specs(k3, {"e1": Fraction(3, 2), "e2": Fraction(2, 3), "e5": 2,
                              "e7": Fraction(1, 3)}, 3)
    for spec in specs:
        cotree_edge = next(eid for eid in spec.graph.edge_ids if eid not in spec.tree.edges)
        tree_edge = next(eid for eid in sorted(spec.tree.edges) if eid in k3.edge_by_id)
        for e in (cotree_edge, tree_edge, split_graph(k3).bridge_ids[0]):
            est = integrate_mc(spec, 20_000, 13, weight_edge=e)
            assert (est.value, est.error) == oracle_integrate_mc(spec, 20_000, 13, e)[:2], e


def test_mc_merges_each_proposal_term_once():
    """Charts where a coordinate is the flow of several bare rows weigh each
    point by the integrand over the proposal density with each coordinate's
    log density taken once: the weights fed to the moments match the
    unmerged oracle's to 1e-12, and the estimate agrees with quadrature."""
    specs = _two_diamond_specs()
    tree = frozenset({"e5", "e2", "e3", "e6"})
    spec = next(s for s in specs if tree <= s.tree.edges)
    coords = list(int_mod._Evaluator(spec).bare.values())
    assert any(coords.count(j) > 1 for j in coords)  # e1, @a and e2 all read u_e1
    n, seed = 20_000, 9
    for s in specs + _mc_specs()[::5]:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(int_mod, "Moments", RecordingMoments)
            RecordingMoments.fed = []
            integrate_mc(s, n, seed)
        inside, logw = oracle_unmerged_log_weights(s, n, seed)
        want = np.zeros(n)
        want[inside] = np.exp(logw)
        np.testing.assert_allclose(np.concatenate(RecordingMoments.fed), want, rtol=1e-12, atol=0)
    est, quad = integrate_mc(spec, 200_000, 3), integrate_quadrature(spec)
    assert abs(est.value - quad.value) < 4 * est.error, (est, quad)


def test_verify_identity_reports_what_decided_it():
    """Above split dimension MAX_QUAD_DIM the certificate alone decides a
    tree's verdict and no flow side is reported; at or below it the
    quadrature left side, without an effective sample size, and its
    agreement gate decide with the certificate."""
    k3 = complete_graph(3)
    w = DirichletWeights.from_graph(k3)
    lam = {eid: 1.0 for eid in k3.edge_ids}
    tree = enumerate_spanning_trees(k3, directed_only=True)[0]
    [rep] = verify_theorem_2_1(k3, w, lam, [tree], n=5000, seed=3)
    assert "lhs" not in rep and "agreement" not in rep
    assert rep["decided_by"] == ["certificate"] and rep["pass"] is rep["certificate"]["pass"] is True
    triangle = builtin_graph("triangle")
    [rep] = verify_theorem_2_1(triangle, DirichletWeights.from_graph(triangle),
                               {eid: 1.0 for eid in triangle.edge_ids},
                               [tree_of("e3", "e4", directed=True)], n=5000, seed=3)
    assert rep["lhs"]["method"] == "quadrature" and "ess" not in rep["lhs"]
    assert rep["decided_by"] == ["certificate", "agreement"]
    assert rep["pass"] is (rep["certificate"]["pass"] and rep["agreement"]["pass"]) is True


# ---------------------------------------------------------------------------
# normalization constant
# ---------------------------------------------------------------------------

def test_c_alpha_values(two_edge, chain):
    assert constant_C_alpha(two_edge, DirichletWeights.from_graph(two_edge)) == pytest.approx(1.0)
    w = DirichletWeights.from_graph(two_edge, {"e1": 2})
    assert constant_C_alpha(two_edge, w) == pytest.approx(2.0)
    # single out-edge vertices contribute gamma(a)/gamma(a) = 1
    assert constant_C_alpha(chain, DirichletWeights.from_graph(chain)) == pytest.approx(1.0)


def test_lgamma_matches_scipy_gammaln_on_weights():
    """math.lgamma against scipy's gammaln on the benchmark's edge weights and
    on every vertex total of up to four of them."""
    from itertools import combinations_with_replacement

    from scipy.special import gammaln

    weights = [0.5, 2 / 3, 1.0, 1.5, 2.0]
    values = {sum(c) for r in range(1, 5) for c in combinations_with_replacement(weights, r)}
    for v in values:
        assert math.lgamma(v) == pytest.approx(float(gammaln(v)), rel=1e-13, abs=1e-13)


def test_c_alpha_overflow():
    g = bundled_graphs()[0]
    w = DirichletWeights.from_graph(g, {"e1": 600, "e2": 600})
    with pytest.raises(OverflowError):
        constant_C_alpha(g, w)


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

def test_pairing_identity_two_edge_closed_form(two_edge):
    # <z, lam> = lam1 + t (lam2 - lam1) for z = (1-t, t)
    t = Fraction(3, 7)
    z = oracle_tree_coordinates(two_edge, tree_of("e1"), {"e2": t})
    lam = {"e1": Fraction(5), "e2": Fraction(-2)}
    assert oracle_pairing_residual(two_edge, tree_of("e1"), z, lam) == 0


def test_pairing_identity_random_exact():
    rng = np.random.default_rng(6)
    for g in bundled_graphs() + random_graphs(seed=7, count=6):
        trees = tree_basis(g)
        for _ in range(20):
            chart = trees[int(rng.integers(0, len(trees)))]
            u = {eid: Fraction(int(rng.integers(-24, 25)), 8) for eid in cotree(g, chart)}
            z = oracle_tree_coordinates(g, chart, u)
            lam = {eid: Fraction(int(rng.integers(-40, 41)), 4) for eid in g.edge_ids}
            t = trees[int(rng.integers(0, len(trees)))]
            assert oracle_pairing_residual(g, t, z, lam) == 0


def test_pairing_identity_zero_rates(triangle):
    z = oracle_tree_coordinates(triangle, tree_of("e3", "e4"),
                                {"e1": Fraction(1, 2), "e2": Fraction(1, 4)})
    lam = {eid: Fraction(0) for eid in triangle.edge_ids}
    assert oracle_pairing_residual(triangle, tree_of("e3", "e4"), z, lam) == 0


@pytest.mark.parametrize("n", [1, 100, env_mod.BLOCK_ROWS + 1])
def test_pairing_residual_matches_oracle(n):
    """The integer blocks give the oracle's max residual, one triple at a
    time in Fractions from the same draws, on the builtins and random graphs."""
    for seed, g in enumerate(bundled_graphs() + random_graphs(seed=7, count=3)):
        trees = enumerate_spanning_trees(g)
        assert int_mod.pairing_residual(g, trees, n, seed) == oracle_pairing(g, trees, n, seed)


def test_cohomology_identity_two_edge(two_edge):
    spec = spec_for(two_edge, ones(two_edge), {"e1": 1.0, "e2": 2.0}, tree_of("e1"))
    rep = cohomology_identity_check(spec, "e2")
    assert rep["pass"] and rep["diff"] <= 1e-8
    assert rep["diff"] <= rep["bound"]


def test_cohomology_identity_symmetric_rates(two_edge):
    # equal rates and weights kill the cycle form, so both tree integrals agree
    spec = spec_for(two_edge, ones(two_edge), {"e1": 1.5, "e2": 1.5}, tree_of("e1"))
    rep = cohomology_identity_check(spec, "e2")
    assert rep["pass"] and rep["diff"] <= 1e-9 and abs(rep["lhs"]["value"]) <= 1e-12
    terms = {t["edge"]: t["integral"] for t in rep["rhs"]["terms"]}
    assert terms["e1"] == pytest.approx(terms["e2"], abs=1e-9)


def test_cohomology_identity_triangle(triangle):
    lam = {"e1": 1.0, "e2": 2.0, "e3": 3.0, "e4": 4.0}
    spec = spec_for(triangle, ones(triangle), lam, tree_of("e3", "e4"))
    rep = cohomology_identity_check(spec, "e1")
    assert rep["pass"]


def test_cohomology_identity_general_weights(two_edge):
    # the exchange carries the edge weights; exercised away from unit weights
    alpha = {"e1": 2, "e2": Fraction(3, 2)}
    spec = spec_for(two_edge, alpha, {"e1": 1.0, "e2": 2.3}, tree_of("e1"))
    rep = cohomology_identity_check(spec, "e2")
    assert rep["pass"] and rep["diff"] <= 1e-8


def test_cohomology_rejects_tree_edge(two_edge):
    spec = spec_for(two_edge, ones(two_edge), zeros(two_edge), tree_of("e1"))
    with pytest.raises(ValueError):
        cohomology_identity_check(spec, "e1")


# ---------------------------------------------------------------------------
# the tree-weighted Laplace identity
# ---------------------------------------------------------------------------

def test_verify_identity_two_edge_closed_form(two_edge):
    w = DirichletWeights.from_graph(two_edge)
    [rep] = verify_theorem_2_1(two_edge, w, {"e1": 1.0, "e2": 0.0},
                               [tree_of("e1", directed=True)], n=150_000, seed=8)
    assert rep["pass"]
    assert rep["lhs"]["value"] == pytest.approx(1 - 2 / math.e, abs=1e-7)


def test_verify_identity_beta_moment(two_edge):
    w = DirichletWeights.from_graph(two_edge, {"e1": 2})
    [rep] = verify_theorem_2_1(two_edge, w, zeros(two_edge),
                               [tree_of("e1", directed=True)], n=100_000, seed=9)
    assert rep["pass"]
    assert rep["lhs"]["value"] == pytest.approx(2 / 3, abs=1e-7)


def test_verify_identity_requires_directed_tree(two_edge):
    w = DirichletWeights.from_graph(two_edge)
    with pytest.raises(ValueError, match="directed"):
        verify_theorem_2_1(two_edge, w, zeros(two_edge), [tree_of("e1")], 10, 0)


def test_thm21_routes_at_the_quadrature_dimension_limit(monkeypatch):
    """verify_theorem_2_1 integrates the flow side by quadrature, and the
    Dirichlet side by the tensor Gauss-Jacobi rule, up to split dimension
    MAX_QUAD_DIM; above it the flow side is not integrated and the Dirichlet
    side is Monte Carlo: K3 without e2 and e5 has split dimension 4, and K3
    without e2 has dimension 5.  Spies stand in for the flow integrators,
    so no 4-dimensional quadrature runs, and quadrature itself refuses
    dimension 5 with the limit in its message."""
    real_quadrature = int_mod.integrate_quadrature
    calls = []

    def quadrature(spec, tol=1e-8, weight_edge=None):
        calls.append(("quadrature", int_mod._Evaluator(spec).dim))
        return int_mod.IntegralEstimate(1.0, 0.0, "quadrature", 1)

    def mc(spec, n, seed, weight_edge=None):
        calls.append(("monte-carlo", int_mod._Evaluator(spec).dim))
        return int_mod.IntegralEstimate(1.0, 0.0, "monte-carlo", n, 1.0)

    monkeypatch.setattr(int_mod, "integrate_quadrature", quadrature)
    monkeypatch.setattr(int_mod, "integrate_mc", mc)
    k3 = complete_graph(3)
    for dropped, dim in [(("e2", "e5"), 4), (("e2",), 5)]:
        g = DirectedGraph(k3.vertices, k3.cemetery, k3.base,
                          tuple(e for e in k3.edges if e.id not in dropped))
        assert validate(g) == []
        trees = enumerate_spanning_trees(g, directed_only=True)
        lam = {eid: 1.0 for eid in g.edge_ids}
        calls.clear()
        reports = verify_theorem_2_1(g, DirichletWeights.from_graph(g), lam, trees, n=100)
        assert all(r["certificate"]["pass"] for r in reports)
        if dim <= int_mod.MAX_QUAD_DIM:
            assert calls == [("quadrature", dim)] * len(trees)
            assert [r["lhs"]["method"] for r in reports] == ["quadrature"] * len(trees)
            assert [r["rhs"]["method"] for r in reports] == ["gauss-jacobi"] * len(trees)
        else:
            assert calls == []
            assert all("lhs" not in r and r["decided_by"] == ["certificate"] for r in reports)
            # a Monte Carlo estimate of the 100 samples asked for
            assert all(set(r["rhs"]) == {"value", "std_error", "n_samples", "seed"}
                       and r["rhs"]["n_samples"] == 100 for r in reports)
    spec = split_integrand_spec(split_graph(g), lam, trees[0])
    with pytest.raises(ValueError, match=r"quadrature supports dimension <= 4, got 5"):
        real_quadrature(spec)


WEIGHTS = ["1/3", "1/2", "2/3", "1", "3/2", "2"]


@pytest.mark.parametrize("m", [16, 32])
def test_gauss_jacobi_matches_scipy(m):
    """The Newton nodes and weights against scipy's roots_jacobi, whose
    weights sum to the weight function's integral, 2^(a+b+1) B(a+1, b+1)."""
    special = pytest.importorskip("scipy.special")
    for a in map(Fraction, WEIGHTS):
        for b in map(Fraction, WEIGHTS):
            x, w = int_mod.gauss_jacobi(m, float(a), float(b))
            x_ref, w_ref = special.roots_jacobi(m, float(a), float(b))
            mass = 2 ** float(a + b + 1) * special.beta(float(a + 1), float(b + 1))
            assert np.abs(x - x_ref).max() <= 4e-16, (a, b)
            assert np.abs(w * mass - w_ref).max() <= 1e-13, (a, b)


def _every_edge_at(g, weight):
    return DirichletWeights({eid: Fraction(weight) for eid in g.edge_ids})


@pytest.mark.parametrize("weight", WEIGHTS)
@pytest.mark.parametrize("name", ["triangle", "two-diamond"])
def test_gauss_jacobi_gap_bounds_the_next_order(name, weight):
    """The reported error of the Dirichlet side, the gap between the rules
    of order 16 and 32, bounds the gap between orders 32 and 64, on every
    directed tree, with every edge at the weight."""
    g = builtin_graph(name)
    w, lam = _every_edge_at(g, weight), cli_mod.default_rates(g)
    trees = env_mod.directed_trees(g)
    coarse, fine = int_mod.GAUSS_JACOBI_ORDERS
    finer, _ = int_mod._tensor_rule(g, w, lam, trees, 2 * fine)
    for est, q64 in zip(int_mod.gauss_jacobi_laplace_by_tree(g, w, lam, trees), finer):
        assert est.method == "gauss-jacobi" and est.n_evals == coarse ** 2 + fine ** 2
        assert abs(est.value - q64) <= est.error, (weight, est, q64)


@pytest.mark.parametrize("weight", ["1", "3/2", "2"])
@pytest.mark.parametrize("name", ["two-edge", "triangle", "two-diamond", "chain"])
def test_thm21_sides_agree_on_the_builtins(name, weight):
    """At weights 1, 3/2 and 2 on every edge, the quadrature flow side and
    the Gauss-Jacobi Dirichlet side of every directed tree agree within 1e-8
    relative, and the verdict passes."""
    g = builtin_graph(name)
    for rep in verify_theorem_2_1(g, _every_edge_at(g, weight), cli_mod.default_rates(g),
                                  env_mod.directed_trees(g)):
        lhs, rhs = rep["lhs"]["value"], rep["rhs"]["value"]
        assert rep["pass"] and abs(lhs - rhs) <= 1e-8 * abs(rhs), rep


def test_stick_breaking_on_a_vertex_of_three_exits():
    """On K3 without e2 and e5, vertex a keeps three exits, two Beta factors,
    and the rule has dimension 4: each directed tree's value lies within
    four standard errors of the Monte Carlo average of 200 000 samples."""
    k3 = complete_graph(3)
    g = DirectedGraph(k3.vertices, k3.cemetery, k3.base,
                      tuple(e for e in k3.edges if e.id not in ("e2", "e5")))
    assert [len(g.out_edges[x]) for x in g.interior] == [2, 3, 2]
    w, lam = DirichletWeights.from_graph(g), cli_mod.default_rates(g)
    trees = env_mod.directed_trees(g)
    _, mc = mc_laplace_by_tree(g, w, lam, trees, 200_000, 1)
    rule = int_mod.gauss_jacobi_laplace_by_tree(g, w, lam, trees)
    assert len(trees) == 8
    assert {est.n_evals for est in rule} == {sum(m ** 4 for m in int_mod.GAUSS_JACOBI_ORDERS)}
    for est, ref in zip(rule, mc):
        assert abs(est.value - ref.value) <= 4 * ref.std_error, (est, ref)


def _certificates(g, alpha=None):
    """The certificate of Theorem 2.1 for every directed tree of g."""
    w = DirichletWeights.from_graph(g, alpha)
    return int_mod.thm21_certificate(g, w, enumerate_spanning_trees(g, directed_only=True))


def _miller_rabin_64(n: int) -> bool:
    """Deterministic below 2^64 with the first twelve primes as bases."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@pytest.mark.parametrize("name", ["two-edge", "triangle", "two-diamond", "chain", "K3", "K4"])
def test_thm21_certificate_passes(name):
    """Every directed tree of every builtin, K3 and K4 passes all three
    checks, at a prime of at least 2^61, with the degree bound of its
    docstring and the Schwartz-Zippel bound it gives."""
    g = complete_graph(int(name[1])) if name[0] == "K" else builtin_graph(name)
    reports = _certificates(g)
    assert len(reports) == {"K3": 16, "K4": 125}.get(name, len(reports))
    p = int_mod.THM21_PRIME
    assert p >= 2**61 and _miller_rabin_64(p)
    for rep, tree in zip(reports, enumerate_spanning_trees(g, directed_only=True)):
        assert rep["pass"] and rep["jacobian"] and rep["chart"] and rep["exponents"]
        m, n = len(cotree(g, tree)), len(g.interior)
        assert rep["prime"] == p and rep["degree_bound"] == m * (2 * n - 1) + 2 * n
        assert rep["false_pass_bound"] == rep["degree_bound"] / p
        assert len(rep["points"]) == 1
        assert all(sorted(pt) == list(cotree(g, tree)) and all(0 <= v < p for v in pt.values())
                   for pt in rep["points"])


def test_thm21_certificate_passes_on_random_graphs_at_small_weights():
    """On random graphs with weights from (0, 2], many below 1 where the flow
    side's quadrature does not converge, every directed tree passes."""
    rng = np.random.default_rng(31)
    below_one = 0
    for g in random_graphs(31, 12):
        alpha = {eid: Fraction(int(rng.integers(1, 17)), 8) for eid in g.edge_ids}
        below_one += sum(a < 1 for a in alpha.values())
        reports = _certificates(g, alpha)
        assert reports and all(rep["pass"] for rep in reports), g
    assert below_one >= 10


def test_thm21_certificate_jacobian_by_finite_differences(triangle):
    """The identity of check (a), independently of the certificate: central
    differences of the exact occupation flows (`edge_occupation`) in the free
    exits give det[dz_e / d omega_f] det(I - P) = prod t_tail(e) on every
    directed tree of the triangle and of K3."""
    for g in (triangle, complete_graph(3)):
        rng = np.random.default_rng(5)
        for tree in enumerate_spanning_trees(g, directed_only=True):
            free = cotree(g, tree)
            exit_of = {g.edge_by_id[e].tail: e for e in tree.edges}
            base = {f: float(rng.uniform(0.05, 0.3)) for f in free}

            def occupation(omega):
                p = dict(omega)
                for x, e in exit_of.items():
                    p[e] = 1 - sum(omega[f] for f in free if g.edge_by_id[f].tail == x)
                env = env_mod.Environment(p)
                return env_mod.edge_occupation(g, env), env
            h = 1e-6
            jac = np.empty((len(free), len(free)))
            for j, f in enumerate(free):
                up, _ = occupation({**base, f: base[f] + h})
                down, _ = occupation({**base, f: base[f] - h})
                jac[:, j] = [(up[e] - down[e]) / (2 * h) for e in free]
            z, env = occupation(base)
            t = {e: z[e] / env[e] for e in free}
            ratio = np.linalg.det(jac) * env_mod.survival_determinant(g, env) / math.prod(t.values())
            assert ratio == pytest.approx(1.0, rel=1e-6), tree


def _heavy_bridge(split_graph_fn):
    """split_graph with the first bridge's weight scaled by 1025/1024."""
    def split(g, alpha=None):
        s = split_graph_fn(g, alpha)
        bid = s.bridge_ids[0]
        edges = tuple(replace(e, alpha=e.alpha * Fraction(1025, 1024)) if e.id == bid else e
                      for e in s.graph.edges)
        return SplitGraph(replace(s.graph, edges=edges), s.bridge_of)
    return split


def _uncounted_cotree_edge(exponents_fn):
    """chart_exponents without the -1 of the first cotree edge."""
    def exponents(spec, weight_edge=None):
        exps = exponents_fn(spec, weight_edge)
        i = spec.graph.edge_ids.index(cotree(spec.graph, spec.tree)[0])
        exps[i] = (exps[i][0], exps[i][1][1:])
        return exps
    return exponents


def _tree_weight_short_one_exit(probability_fn):
    """tree_probability whose tree weight leaves out an exit of T at a
    vertex with more than one out-edge."""
    def probability(g, env, tree):
        e = next(e for e in sorted(tree.edges)
                 if len(g.out_edges[g.edge_by_id[e].tail]) > 1)
        return probability_fn(g, env, tree) / Fraction(env.p[e])
    return probability


@pytest.mark.parametrize("name", ["triangle", "K3"])
@pytest.mark.parametrize("target, mutate", [
    ("split_graph", _heavy_bridge),
    ("chart_exponents", _uncounted_cotree_edge),
    ("tree_probability", _tree_weight_short_one_exit),
], ids=["bridge-weight", "cotree-exponent", "tree-weight"])
def test_thm21_certificate_fails_a_wrong_integrand(monkeypatch, name, target, mutate):
    """A bridge weight scaled by 1025/1024, a cotree edge's exponent left at
    alpha_e, or a tree weight short of one exit each FAIL the exponent check
    on every directed tree, and the Jacobian and chart checks still pass."""
    g = complete_graph(3) if name == "K3" else builtin_graph(name)
    monkeypatch.setattr(int_mod, target, mutate(getattr(int_mod, target)))
    for rep in _certificates(g):
        assert rep["jacobian"] and rep["chart"]
        assert not rep["exponents"] and not rep["pass"]


def test_thm21_certificate_fails_a_wrong_chart(monkeypatch):
    """One coordinate sign flipped in the split chart's row of a tree edge
    FAILs the chart check of that tree alone."""
    g = builtin_graph("triangle")
    tree = tree_of("e3", "e4", directed=True)
    real = int_mod.tree_coordinate_map

    def flipped(graph, t):
        free, rows = real(graph, t)
        if not tree.edges <= t.edges:
            return free, rows
        off, coeffs = rows["e3"]
        assert coeffs[0] != 0
        return free, {**rows, "e3": (off, (-coeffs[0], *coeffs[1:]))}
    monkeypatch.setattr(int_mod, "tree_coordinate_map", flipped)
    reports = _certificates(g)
    trees = enumerate_spanning_trees(g, directed_only=True)
    assert [r["chart"] for r in reports] == [t.edges != tree.edges for t in trees]
    assert all(r["jacobian"] and r["exponents"] for r in reports)


def test_split_spec_rejects_bridge_rates(two_edge):
    split = split_graph(two_edge)
    with pytest.raises(ValueError, match="bridge"):
        split_integrand_spec(split, {"e1": 1.0, "e2": 0.0, "@x0": 1.0},
                             tree_of("e1", directed=True))


def test_split_bridge_coordinates_positive_on_chamber(triangle):
    split = split_graph(triangle)
    spec = split_integrand_spec(split, {eid: 1.0 for eid in triangle.edge_ids},
                                tree_of("e3", "e4", directed=True))
    ev = int_mod._Evaluator(spec)
    rng = np.random.default_rng(10)
    pts = rng.random((200, ev.dim)) * 2
    z = oracle_flows(ev, pts)
    inside = (z > 0).all(axis=1)
    cols = [split.graph.edge_ids.index(b) for b in split.bridge_ids]
    assert inside.any()
    assert (z[np.ix_(inside, cols)] > 0).all()


def test_integral_vector_flags_divergent():
    """With no decay along the directed cycle no chart converges, and the
    vector raises the quadrature's message; with decay it is whole."""
    g = _loop_return_graph()
    trees = tree_basis(g)
    with pytest.raises(QuadratureNonConvergence, match="panels"):
        integral_vector(g, ones(g), zeros(g), trees)
    lam = {"e1": 1.0, "e2": 1.0, "e3": 1.0}
    vals, errs = integral_vector(g, ones(g), lam, trees)
    assert vals.shape == errs.shape == (len(trees),)
    assert np.isfinite(vals).all() and (errs >= 0).all()
