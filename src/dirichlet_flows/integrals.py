"""Numerical evaluation of flow-polytope integrals and the identity checks.

For a spanning tree T, the cotree coordinates parametrize the space of flows
with unit mass at the base, and the integral of

    exp(-<rates, z>) * prod_e z_e^{alpha_e} * prod_{e cotree} z_e^{-1}

over the all-positive chamber is evaluated either by nested adaptive
Gauss-Kronrod quadrature (dimension at most MAX_QUAD_DIM) or by
gamma-proposal importance sampling.  Both take the integrand from one kernel,
`_Evaluator.log_values`, at the exponents of `chart_exponents`: at points
given by their coordinate rows it tests the chamber and sums a_e log z_e -
b_e z_e over the edges, each flow formed as its offset plus coefficients
times coordinate rows.  Quadrature passes the exponents and rates as (a, b);
Monte Carlo passes them with the proposal's log density merged in.  Every sum
is of rows added in a fixed order, with no BLAS product, so no value depends
on the BLAS thread count.  Points outside the chamber get 0, so Monte Carlo
proposals that leave it get weight zero.

Quadrature runs over the chamber itself: Fourier-Motzkin elimination of the
chamber inequalities, in exact rationals, gives each nested level the interval
of its coordinate given the outer ones, so no Gauss-Kronrod panel lies where
the integrand vanishes.  Each level integrates a whole batch of sibling
integrals in lockstep, one adaptive heap per integral: a round evaluates the
new panels of all of them with one vectorized call, so the integrand is called
once per round rather than once per panel.  A level that runs to infinity
starts on four graded panels in t, its unbounded tail already bisected; a
bounded level with a pole of the integrand just beyond an end grades its
panels toward that end by a sinh map.  A pole is a chamber row whose flows'
exponents sum below 0, so the elimination hands it to the level of its last
coordinate as one of that level's limits, and one pass over a level's limits
gives both its interval and the nearest pole beyond it.

`verify_theorem_2_1` is the one entry to the tree-weighted Laplace identity
on the vertex-split graph, for a list of directed trees.  What decides it is
`thm21_certificate`: the identity is the change of variables from
environments to occupation flows, and the certificate checks its Jacobian,
the tree chart and the integrand's exponents exactly, modulo a 64-bit prime.
The Dirichlet side, of the flow side's dimension, comes from a tensor
Gauss-Jacobi rule over the environments, stick-broken into Beta factors
(`gauss_jacobi_laplace_by_tree`), with the gap between two rule orders as
its error: up to dimension MAX_QUAD_DIM at the orders GAUSS_JACOBI_ORDERS,
and above at orders that fit GAUSS_JACOBI_POINTS points, where the larger
is at least 6 and every edge weight at least 1.  Elsewhere above MAX_QUAD_DIM
(K4, or a weight below 1) it is `environment.mc_laplace_by_tree`'s Monte
Carlo average.  Up to MAX_QUAD_DIM quadrature integrates the flow side as
well, the agreement of the two sides then gates the verdict too, and no
side depends on a seed or a sample count; above, no flow integral is
computed.  Importance sampling (`integrate_mc`) decides no command's
verdict.

The same module checks the two structural identities behind the flat
connection: the divergence pairing, exactly, on integer blocks of random
triples (`pairing_residual`), and the exchange between adjacent tree
integrals.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .combinatorics import (
    SpanningTree,
    cotree,
    fundamental_cycle,
    is_spanning_tree,
    spanning_tree,
    tree_coordinate_map,
)
from .environment import (
    DirichletWeights,
    Environment,
    Moments,
    _PAIRING,
    _PROPOSAL,
    _THM21,
    _blocks,
    _laplace_block,
    _laplace_inputs,
    check_samples,
    mc_laplace_by_tree,
    philox_stream,
    real_rates,
    tree_probability,
)
from .graphs import DirectedGraph, SplitGraph, split_graph


# The largest chart dimension that nested quadrature takes on.
MAX_QUAD_DIM = 4


class QuadratureNonConvergence(RuntimeError):
    """The panel or evaluation budget ran out before the error target was
    met, or the nodes of a Gauss-Jacobi rule did not converge."""


@dataclass(frozen=True)
class IntegrandSpec:
    """What to integrate: a graph, edge exponents, decay rates, and the chart tree."""
    graph: DirectedGraph
    alpha: dict[str, object]  # Fraction or float; negative allowed (split-graph bridges)
    lam: dict[str, object]    # nonnegative reals; 0 allowed where the chamber is bounded
    tree: SpanningTree

    def validate(self) -> None:
        g = self.graph
        if not is_spanning_tree(g, self.tree.edges):
            raise ValueError("chart tree is not a spanning tree of the graph")
        for eid in g.edge_ids:
            if eid not in self.alpha:
                raise ValueError(f"missing exponent for edge {eid!r}")
            if eid not in self.lam:
                raise ValueError(f"missing rate for edge {eid!r}")
        real_rates(self.lam, g.edge_ids)


@dataclass(frozen=True)
class IntegralEstimate:
    value: float
    error: float  # quadrature: error-target bound; monte-carlo: 1 sigma;
    # gauss-jacobi: the gap between its two rule orders
    method: str
    n_evals: int
    ess: float | None = None  # monte-carlo: Kish effective sample size of the weights

    def as_dict(self) -> dict:
        return {"value": self.value, "error": self.error,
                "method": self.method, "n_evals": self.n_evals}


def split_integrand_spec(split: SplitGraph, lam, tree: SpanningTree) -> IntegrandSpec:
    """Integrand on the vertex-split graph for a tree of the original graph.

    The exponents are the split graph's weights (`graphs.split_graph`).  The
    tree is extended by every bridge edge; rates vanish on bridges (their
    coordinates are sums of original ones, so nothing is lost).
    """
    g = split.graph
    lam_hat = {eid: lam.get(eid, 0) for eid in g.edge_ids}
    for bid in split.bridge_ids:
        if complex(lam_hat[bid]) != 0:
            raise ValueError(f"rate on bridge edge {bid!r} must vanish")
    extended = SpanningTree(tree.edges | set(split.bridge_ids), tree.directed)
    return IntegrandSpec(g, g.alpha_map(), lam_hat, extended)


def chart_exponents(spec: IntegrandSpec, weight_edge: str | None = None) -> list[tuple]:
    """The exponent of each flow z_e, in graph edge order, in the integrand of
    the spec's tree chart, as (alpha_e, shifts): it is alpha_e plus the unit
    shifts, -1 on each cotree edge (the chart's measure prod du / prod u)
    and then +1 on `weight_edge`.  `_Evaluator` adds the shifts to
    float(alpha_e) one after another; `thm21_certificate` adds them exactly."""
    g = spec.graph
    if weight_edge is not None and weight_edge not in g.edge_by_id:
        raise ValueError(f"unknown weight edge {weight_edge!r}")
    free = set(cotree(g, spec.tree))
    return [(spec.alpha[eid], (-1,) * (eid in free) + (1,) * (eid == weight_edge))
            for eid in g.edge_ids]


class _Evaluator:
    """The integrand of one tree chart at batches of points, each batch given
    by its (d, m) cotree-coordinate rows."""

    def __init__(self, spec: IntegrandSpec, weight_edge: str | None = None):
        spec.validate()
        g = spec.graph
        free_ids, rows = tree_coordinate_map(g, spec.tree)
        self.free_ids = free_ids
        self.rows = [rows[eid] for eid in g.edge_ids]  # exact (offset, coefficients)
        self.lam = real_rates(spec.lam, g.edge_ids)
        exps, net = [], {}
        for (off, coeffs), (alpha, shifts) in zip(self.rows, chart_exponents(spec, weight_edge)):
            w = float(alpha)
            for shift in shifts:
                w += shift
                alpha += shift
            exps.append(w)
            row = _scaled(off, tuple(coeffs))
            net[row] = net.get(row, 0) + alpha
        self.exps = exps
        # the poles of the integrand: the chamber rows, scaled as
        # `_ChamberLimits` scales them, whose flows' exponents sum below 0
        self.poles = {row for row, x in net.items() if x < 0}
        # the nonzero coefficients of log z_e and of z_e in the log integrand
        self.logs = [(i, x) for i, x in enumerate(exps) if x != 0]
        self.rated = [(i, x) for i, x in enumerate(self.lam) if x != 0]
        # the coordinate of each row that is a bare one (z_e = u_j, as for
        # every cotree edge), and the other, mixed rows
        self.bare = {i: list(coeffs).index(1) for i, (off, coeffs) in enumerate(self.rows)
                     if off == 0 and sorted(coeffs) == [0] * (len(coeffs) - 1) + [1]}
        self.mixed = [i for i in range(len(self.rows)) if i not in self.bare]
        # each mixed row's offset and nonzero coefficients, in coordinate order
        self.mixed_terms = [(float(off), [(j, float(c)) for j, c in enumerate(coeffs) if c != 0])
                            for off, coeffs in (self.rows[i] for i in self.mixed)]

    @property
    def dim(self) -> int:
        return len(self.free_ids)

    def chamber(self, ut: np.ndarray, zt: np.ndarray) -> np.ndarray:
        """Which points of the (d, m) coordinate rows `ut` lie in the chamber
        (every flow positive), as a mask; writes the flows of the mixed rows
        at every point to zt, one row each.  A bare row is the test u_j > 0,
        and every coordinate has one.  A mixed flow is its offset plus each
        nonzero coefficient times its coordinate row, added in coordinate
        order: no BLAS product, whose bits would depend on the thread count."""
        for z, (off, terms) in zip(zt, self.mixed_terms):
            if not terms:
                z.fill(off)
            acc = off  # the offset enters with the first term, in one pass
            for j, c in terms:
                if c == 1.0:
                    np.add(acc, ut[j], out=z)
                elif c == -1.0:
                    np.subtract(acc, ut[j], out=z)
                else:
                    np.add(acc, c * ut[j], out=z)
                acc = z
        inside = (zt > 0).all(axis=0)
        inside &= (ut > 0).all(axis=0)
        return inside

    def log_values(self, ut: np.ndarray, zt: np.ndarray, logs, rated):
        """The points of the (d, m) coordinate rows `ut` inside the chamber, as
        indices, and sum_e a_e log z_e - sum_e b_e z_e at each of them, for
        the nonzero (edge index, a_e) of `logs` and (edge index, b_e) of
        `rated`; zt is scratch for the mixed flows (`chamber`).  Each sum is
        of rows of the points inside, added one after another in the order
        given, so a point's value does not depend on its batch.  When every
        point is inside, as at every quadrature node, the flows are the rows
        themselves, not copies."""
        at = np.flatnonzero(self.chamber(ut, zt))
        every = len(at) == ut.shape[1]
        flows = dict(zip(self.mixed, zt if every else zt.take(at, axis=1)))
        for i, _ in logs + rated:
            if i not in flows:
                flows[i] = ut[self.bare[i]] if every else ut[self.bare[i]].take(at)
        logv = _sum_in_order(np.log(flows[i]) * x for i, x in logs)
        if logv is None:
            logv = np.zeros(len(at))
        rate = _sum_in_order(flows[i] * x for i, x in rated)
        if rate is not None:
            logv -= rate
        return at, logv

    def __call__(self, ut: np.ndarray) -> np.ndarray:
        """The integrand at the points of the (d, m) coordinate rows `ut`: exp
        of `log_values` at the exponents and rates, 0 outside the chamber."""
        vals = np.zeros(ut.shape[1])
        at, logv = self.log_values(ut, np.empty((len(self.mixed), len(vals))),
                                   self.logs, self.rated)
        with np.errstate(over="ignore"):
            vals[at] = np.exp(logv)
        return vals


def _sum_in_order(terms):
    """Elementwise sum of freshly made arrays, added one after another in the
    given order into the first; None when there are none."""
    terms = iter(terms)
    total = next(terms, None)
    for term in terms:
        total += term
    return total


def integrand(spec: IntegrandSpec, u: dict) -> float:
    """Point value of the integrand in the tree chart; 0 outside the chamber."""
    ev = _Evaluator(spec)
    vec = []
    for eid in ev.free_ids:
        if eid not in u:
            raise KeyError(f"missing coordinate for cotree edge {eid!r}")
        val = float(u[eid])
        if val <= 0:
            raise ValueError(f"coordinate for edge {eid!r} must be positive")
        vec.append(val)
    return float(ev(np.array(vec).reshape(-1, 1))[0])


# ---------------------------------------------------------------------------
# nested adaptive Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------

_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769, 0.741531185599394,
    0.586087235467691, 0.405845151377397, 0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
    0.169004726639267, 0.190350578064785, 0.204432940075298, 0.209482141084728,
])
_WG7 = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469,
])

# 15 signed positions, ascending, and aligned weight rows
_NODES = np.concatenate([-_XGK[:-1], [0.0], _XGK[-2::-1]])
_KW = np.concatenate([_WGK[:-1], [_WGK[-1]], _WGK[-2::-1]])
_GW = np.zeros(15)
_GW[1:14:2] = np.concatenate([_WG7[:-1], [_WG7[-1]], _WG7[-2::-1]])

_MAX_PANELS = 4000
# Integrand evaluations of one `integrate_quadrature` call: more than 50
# times the most that any call which converges takes in the tests, the
# benchmark ops or the CI runs (158 325, a chart of a random graph in the
# scalar-oracle test; the benchmark's ops take at most 18 540 at seeds 0-7), and
# ~3 s of work on a 2-core x86-64 machine.  Nested levels multiply their
# panels, so without it a chart of dimension 4 whose inner integrals all run
# to _MAX_PANELS would not end in any useful time.
_MAX_EVALS = 8_000_000
_INNER_FRAC = 0.05
# the first panels in t of a level whose u_k runs to infinity (`_integrate_level`)
_GRADED = ((0.0, 0.5), (0.5, 0.75), (0.75, 0.875), (0.875, 1.0))
_ULP = math.ulp(1.0)  # 2^-52, twice the unit roundoff


def _gk_panels(vals: np.ndarray, deltas: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Kronrod values, error estimates and inner-evaluation pollution of P panels.

    vals and deltas are (P, 15): the integrand and the error of its inner
    evaluation at each panel's nodes.  A panel with a non-finite value gets
    (nan, inf, inf).  Every sum is a row reduction, so a panel scores the
    same, to the bit, in any batch.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        h = 0.5 * (b - a)
        kron = h * (vals * _KW).sum(axis=1)
        err = np.abs(kron - h * (vals * _GW).sum(axis=1))
        resasc = h * (np.abs(vals - (kron / (b - a))[:, None]) * _KW).sum(axis=1)
        r = 200.0 * err / resasc
        scaled = resasc * np.fmin(1.0, r * np.sqrt(r))  # r ** 1.5 without pow's platform bits
        err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
        inner = h * (deltas * _KW).sum(axis=1)
    bad = ~np.isfinite(vals).all(axis=1)
    return np.where(bad, np.nan, kron), np.where(bad, np.inf, err), np.where(bad, np.inf, inner)


def _scaled(b: Fraction, a: tuple) -> tuple:
    """The row b + a.u > 0 scaled to max |a_j| = 1; a row with a = 0 is left as is."""
    m = max(map(abs, a), default=0)
    return (b, a) if m == 0 else (b / m, tuple(c / m for c in a))


def _bound_rows(rows, k: int):
    """Each row b + a.u > 0 with a_k != 0 solved for u_k: the offsets and prefix
    coefficients of -(b + a_0 u_0 + ... + a_{k-1} u_{k-1}) / a_k, in floats."""
    offsets = np.array([float(-b / a[k]) for b, a in rows])
    coeffs = np.array([[float(-c / a[k]) for c in a[:k]] for _, a in rows])
    return offsets, coeffs.reshape(len(rows), k)


class _ChamberLimits:
    """Exact limits of each coordinate on the chamber offset + C.u > 0, and
    which of them are poles of the integrand.

    Fourier-Motzkin elimination of u_{d-1}, ..., u_1 in exact rationals: the
    rows with a zero u_k coefficient are kept, each row with a positive one is
    combined with each row with a negative one, and the results are scaled to
    max |coefficient| = 1 and deduplicated.  The rows eliminated at step k are
    the limits of level k: given u_0..u_{k-1}, u_k lies above every bound of a
    positive row and below every bound of a negative one.  Each free coordinate
    is an edge flow, so its own row u_k > 0 keeps every lower limit finite.
    The chamber is empty when a row without coefficients has offset <= 0.

    Each row of the chamber is kept unchanged down to the level of its last
    nonzero coefficient, so each of the `poles` (`_Evaluator.poles`) is a
    limit of that level: a lower one where its zero bounds u_k from below,
    an upper one where it bounds u_k from above.  `poles[k]` marks them, as
    a mask of the lower and one of the upper rows of level k.
    """

    def __init__(self, rows, d: int, poles=frozenset()):
        system = {_scaled(b, tuple(a)) for b, a in rows}
        self.levels, self.poles = [None] * d, [None] * d
        for k in reversed(range(d)):
            kept = {(b, a) for b, a in system if a[k] == 0}
            lower = [(b, a) for b, a in system if a[k] > 0]
            upper = [(b, a) for b, a in system if a[k] < 0]
            self.levels[k] = (_bound_rows(lower, k), _bound_rows(upper, k))
            self.poles[k] = tuple(np.array([row in poles for row in ends], dtype=bool)
                                  for ends in (lower, upper))
            for bp, ap in lower:
                for bn, an in upper:
                    s, t = -an[k], ap[k]
                    kept.add(_scaled(s * bp + t * bn,
                                     tuple(s * x + t * y for x, y in zip(ap, an))))
            system = kept
        self.empty = any(b <= 0 for b, _ in system)

    def intervals(self, k: int, prefixes: np.ndarray):
        """(lo, hi) of u_k for each row u_0..u_{k-1} of the (m, k) prefixes, and
        the nearest pole of level k beyond it as (graded, rho, above): whether
        the row takes `_sinh_map`, the pole's distance over hi - lo, and
        whether it lies above hi rather than below lo.  hi is inf where nothing
        bounds u_k above.  A row takes no map where u_k is unbounded, where no
        pole lies beyond, or where rho = 0: the pole is the limit that binds.
        Each limit is summed once, and elementwise, so each row's values do not
        depend on the batch."""
        (lo_b, lo_a), (hi_b, hi_a) = self.levels[k]
        lower = lo_b + (prefixes[:, None, :] * lo_a).sum(axis=2)
        upper = hi_b + (prefixes[:, None, :] * hi_a).sum(axis=2)
        lo, hi = lower.max(axis=1), upper.min(axis=1, initial=math.inf)
        below_poles, above_poles = self.poles[k]
        above = (upper[:, above_poles] - hi[:, None]).min(axis=1, initial=math.inf)
        below = (lo[:, None] - lower[:, below_poles]).min(axis=1, initial=math.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = np.minimum(above, below) / (hi - lo)
        return lo, hi, (rho > 0.0) & (rho < math.inf), rho, above <= below


def _sinh_map(t: np.ndarray, lo, hi, rho, above):
    """The points t of (0, 1) mapped onto (lo, hi), graded toward a pole at
    distance rho (hi - lo) above hi (where `above`) or below lo, and the
    Jacobian du/dt (Johnston & Elliott, IJNME 62, 2005).  With s = 2t - 1 and
    mu = asinh(1/rho)/2,

        u = hi + (hi - lo) rho sinh(mu (s - 1))  or  lo + (hi - lo) rho sinh(mu (s + 1)),

    and du/dt = 2 (hi - lo) rho mu cosh(mu (s -+ 1)).  u is an offset from the
    end nearest the pole, and mu (s -+ 1) is formed from t as 2 mu (t - 1) or
    2 mu t, so the nodes of panels bisected toward that end keep their
    digits.  As rho grows, mu -> 1/(2 rho) and the map tends to the affine
    one, so it needs no threshold."""
    mu, scale = 0.5 * np.arcsinh(1.0 / rho), (hi - lo) * rho
    x = mu * (2.0 * (t - above))  # 2 mu (t - 1) above hi, 2 mu t below lo
    return np.where(above, hi, lo) + scale * np.sinh(x), 2.0 * scale * mu * np.cosh(x)


def _left_sum(terms):
    """The terms added left to right from 0, as sum() adds them before Python
    3.12: from 3.12 sum() compensates float rounding, so bits that reach a
    report would depend on the version."""
    total = 0
    for term in terms:
        total = total + term
    return total


def _settle(heap: list, tol: float, k: int, d: int) -> tuple[float, float]:
    """Value and error bound of one finished integral from its panels."""
    value = _left_sum(p[3] for p in heap)
    err = _left_sum(p[4] + p[5] for p in heap)
    if not (err <= tol) or not math.isfinite(value):
        raise QuadratureNonConvergence(
            f"level {k + 1} of {d}: error estimate {err:.3e} above target {tol:.3e} "
            f"after {len(heap)} panels")
    return value, err


def _integrate_level(ev: _Evaluator, limits: _ChamberLimits, k: int, prefixes: np.ndarray,
                     tols: np.ndarray, counter: list) -> tuple[np.ndarray, np.ndarray]:
    """Integrals over u_k..u_{d-1} at each row of fixed u_0..u_{k-1}, with error bounds.

    Row i's u_k runs over its exact interval (lo, hi): affinely from (0, 1)
    where hi is finite, as lo + t/(1-t) where it is not.  An empty interval
    gives (0, 0).  Each row keeps a heap of its own panels and splits the one
    with the largest error until the panel errors sum to 0.45 tol_i or the
    budget runs out; the first row to end above its target raises.  The rows
    advance in lockstep: each round evaluates the new panels of every
    unfinished row at once, by one recursive call on all their nodes.

    A pole of the integrand (`_Evaluator.poles`: a chamber row whose flows'
    exponents sum below 0) lies outside the chamber, but may lie just beyond
    a level's interval: it is one of the limits of the level of its last
    coordinate, marked in `_ChamberLimits.poles`, and `intervals` measures
    it from the same limit values that give (lo, hi).  Where the nearest one
    lies at a distance rho (hi - lo) > 0 beyond a finite interval,
    `_sinh_map` toward it replaces the affine map, packing the nodes toward
    that end; a far pole leaves the map all but affine.  Affinely, the
    nested levels bisected toward such a pole round after round: the split
    triangle's chart {e1, e4} took 43 770 evaluations at the benchmark's
    rates, and takes 18 330 graded.

    A bounded row starts on the panel (0, 1), an unbounded one on `_GRADED`,
    three bisections toward t = 1, where the integrand decays like
    exp(-c t/(1-t)): from (0, 1) every chart of the benchmark bisected there
    three times.  Two-diamond's `verify-identities` took 40 695 evaluations
    from (0, 1), and 23 175, 18 000, 28 125 and 40 500 from depths 2 to 5.
    """
    d = ev.dim
    lo, hi, graded, rho, above = limits.intervals(k, prefixes)
    values, errors = np.zeros(len(lo)), np.zeros(len(lo))

    def node_fn(rows, a, b):
        pts = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * _NODES
        lo_r, hi_r = lo[rows, None], hi[rows, None]
        unbounded = np.isinf(hi_r)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            us = np.where(unbounded, lo_r + pts / (1.0 - pts), lo_r + (hi_r - lo_r) * pts)
            jac = np.where(unbounded, 1.0 / (1.0 - pts) ** 2, hi_r - lo_r)
        mapped = np.flatnonzero(graded[rows])
        if len(mapped):
            i = rows[mapped, None]
            us[mapped], jac[mapped] = _sinh_map(pts[mapped], lo[i], hi[i], rho[i], above[i])
        batch = np.column_stack([np.repeat(prefixes[rows], 15, axis=0), us.ravel()])
        if k == d - 1:
            if counter[0] + len(batch) > _MAX_EVALS:
                raise QuadratureNonConvergence(
                    f"level {k + 1} of {d}: the budget of {_MAX_EVALS} integrand evaluations "
                    f"ran out after {counter[0]}")
            counter[0] += len(batch)
            with np.errstate(over="ignore", invalid="ignore"):
                return ev(batch.T).reshape(pts.shape) * jac, np.zeros_like(pts)
        vals, errs = _integrate_level(ev, limits, k + 1, batch,
                                      np.repeat(tols[rows] * _INNER_FRAC, 15), counter)
        with np.errstate(over="ignore", invalid="ignore"):
            return vals.reshape(pts.shape) * jac, errs.reshape(pts.shape) * jac

    targets = tols.tolist()
    active = np.flatnonzero(hi > lo).tolist()
    new = [(i, pa, pb) for i in active  # (row, a, b) of each panel of the round
           for pa, pb in (_GRADED if hi[i] == math.inf else ((0.0, 1.0),))]
    heaps = {i: [] for i in active}
    # Each heap's running total of panel errors, and the sum of the total's
    # sizes after each update: 2^-53 times that bounds the total's rounding,
    # and 2^-53 len(heap) total that of the sum in heap order, the old rule.
    # The total decides when to stop unless twice these bounds cannot tell
    # it from the target; then the sum in heap order decides and restarts it.
    totals, slack = dict.fromkeys(active, 0.0), dict.fromkeys(active, 0.0)
    while new:
        rows, a, b = map(np.array, zip(*new))
        kron, err, inner = _gk_panels(*node_fn(rows, a, b), a, b)
        for i, *panel in zip(rows.tolist(), (-err).tolist(), a.tolist(), b.tolist(),
                             kron.tolist(), err.tolist(), inner.tolist()):
            heapq.heappush(heaps[i], tuple(panel))
            totals[i] += panel[4]
            slack[i] += abs(totals[i])
        new = []  # (row, a, b) of the next round's panels, two per split
        for i in active:
            heap, tol = heaps[i], targets[i]
            total, target = totals[i], 0.45 * tol
            if not abs(total - target) > _ULP * (slack[i] + len(heap) * abs(total)):
                total = totals[i] = _left_sum(p[4] for p in heap)
                slack[i] = len(heap) * total
            if total > target and len(heap) < _MAX_PANELS:
                prio, pa, pb, *rest = heapq.heappop(heap)
                if not (prio >= 0.0 or pb - pa < 1e-15):
                    totals[i] -= rest[1]
                    slack[i] += abs(totals[i])
                    mid = 0.5 * (pa + pb)
                    new += [(i, pa, mid), (i, mid, pb)]
                    continue
                # unsplittable panel back on the books, deprioritized
                heapq.heappush(heap, (0.0, pa, pb, *rest))
            values[i], errors[i] = _settle(heaps.pop(i), tol, k, d)
        active = [i for i, _, _ in new[::2]]
    return values, errors


def integrate_quadrature(spec: IntegrandSpec, tol: float = 1e-8,
                         weight_edge: str | None = None) -> IntegralEstimate:
    """Nested adaptive quadrature over the chamber in the cotree coordinates.

    Level k integrates u_k over its exact interval given the outer
    coordinates (`_ChamberLimits`), so every Gauss-Kronrod panel lies where
    the integrand is positive and smooth; where the zero of a flow with a
    negative net exponent lies just beyond a bounded interval, its panels are
    graded toward that end by a sinh map (`_integrate_level`).  Each node of
    a level-k panel holds one level-(k+1) integral; the integrals of all new
    panels of a round go down as one batch, adapt side by side (each by its
    own panels, as if alone) and come back together.  The reported error sums
    the panel estimates and the weighted errors of inner evaluations; any
    integral that misses its target raises `QuadratureNonConvergence`, naming
    its level, and so does a call whose integrand evaluations would pass
    _MAX_EVALS.
    """
    ev = _Evaluator(spec, weight_edge)
    d = ev.dim
    if d > MAX_QUAD_DIM:
        raise ValueError(f"quadrature supports dimension <= {MAX_QUAD_DIM}, got {d}")
    if d == 0:
        return IntegralEstimate(float(ev(np.zeros((0, 1)))[0]), 0.0, "quadrature", 1)
    limits = _ChamberLimits(ev.rows, d, ev.poles)
    if limits.empty:
        return IntegralEstimate(0.0, 0.0, "quadrature", 0)
    counter = [0]
    value, err = _integrate_level(ev, limits, 0, np.zeros((1, 0)), np.array([tol]), counter)
    return IntegralEstimate(float(value[0]), float(err[0]), "quadrature", counter[0])


# ---------------------------------------------------------------------------
# importance-sampled Monte Carlo
# ---------------------------------------------------------------------------

def integrate_mc(spec: IntegrandSpec, n: int, seed: int,
                 weight_edge: str | None = None) -> IntegralEstimate:
    """Gamma-proposal importance sampling over the cotree coordinates, with
    the Kish effective sample size of the weights.

    Each coordinate u_j has an independent Gamma(s_j, r_j) proposal with
    s_j = alpha_e and r_j = lambda_e (the exponential tilt of the
    integrand), or 1 where lambda_e = 0; its log density is
    c_j + (s_j - 1) log u_j - r_j u_j, with c_j = s_j log r_j - lgamma(s_j).
    u_j is the flow of the j-th cotree edge e_j, so coordinate j's proposal
    terms merge with e_j's integrand terms into one coefficient of log z_e
    and one of z_e: a point inside the chamber gets the log weight

        sum_e a_e log z_e - sum_e b_e z_e - sum_j c_j,

    with a_e = exps_e - (s_j - 1) and b_e = lambda_e - r_j where e = e_j
    (both 0 when e carries no weight and lambda_e > 0), and a_e = exps_e,
    b_e = lambda_e on every other row.  Each coordinate's terms go to e_j's
    row alone: another bare row of u_j, such as a tree edge on one
    fundamental cycle only, keeps its own terms.  The sums over edges are
    the evaluator's `log_values` at these coefficients, in edge order; the
    constant is the correctly rounded sum of the c_j.  A point outside gets
    weight 0.

    Block k of the proposal, BLOCK_ROWS points (the last block shorter),
    draws its Gamma(shape, 1) coordinates row by row from stream (seed, 3,
    k); nothing of length n is held.  Each block's weights fold into running
    `Moments`, and into the Kish sums sum w and sum w^2, both kept scaled by
    exp(-M) for the largest log weight M so far.
    """
    check_samples(n)
    ev = _Evaluator(spec, weight_edge)
    shapes = [float(spec.alpha[eid]) for eid in ev.free_ids]
    bad = [eid for eid, s in zip(ev.free_ids, shapes) if s <= 0]
    if bad:
        raise ValueError(f"gamma proposal needs positive exponents on cotree edges {bad}")
    if not ev.dim:
        return IntegralEstimate(float(ev(np.zeros((0, 1)))[0]), 0.0, "monte-carlo", 1)
    rates = [r or 1.0 for r in real_rates(spec.lam, ev.free_ids)]
    const = math.fsum(s * math.log(r) - math.lgamma(s) for s, r in zip(shapes, rates))
    a, b = list(ev.exps), list(ev.lam)
    for j, eid in enumerate(ev.free_ids):
        i = spec.graph.edge_ids.index(eid)
        a[i] -= shapes[j] - 1.0
        b[i] -= rates[j]
    logs = [(i, x) for i, x in enumerate(a) if x != 0]
    rated = [(i, x) for i, x in enumerate(b) if x != 0]
    rates = np.array(rates)[:, None]
    moments, inside, top, s1, s2 = Moments(), 0, -math.inf, 0.0, 0.0
    # scratch arrays, reused block after block: fresh ones would be mapped
    # page by page at every block
    width = next(_blocks(n))[2]  # the first block is the widest
    raw, u = np.empty((len(shapes), width)), np.empty((len(shapes), width))
    vals, zt = np.empty(width), np.empty((len(ev.mixed), width))
    for k, lo, hi in _blocks(n):
        m = hi - lo
        rng = philox_stream(seed, _PROPOSAL, k)
        for row, shape in zip(raw[:, :m], shapes):
            rng.standard_gamma(shape, size=m, out=row)
        np.divide(raw[:, :m], rates, out=u[:, :m])
        at, logw = ev.log_values(u[:, :m], zt[:, :m], logs, rated)
        vals[:m] = 0.0
        if len(at):
            logw -= const
            vals[at] = np.exp(logw)
            peak = float(logw.max())
            if peak > top:
                scale = math.exp(top - peak)
                s1, s2, top = s1 * scale, s2 * scale * scale, peak
            logw -= top
            np.exp(logw, out=logw)
            s1 += float(np.add.reduce(logw))
            logw *= logw
            s2 += float(np.add.reduce(logw))
            inside += len(logw)
        moments.add(vals[:m])
    if not inside:
        raise ValueError("all proposal samples fell outside the chamber")
    value, err = moments.estimate()
    return IntegralEstimate(value, err, "monte-carlo", n, s1 * s1 / s2)


# ---------------------------------------------------------------------------
# the Dirichlet side by a tensor Gauss-Jacobi rule
# ---------------------------------------------------------------------------

# The orders of the two tensor rules of `gauss_jacobi_laplace_by_tree` up to
# dimension MAX_QUAD_DIM: its value is the larger rule's, and its error the
# gap between the two.
GAUSS_JACOBI_ORDERS = (16, 32)
# Above MAX_QUAD_DIM, the most points of the larger rule: its order m is the
# largest up to 32 with m^D points at most this, and the smaller is m // 2,
# so (4, 9) at D = 5 and (3, 6) at D = 6.  On K3 the (3, 6) rule's 47 385
# points take ~9 ms, where 100 000 Monte Carlo samples took ~20 ms (2-core
# x86-64, in process).  There, at unit weights and the CLI's default rates,
# it is within 3e-6 relative of the order-12 rule on all 16 trees, its gap
# at least 34 times that distance; at four seeded weight mixes from {1, 3/2,
# 2, 3, 5} on K3 and on K3 without e2 (D = 5) the gap was at least 24 times it.
GAUSS_JACOBI_POINTS = 2 ** 16


def _jacobi_terms(m: int, a: float, b: float, x: np.ndarray):
    """P_m, (1 - x^2) P_m' and P_{m-1} at the points x, for the Jacobi
    polynomials of the weight (1 - x)^a (1 + x)^b in their standard
    normalisation: the three-term recurrence gives P_m and P_{m-1}, and

        (2m + a + b)(1 - x^2) P_m' = m (a - b - (2m + a + b) x) P_m + 2 (m + a)(m + b) P_{m-1}."""
    prev, cur = np.ones_like(x), 0.5 * ((a - b) + (a + b + 2.0) * x)
    for n in range(1, m):
        s = 2 * n + a + b
        prev, cur = cur, ((((s + 1) * (a * a - b * b)) + (s + 1) * (s + 2) * s * x) * cur
                          - 2.0 * (n + a) * (n + b) * (s + 2) * prev) \
            / (2.0 * (n + 1) * (n + a + b + 1) * s)
    s = 2 * m + a + b
    return cur, (m * ((a - b) - s * x) * cur + 2.0 * (m + a) * (m + b) * prev) / s, prev


def gauss_jacobi(m: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """The m-point Gauss rule of the weight (1 - x)^a (1 + x)^b on (-1, 1),
    a, b > -1: its nodes, ascending, and its weights, scaled to sum to 1.

    The nodes are the zeros of P_m, found together by Newton's method on the
    recurrence (`_jacobi_terms`; Hale & Townsend, SIAM J. Sci. Comput. 35,
    2013), from the guesses cos((k + a/2 - 1/4) pi / (m + (a + b + 1)/2)),
    k = 1..m.  Each step deflates the other nodes (Ehrlich-Aberth):

        x_i <- x_i - P_m / (P_m' - P_m sum_{j != i} 1 / (x_i - x_j)),

    so no two nodes settle on one zero, as plain Newton steps from these
    guesses did at a or b of 8 and more.  Once no step moves a node by more
    than 1e-8, the error is well below that step's square, and one plain
    Newton step ends it.  At a zero (1 - x^2) P_m' is
    2 (m + a)(m + b) P_{m-1} / (2m + a + b), so the weights, proportional
    to 1 / ((1 - x^2) P_m'^2), are (1 - x^2) / P_{m-1}^2 over their sum.
    Only the guesses take a transcendental function: the nodes and weights
    come from + - * /, with no LAPACK eigensolver, whose bits depend on the
    CPU, and no numpy.polynomial, whose import alone costs ~1 MB.  Nodes
    that do not end ascending inside (-1, 1) raise QuadratureNonConvergence,
    as order 32 does at (0, 19999): orders up to 16 converged up to 1e5."""
    scale = math.pi / (m + 0.5 * (a + b + 1.0))
    x = np.array([math.cos((k + 0.5 * a - 0.25) * scale) for k in range(m, 0, -1)])
    for _ in range(100):
        p, dp, _ = _jacobi_terms(m, a, b, x)
        gaps = x[:, None] - x
        np.fill_diagonal(gaps, math.inf)
        step = p / (dp / ((1.0 - x) * (1.0 + x)) - p * (1.0 / gaps).sum(axis=1))
        x = x - step
        if not np.abs(step).max() > 1e-8:
            break
    p, dp, _ = _jacobi_terms(m, a, b, x)
    x = np.sort(x - p * ((1.0 - x) * (1.0 + x)) / dp)  # early steps may swap nodes
    if not ((np.diff(x) > 0).all() and -1.0 < x[0] and x[-1] < 1.0):
        raise QuadratureNonConvergence(
            f"Gauss-Jacobi nodes of order {m} at ({a}, {b}) did not converge")
    q = _jacobi_terms(m, a, b, x)[2]
    w = (1.0 - x) * (1.0 + x) / (q * q)
    return x, w / _left_sum(w.tolist())


def _tensor_rule(g: DirectedGraph, w: DirichletWeights, lam, trees, m: int):
    """Each directed tree's Dirichlet side by the tensor rule of order m, and
    the rule's number of points, m^D.

    Stick-breaking writes the Dirichlet law of a vertex's exits e_1..e_k, in
    out-edge order, as independent V_i ~ Beta(alpha_i, alpha_{i+1} + ... +
    alpha_k), i < k: omega_e_i = V_i (1 - V_1) ... (1 - V_{i-1}), and
    omega_e_k is the product of all the 1 - V_i.  Each of the D = |E| -
    |interior| factors gets the m-point `gauss_jacobi` rule of Beta(a, b),
    V = (1 + x)/2 with 1 - V = (1 - x)/2 and Jacobi exponents (b - 1, a -
    1).  The m^D points, factor by factor in interior and out-edge order
    with the last factor's node changing fastest, go in blocks of
    BLOCK_ROWS through `_laplace_block`, the Monte Carlo's kernel; a
    point's weight is its factors' weights multiplied in factor order, and
    each block's weighted terms are summed by numpy's pairwise sum and added
    to the tree's total block after block."""
    rated, tree_rows = _laplace_inputs(g, lam, trees)
    index = {eid: j for j, eid in enumerate(g.edge_ids)}
    rules, factors, sticks = {}, [], []
    for vertex in g.interior:
        out = g.out_edges[vertex]
        sticks.append([index[e.id] for e in out])
        for i, e in enumerate(out[:-1]):
            a, b = w.alpha[e.id], sum(w.alpha[f.id] for f in out[i + 1:])
            if (a, b) not in rules:
                x_j, w_j = gauss_jacobi(m, float(b - 1), float(a - 1))
                rules[a, b] = 0.5 * (1.0 + x_j), 0.5 * (1.0 - x_j), w_j
            factors.append(rules[a, b])
    d, n = len(factors), m ** len(factors)
    width = next(_blocks(n))[2]  # the first block is the widest
    pt, zt = np.empty((len(g.edge_ids), width)), np.empty((len(g.edge_ids), width))
    lap, terms, weight = np.empty(width), np.empty(width), np.empty(width)
    totals = [0.0] * len(trees)

    def fold(k, t):
        t *= wt
        totals[k] += float(np.add.reduce(t))
    for _, lo, hi in _blocks(n):
        size, points = hi - lo, np.arange(lo, hi)
        p, wt = pt[:, :size], weight[:size]
        wt.fill(1.0)
        f = 0  # the factor of the next stick piece; sticks take them in order
        for rows in sticks:
            rest = None  # the stick left: the product of the 1 - V so far
            for j in rows[:-1]:
                v, c, wf = factors[f]
                at = points // m ** (d - 1 - f) % m
                wt *= wf.take(at)
                p[j] = v.take(at) if rest is None else rest * v.take(at)
                rest = c.take(at) if rest is None else rest * c.take(at)
                f += 1
            p[rows[-1]] = 1.0 if rest is None else rest
        _laplace_block(g, p, zt[:, :size], rated, tree_rows, lap[:size], terms[:size], fold)
    return totals, n


def _gauss_jacobi_orders(d: int) -> tuple[int, int] | None:
    """The orders of the two tensor rules at split dimension d: up to
    MAX_QUAD_DIM GAUSS_JACOBI_ORDERS; above, (m // 2, m) for the largest
    order m up to 32 whose m^d points fit GAUSS_JACOBI_POINTS, or None where
    that m is below 6.  On K4 (D = 12) it is 2, and that rule sat 5.8
    standard errors off 400 000 Monte Carlo samples."""
    if d <= MAX_QUAD_DIM:
        return GAUSS_JACOBI_ORDERS
    m = max(k for k in range(1, GAUSS_JACOBI_ORDERS[1] + 1) if k ** d <= GAUSS_JACOBI_POINTS)
    return (m // 2, m) if m >= 6 else None


def gauss_jacobi_laplace_by_tree(g: DirectedGraph, w: DirichletWeights, lam,
                                 trees) -> list[IntegralEstimate]:
    """The Dirichlet side of Theorem 2.1 for each directed tree of `trees`:
    the average over the product-Dirichlet law of exp(-<rates, occupation>)
    times the tree's probability weight, by `_tensor_rule` at both orders of
    `_gauss_jacobi_orders` at the split dimension D = |E| - |interior|:
    GAUSS_JACOBI_ORDERS up to MAX_QUAD_DIM, and orders within the budget of
    GAUSS_JACOBI_POINTS above, where a D whose budget allows no order 6
    raises ValueError.  Each tree's value is the larger order's, its error
    the gap to the smaller's, and n_evals counts the points of both rules.
    Nothing is drawn, and a tree's estimate does not depend on the other
    trees of the list.  A Beta factor whose rule does not converge raises
    QuadratureNonConvergence."""
    d = len(g.edge_ids) - len(g.interior)
    orders = _gauss_jacobi_orders(d)
    if orders is None:
        raise ValueError(f"no Gauss-Jacobi rule of order 6 fits {GAUSS_JACOBI_POINTS} "
                         f"points at split dimension {d}")
    (coarse, n_coarse), (fine, n_fine) = (_tensor_rule(g, w, lam, trees, m) for m in orders)
    return [IntegralEstimate(b, abs(b - a), "gauss-jacobi", n_coarse + n_fine)
            for a, b in zip(coarse, fine)]


# ---------------------------------------------------------------------------
# normalization constant and identity checks
# ---------------------------------------------------------------------------

def constant_C_alpha(g: DirectedGraph, w: DirichletWeights) -> float:
    """Product of Gamma(vertex total) over Gamma(edge weight), in log space."""
    beta = w.beta(g)
    logc = _left_sum(math.lgamma(float(b)) for b in beta.values())
    logc -= _left_sum(math.lgamma(float(w.alpha[eid])) for eid in g.edge_ids)
    if logc > math.log(np.finfo(float).max):
        raise OverflowError(f"normalization constant overflows: log value {logc:.3e}")
    return float(math.exp(logc))


def agreement(diff: float, err_a: float, err_b: float, slack: float = 1e-6) -> dict:
    """Verdict on two estimates that differ by diff and carry errors err_a, err_b.

    They agree when diff is within three times the summed errors plus an
    absolute slack, 1e-6 unless the caller gives one (transport gives ten
    times its ODE tolerance).  Every comparison of two error-carrying
    estimates (both sides of Theorem 2.1, of an exchange identity, of a
    transport) uses it.
    """
    bound = 3.0 * (err_a + err_b) + slack
    return {"diff": diff, "bound": bound, "pass": bool(diff <= bound)}


def pairing_residual(g: DirectedGraph, trees, n: int, seed: int) -> Fraction:
    """Largest residual, exact, of the divergence pairing <z, rates> = path
    form + sum over cotree edges e0 of z_e0 times the cycle form of e0, at n
    random triples: a unit-mass flow z, its coordinates in the chart of
    trees[0] multiples of 1/16 in [-2, 2], rates that are multiples of 1/8 in
    [-8, 8], and a tree of `trees`.  Block b of BLOCK_ROWS triples draws from
    stream (seed, 7, b) the numerators of the coordinates (a row per cotree
    edge of the chart), of the rates (a row per edge) and the tree indices.
    Both sides times 128 are then sums of integer products, exact in int64,
    taken against sign tables of each tree's path and cycles built once.
    """
    ids = g.edge_ids
    col = {eid: k for k, eid in enumerate(ids)}
    # signs[e, 0, t]: edge e on tree t's path; signs[e, 1 + k, t]: on the cycle of edge k
    signs = np.zeros((len(ids), len(ids) + 1, len(trees)), dtype=np.int64)
    for t, tree in enumerate(trees):
        free, rows = tree_coordinate_map(g, tree)
        at = [0] + [1 + col[f] for f in free]
        for e, eid in enumerate(ids):
            signs[e, at, t] = [int(rows[eid][0]), *map(int, rows[eid][1])]
    free = [col[f] for f in cotree(g, trees[0])]
    worst = 0
    for b, lo, hi in _blocks(n):
        rng = philox_stream(seed, _PAIRING, b)
        u = rng.integers(-32, 33, size=(len(free), hi - lo))  # 16 u
        rates = rng.integers(-64, 65, size=(len(ids), hi - lo))  # 8 rates
        picks = rng.integers(0, len(trees), size=hi - lo)
        z = sum((signs[:, 1 + k, :1] * x for k, x in zip(free, u)), 16 * signs[:, 0, :1])
        forms = (signs.take(picks, axis=2) * rates[:, None]).sum(axis=0)  # 8 x each form
        lhs, rhs = (z * rates).sum(axis=0), 16 * forms[0] + (z * forms[1:]).sum(axis=0)
        worst = max(worst, int(np.abs(lhs - rhs).max()))
    return Fraction(worst, 128)


# The prime of `thm21_certificate`, the largest below 2^64.
THM21_PRIME = 2**64 - 59


def _det_mod(rows: list[list[int]], p: int) -> int:
    """The determinant modulo the prime p of the leading square block of
    `rows`, by elimination in place.  Rows wider than the block are reduced
    Gauss-Jordan: when the determinant is not 0, the block ends as the
    identity and the columns past it as the block's inverse times what they
    held.  Square rows are eliminated forward only."""
    n, det = len(rows), 1
    jordan = n and len(rows[0]) > n
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c]), None)
        if pivot is None:
            return 0
        rows[c], rows[pivot] = rows[pivot], rows[c]
        top = rows[c]
        det = det * (top[c] if pivot == c else p - top[c]) % p
        inv = pow(top[c], -1, p)
        if jordan:
            top[c:] = [x * inv % p for x in top[c:]]
            inv = 1
        for r in (range(n) if jordan else range(c + 1, n)):
            row = rows[r]
            f = row[c] * inv % p
            if f and r != c:
                row[c:] = [(x - f * y) % p for x, y in zip(row[c:], top[c:])]
    return det


def _thm21_tree(g: DirectedGraph, w: DirichletWeights, split: SplitGraph, tree: SpanningTree,
                draw: list, p: int) -> dict:
    """The report of `thm21_certificate` on one directed tree T, at the point
    `draw` (every edge's exit modulo p, in graph edge order) with T's exits
    replaced, each 1 minus the other exits at its tail."""
    if not tree.directed:
        raise ValueError("the certificate of Theorem 2.1 needs a directed spanning tree")
    edge, n = g.edge_by_id, len(g.interior)
    pos = {x: i for i, x in enumerate(g.interior)}  # vertices by index; the cemetery has none
    free = cotree(g, tree)
    exit_at = {edge[eid].tail: eid for eid in tree.edges}
    spec = split_integrand_spec(split, {}, tree)
    exps = {eid: alpha + sum(shifts)
            for eid, (alpha, shifts) in zip(split.graph.edge_ids, chart_exponents(spec))}
    # (c): log z_e = log t_tail(e) + log omega_e, a bridge's log z = log t_x,
    # and the Jacobian adds log t_tail(f) for each cotree edge f and -log det
    on_t = {x: exps[bid] for x, bid in split.bridge_of.items()}
    for e in g.edges:
        on_t[e.tail] += exps[e.id]
    for f in free:
        on_t[edge[f].tail] += 1
    tree_exps = [(e, exps[e] - (w.alpha[e] - 1)) for e in g.edge_ids]
    exponents = not any(on_t.values()) and all(k.denominator == 1 for _, k in tree_exps)
    omega = dict(zip(g.edge_ids, draw))
    for x, eid in exit_at.items():
        omega[eid] = (1 - sum(omega[e.id] for e in g.out_edges[x] if e.id != eid)) % p
    # [I - P | I] reduced to [I | G], G = (I - P)^-1; a cemetery row of G is 0
    a = [[int(i == j) for j in range(n)] * 2 for i in range(n)]
    for e in g.edges:
        if e.head != g.cemetery:
            a[pos[e.tail]][pos[e.head]] -= omega[e.id]
    a = [[v % p for v in row] for row in a]
    det = _det_mod(a, p)
    jacobian = chart = False  # a point where det(I - P) = 0 fails every check
    exponents = exponents and det != 0
    if det:
        green, zero = [row[n:] for row in a], [0] * n
        t = green[pos[g.base]]
        # (a): d t / d omega_f = t_tail(f) (G[head f] - G[head of T's exit at tail f])
        tails = [pos[edge[f].tail] for f in free]
        dt = []
        for f, x in zip(free, tails):
            plus, minus = pos.get(edge[f].head), pos.get(edge[exit_at[edge[f].tail]].head)
            g_plus = zero if plus is None else green[plus]
            g_minus = zero if minus is None else green[minus]
            dt.append([(u - v) * t[x] % p for u, v in zip(g_plus, g_minus)])
        jac = [[((t[x] if i == j else 0) + omega[f] * d[x]) % p for j, d in enumerate(dt)]
               for i, (x, f) in enumerate(zip(tails, free))]
        jacobian = _det_mod(jac, p) * det % p == math.prod(t[x] for x in tails) % p
        # (b): the split chart's rows, of integer entries, at u = (z_f) give
        # z_e = t_tail(e) omega_e on every edge and t_x on the bridge at x
        coordinates, rows = tree_coordinate_map(split.graph, spec.tree)
        bridge_at = {bid: x for x, bid in split.bridge_of.items()}
        u = [t[pos[edge[f].tail]] * omega[f] for f in coordinates]
        chart = all((off.numerator + sum(c.numerator * u[j] for j, c in enumerate(coeffs) if c)
                     - (t[pos[bridge_at[eid]]] if eid in bridge_at
                        else t[pos[edge[eid].tail]] * omega[eid])) % p == 0
                    for eid, (off, coeffs) in rows.items())
        # (c): tree_probability(T) = prod omega_e^(k_e) / det(I - P)
        if exponents:
            env = Environment({eid: Fraction(v) for eid, v in omega.items()})
            try:
                prob = tree_probability(g, env, tree)
                mono = math.prod(pow(omega[e], int(k), p) for e, k in tree_exps)
                exponents = (prob.numerator * det - mono * prob.denominator) % p == 0
            except (ValueError, ZeroDivisionError):
                exponents = False
    degree = len(free) * (2 * n - 1) + 2 * n
    return {
        "prime": p, "points": [{f: omega[f] for f in free}], "degree_bound": degree,
        "false_pass_bound": degree / p,
        "jacobian": jacobian, "chart": chart, "exponents": exponents,
        "pass": jacobian and chart and exponents,
    }


def thm21_certificate(g: DirectedGraph, w: DirichletWeights, trees) -> list[dict]:
    """Theorem 2.1 for each directed tree T of `trees`, decided as the change
    of variables omega -> z from environments to occupation flows, at one
    point modulo the prime THM21_PRIME.

    With t the Green row of the base (t_x the expected visits to x) and
    z_e = t_tail(e) omega_e, the flow side's integrand on the vertex-split
    graph, in T's chart u = (z_f) for f not in T, is exp(-<rates, z>) prod_e
    z_e^(exponent_e) over the split edges (`chart_exponents`).  Its
    integral over u equals the Dirichlet side's integral over the free exits
    (omega_f), f not in T, of C_alpha prod omega^(alpha - 1) exp(-<rates, z>)
    tree_probability(T) when three things hold.  At the point:
      (a) the Jacobian identity det[dz_e/d omega_f]_{e,f not in T} det(I - P)
          = prod_{e not in T} t_tail(e), with T's exit at each vertex 1 minus
          its cotree exits, and d t / d omega_f = t_tail(f) (G[head f] -
          G[head of T's exit at tail f]), G = (I - P)^-1, a cemetery row 0;
      (b) the chart: the rows of `tree_coordinate_map` on the split graph,
          at u, give z_e on every edge and t_x on the bridge at x;
      (c) the exponents: rewritten over log omega_e, log t_x and log det(I -
          P), the chart's exponents plus the Jacobian's (+1 on t_tail(f) for
          each cotree edge f, -1 on det) are 0 on every t_x and alpha_e - 1 +
          k_e on omega_e, exactly in Fractions, and tree_probability(T) equals
          prod omega_e^(k_e) / det(I - P).
    The point draws each edge's exit from stream (0, _THM21, 0), one residue
    per edge in graph edge order, and T's exits replace the draws of its
    edges; so the point does not depend on the seed of the Dirichlet side,
    nor on the other trees of the list.

    (a) is proved, so its check is a regression check of this code.  Let
    x(f) be the tail of f and t_x(u) the out-flow of x in the chart, affine
    in u.  The inverse map is omega_f = u_f / t_x(f)(u), so d omega / du =
    diag(1 / t_x(f)) (I - diag(omega) R S), with R_fx = [x = x(f)] and S_xg =
    d t_x / d u_g.  Raising u_g by one adds g's fundamental cycle: S_xg is
    entry x of (e_head(g) - e_head(T's exit at x(g))) (I - Q)^-1, Q the
    transition matrix of T, nilpotent, and e_cemetery = 0.  By Sylvester's
    identity det(I - diag(omega) R S) = det(I - W (I - Q)^-1), where row y of
    W is the sum over cotree edges g out of y of omega_g (e_head(g) -
    e_head(T's exit at y)), that is W = P - Q.  So it is det(I - P) / det(I -
    Q) = det(I - P), and det d omega / du is the inverse of (a)'s ratio.

    (b) and (c) check the code against that proof.  Each is a polynomial
    identity in the free exits once its denominators (powers of det(I - P))
    are cleared, of degree at most d = m (2n - 1) + 2n for m cotree edges and
    n interior vertices ((a) has m (2n - 1) + n).  A wrong identity whose
    reduction mod p is not zero vanishes at a uniformly drawn point with
    probability at most d / p (Schwartz, J. ACM 27, 1980), the report's
    false_pass_bound.  The rows of (b) have integer entries of size at most
    1, and omega -> u has the inverse above over any field, so a wrong row is
    wrong mod p too.  A point where det(I - P) = 0 mod p fails every check.

    Each tree's report gives the prime, the point's cotree exits (as a list
    of one), the degree bound, the false-pass bound, the verdict of (a), (b)
    and (c), and pass.
    """
    p = THM21_PRIME
    split = split_graph(g, w.alpha)
    draw = philox_stream(0, _THM21).integers(0, p, size=len(g.edge_ids), dtype=np.uint64).tolist()
    return [_thm21_tree(g, w, split, tree, draw, p) for tree in trees]


def _dirichlet_side(g: DirectedGraph, w: DirichletWeights, lam, trees, n: int, seed: int):
    """Each directed tree's Dirichlet side for `verify_theorem_2_1`: by the
    tensor rule, `gauss_jacobi_laplace_by_tree`, up to split dimension
    MAX_QUAD_DIM, and above it where the budget allows the rule and every
    edge weight is at least 1, so that every Beta factor has a bounded
    density; elsewhere by `mc_laplace_by_tree` at (n, seed).  Below weight
    1 the gap does not bound the rule's error: at weight 1/100 on every edge
    of K3 the (3, 6) rule was 0.5% off the order-12 rule, 0.44 times its
    gap, and 9 standard errors off 400 000 Monte Carlo samples; at 1/12, 0.68
    times its gap."""
    d = len(g.edge_ids) - len(g.interior)
    if d <= MAX_QUAD_DIM or (_gauss_jacobi_orders(d)
                             and all(w.alpha[eid] >= 1 for eid in g.edge_ids)):
        return gauss_jacobi_laplace_by_tree(g, w, lam, trees)
    return mc_laplace_by_tree(g, w, lam, trees, n, seed)[1]


def verify_theorem_2_1(g: DirectedGraph, w: DirichletWeights, lam, trees,
                       n: int = 100_000, seed: int = 0) -> list[dict]:
    """The tree-weighted Laplace identity for each directed tree of `trees`,
    each tree's report with a pass verdict and the parts that decided it.

    `thm21_certificate` decides the identity for every tree.  The report
    also carries the right side, the Dirichlet-averaged tree-weighted
    Laplace functional.  Its dimension is the split chart's, D = |E| -
    |interior|.  It comes from the tensor Gauss-Jacobi rule
    (`gauss_jacobi_laplace_by_tree`) up to D = MAX_QUAD_DIM, and above
    where the rule's budgeted orders and the weights allow it; elsewhere
    from one `mc_laplace_by_tree` batch at (n, seed) (`_dirichlet_side`).
    A rule that cannot be built FAILs every tree, the reason its right side
    and "rhs" what decided.  Up to D = MAX_QUAD_DIM quadrature computes the
    left side too, the flow integral on the vertex-split graph times
    C_alpha, tree by tree; the `agreement` of the two sides, within their
    errors, decides the verdict with the certificate, and a tree whose
    quadrature does not converge FAILs, the reason its left side and "lhs"
    what decided.  Above it no flow integral is computed, and the
    certificate alone decides.  Where the rule gives the right side the
    report does not depend on (n, seed), though n must still be at least 2.
    Neither side of a tree depends on the other trees of the list, so a
    tree's report is the one that the list of it alone gives.
    """
    check_samples(n)
    certificates = thm21_certificate(g, w, trees)
    try:
        rhs = [est.as_dict() for est in _dirichlet_side(g, w, lam, trees, n, seed)]
    except QuadratureNonConvergence as exc:
        rhs = [{"nonconvergence": str(exc)} for _ in trees]
    quadrature = len(g.edge_ids) - len(g.interior) <= MAX_QUAD_DIM
    if quadrature:
        split = split_graph(g, w.alpha)
        c_alpha = constant_C_alpha(g, w)
    reports = []
    for t, cert, right in zip(trees, certificates, rhs):
        report = {"tree": list(t.key), "certificate": cert, "rhs": right,
                  "decided_by": ["certificate"]}
        ok = cert["pass"]
        if "nonconvergence" in right:
            report["decided_by"].append("rhs")
            ok = False
        if quadrature:
            try:
                flow = integrate_quadrature(split_integrand_spec(split, lam, t))
            except QuadratureNonConvergence as exc:
                report["lhs"], ok = {"nonconvergence": str(exc)}, False
                report["decided_by"].append("lhs")
            else:
                left = {"value": c_alpha * flow.value, "error": c_alpha * flow.error,
                        "method": flow.method}
                report["lhs"] = left
                if "nonconvergence" not in right:
                    gate = agreement(abs(left["value"] - right["value"]), left["error"],
                                     right["error"])
                    report["agreement"] = gate
                    report["decided_by"].append("agreement")
                    ok = ok and gate["pass"]
        report["pass"] = ok
        reports.append(report)
    return reports


def integral_vector(g: DirectedGraph, alpha, lam, trees):
    """Tree-chart integrals over a list of trees, and their error bounds.

    Returns (values, errors).  A chart whose quadrature does not converge
    raises its `QuadratureNonConvergence`: the vector is whole or absent.
    """
    ests = [integrate_quadrature(IntegrandSpec(g, alpha, lam, t)) for t in trees]
    return np.array([e.value for e in ests]), np.array([e.error for e in ests])


def cohomology_identity_check(spec: IntegrandSpec, e0: str, charts: dict | None = None) -> dict:
    """Exchange identity between a tree integral and its adjacent tree integrals.

    The cycle form value times the z_{e0}-weighted tree integral equals the
    signed, weight-scaled sum of the integrals over the trees obtained by
    swapping e0 for each cycle edge.  (At unit weights the scaling disappears.)
    `charts` maps the edge set of a tree to its integral at the weights and
    rates of `spec`: a swapped tree's integral is read from it, or computed
    and added to it, so that checks sharing the dict integrate each chart
    once.  Both sides are integrated to `integrate_quadrature`'s default
    target and compared by `agreement` at its default slack.
    """
    if e0 in spec.tree.edges:
        raise ValueError(f"edge {e0!r} is in the chart tree")
    charts = {} if charts is None else charts
    g = spec.graph
    cyc = fundamental_cycle(g, spec.tree, e0)
    l_c = float(cyc.form(spec.lam))
    weighted = integrate_quadrature(spec, weight_edge=e0)
    lhs = l_c * weighted.value
    lhs_err = abs(l_c) * weighted.error

    rhs = 0.0
    rhs_err = 0.0
    terms = []
    for eid in sorted(cyc.edges):
        swapped = (spec.tree.edges | {e0}) - {eid}
        if swapped not in charts:
            alt = IntegrandSpec(g, spec.alpha, spec.lam, spanning_tree(g, swapped))
            charts[swapped] = integrate_quadrature(alt)
        est = charts[swapped]
        coef = cyc.sign(eid) * float(spec.alpha[eid])  # sign is relative to e0's direction
        rhs += coef * est.value
        rhs_err += abs(coef) * est.error
        terms.append({"edge": eid, "coefficient": coef, "integral": est.value})

    return {
        "lhs": {"value": lhs, "error": lhs_err},
        "rhs": {"value": rhs, "error": rhs_err, "terms": terms},
        **agreement(abs(lhs - rhs), lhs_err, rhs_err),
    }
