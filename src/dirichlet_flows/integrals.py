"""Numerical evaluation of flow-polytope integrals and the identity checks.

For a spanning tree T, the cotree coordinates parametrize the space of flows
with unit mass at the base, and the integral of

    exp(-<rates, z>) * prod_e z_e^{alpha_e} * prod_{e cotree} z_e^{-1}

over the all-positive chamber is evaluated either by nested adaptive
Gauss-Kronrod quadrature (dimension at most MAX_QUAD_DIM) or by
gamma-proposal importance sampling.  Both take the integrand from one kernel,
`_Evaluator.log_values`: at points given by their coordinate rows it tests
the chamber and sums a_e log z_e - b_e z_e over the edges, each flow formed
as its offset plus coefficients times coordinate rows.  Quadrature passes the
exponents and rates as (a, b); Monte Carlo passes them with the proposal's
log density merged in.  Every sum is of rows added in a fixed order, with no
BLAS product, so no value depends on the BLAS thread count.  Points outside
the chamber get 0, so Monte Carlo proposals that leave it get weight zero.

Quadrature runs over the chamber itself: Fourier-Motzkin elimination of the
chamber inequalities, in exact rationals, gives each nested level the interval
of its coordinate given the outer ones, so no Gauss-Kronrod panel lies where
the integrand vanishes.  Each level integrates a whole batch of sibling
integrals in lockstep, one adaptive heap per integral: a round evaluates the
new panels of all of them with one vectorized call, so the integrand is called
once per round rather than once per panel.  A level that runs to infinity
starts on four graded panels in t, its unbounded tail already bisected.

`verify_theorem_2_1` is the one entry to the tree-weighted Laplace identity
on the vertex-split graph, for a list of directed trees.  The same module
checks the two structural identities behind the flat connection: the
divergence pairing, exactly, on integer blocks of random triples
(`pairing_residual`), and the exchange between adjacent tree integrals.
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
    Moments,
    _PAIRING,
    _PROPOSAL,
    _blocks,
    mc_laplace_by_tree,
    philox_stream,
    real_rates,
)
from .graphs import DirectedGraph, SplitGraph, split_graph


# The largest chart dimension that nested quadrature takes on.
MAX_QUAD_DIM = 4


class QuadratureNonConvergence(RuntimeError):
    """The panel or evaluation budget ran out before the error target was met."""


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
    error: float  # quadrature: error-target bound; monte-carlo: 1 sigma
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
        exps = []
        for eid in g.edge_ids:
            w = float(spec.alpha[eid])
            if eid in free_ids:
                w -= 1.0
            if eid == weight_edge:
                w += 1.0
            exps.append(w)
        self.exps = exps
        if weight_edge is not None and weight_edge not in g.edge_by_id:
            raise ValueError(f"unknown weight edge {weight_edge!r}")
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
# Integrand evaluations of one `integrate_quadrature` call: more than 20
# times the most that any test, benchmark op or CI run takes (340 050), and
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
    """Exact limits of each coordinate on the chamber offset + C.u > 0.

    Fourier-Motzkin elimination of u_{d-1}, ..., u_1 in exact rationals: the
    rows with a zero u_k coefficient are kept, each row with a positive one is
    combined with each row with a negative one, and the results are scaled to
    max |coefficient| = 1 and deduplicated.  The rows eliminated at step k are
    the limits of level k: given u_0..u_{k-1}, u_k lies above every bound of a
    positive row and below every bound of a negative one.  Each free coordinate
    is an edge flow, so its own row u_k > 0 keeps every lower limit finite.
    The chamber is empty when a row without coefficients has offset <= 0.
    """

    def __init__(self, rows, d: int):
        system = {_scaled(b, tuple(a)) for b, a in rows}
        self.levels = [None] * d
        for k in reversed(range(d)):
            kept = {(b, a[:k]) for b, a in system if a[k] == 0}
            lower = [(b, a) for b, a in system if a[k] > 0]
            upper = [(b, a) for b, a in system if a[k] < 0]
            self.levels[k] = (_bound_rows(lower, k), _bound_rows(upper, k))
            for bp, ap in lower:
                for bn, an in upper:
                    s, t = -an[k], ap[k]
                    kept.add(_scaled(s * bp + t * bn,
                                     tuple(s * x + t * y for x, y in zip(ap[:k], an[:k]))))
            system = kept
        self.empty = any(b <= 0 for b, _ in system)

    def intervals(self, k: int, prefixes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) of u_k for each row u_0..u_{k-1} of the (m, k) prefixes; hi is
        inf where nothing bounds u_k above.  Elementwise sums keep each row's
        limits independent of the batch."""
        (lo_b, lo_a), (hi_b, hi_a) = self.levels[k]
        lo = (lo_b + (prefixes[:, None, :] * lo_a).sum(axis=2)).max(axis=1)
        if not len(hi_b):
            return lo, np.full(len(lo), math.inf)
        return lo, (hi_b + (prefixes[:, None, :] * hi_a).sum(axis=2)).min(axis=1)


def _settle(heap: list, tol: float, k: int, d: int) -> tuple[float, float]:
    """Value and error bound of one finished integral from its panels."""
    value = sum(p[3] for p in heap)
    err = sum(p[4] + p[5] for p in heap)
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

    A bounded row starts on the panel (0, 1), an unbounded one on `_GRADED`,
    three bisections toward t = 1, where the integrand decays like
    exp(-c t/(1-t)): from (0, 1) every chart of the benchmark bisected there
    three times.  Two-diamond's `verify-identities` took 40 695 evaluations
    from (0, 1), and 23 175, 18 000, 28 125 and 40 500 from depths 2 to 5.
    """
    d = ev.dim
    lo, hi = limits.intervals(k, prefixes)
    values, errors = np.zeros(len(lo)), np.zeros(len(lo))

    def node_fn(rows, a, b):
        pts = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * _NODES
        lo_r, hi_r = lo[rows, None], hi[rows, None]
        unbounded = np.isinf(hi_r)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            us = np.where(unbounded, lo_r + pts / (1.0 - pts), lo_r + (hi_r - lo_r) * pts)
            jac = np.where(unbounded, 1.0 / (1.0 - pts) ** 2, hi_r - lo_r)
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
                total = totals[i] = sum(p[4] for p in heap)
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
    the integrand is positive and smooth.  Each node of a level-k panel
    holds one level-(k+1) integral; the integrals of all new panels of a
    round go down as one batch, adapt side by side (each by its own panels,
    as if alone) and come back together.  The reported error sums the panel
    estimates and the weighted errors of inner evaluations; any integral that
    misses its target raises `QuadratureNonConvergence`, naming its level, and
    so does a call whose integrand evaluations would pass _MAX_EVALS.
    """
    ev = _Evaluator(spec, weight_edge)
    d = ev.dim
    if d > MAX_QUAD_DIM:
        raise ValueError(f"quadrature supports dimension <= {MAX_QUAD_DIM}, got {d}")
    if d == 0:
        return IntegralEstimate(float(ev(np.zeros((0, 1)))[0]), 0.0, "quadrature", 1)
    limits = _ChamberLimits(ev.rows, d)
    if limits.empty:
        return IntegralEstimate(0.0, 0.0, "quadrature", 0)
    counter = [0]
    value, err = _integrate_level(ev, limits, 0, np.zeros((1, 0)), np.array([tol]), counter)
    return IntegralEstimate(float(value[0]), float(err[0]), "quadrature", counter[0])


# ---------------------------------------------------------------------------
# importance-sampled Monte Carlo
# ---------------------------------------------------------------------------

class _McChart:
    """One tree chart's importance sampling, fed the proposal's Gamma draws
    block by block.

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
    weight 0.  Each block's weights fold into running `Moments`, and into
    the Kish sums sum w and sum w^2, both kept scaled by exp(-M) for the
    largest log weight M so far."""

    def __init__(self, spec: IntegrandSpec, weight_edge: str | None):
        ev = self.ev = _Evaluator(spec, weight_edge)
        shapes = [float(spec.alpha[eid]) for eid in ev.free_ids]
        bad = [eid for eid, s in zip(ev.free_ids, shapes) if s <= 0]
        if bad:
            raise ValueError(f"gamma proposal needs positive exponents on cotree edges {bad}")
        self.shapes = tuple(shapes)
        rates = [r or 1.0 for r in real_rates(spec.lam, ev.free_ids)]
        self.rates = np.array(rates)[:, None]
        self.const = math.fsum(s * math.log(r) - math.lgamma(s) for s, r in zip(shapes, rates))
        a, b = list(ev.exps), list(ev.lam)
        for j, eid in enumerate(ev.free_ids):
            i = spec.graph.edge_ids.index(eid)
            a[i] -= shapes[j] - 1.0
            b[i] -= rates[j]
        self.logs = [(i, x) for i, x in enumerate(a) if x != 0]
        self.rated = [(i, x) for i, x in enumerate(b) if x != 0]
        self.moments = Moments()
        self.inside, self.top, self.s1, self.s2 = 0, -math.inf, 0.0, 0.0

    def add(self, raw: np.ndarray, u: np.ndarray, zt: np.ndarray, vals: np.ndarray) -> None:
        """Fold in a block of (d, m) Gamma(shape, 1) draws, given scratch arrays
        for its coordinates, its mixed flows and its weights."""
        np.divide(raw, self.rates, out=u)
        at, logw = self.ev.log_values(u, zt, self.logs, self.rated)
        vals.fill(0.0)
        if len(at):
            logw -= self.const
            vals[at] = np.exp(logw)
            top = float(logw.max())
            if top > self.top:
                scale = math.exp(self.top - top)
                self.s1, self.s2, self.top = self.s1 * scale, self.s2 * scale * scale, top
            logw -= self.top
            np.exp(logw, out=logw)
            self.s1 += float(np.add.reduce(logw))
            logw *= logw
            self.s2 += float(np.add.reduce(logw))
            self.inside += len(logw)
        self.moments.add(vals)

    def estimate(self, n: int) -> IntegralEstimate:
        if not self.ev.dim:
            return IntegralEstimate(float(self.ev(np.zeros((0, 1)))[0]), 0.0, "monte-carlo", 1)
        if not self.inside:
            raise ValueError("all proposal samples fell outside the chamber")
        value, err = self.moments.estimate()
        return IntegralEstimate(value, err, "monte-carlo", n, self.s1 * self.s1 / self.s2)


def integrate_mc_charts(specs, n: int, seed: int,
                        weight_edge: str | None = None) -> list[IntegralEstimate]:
    """`integrate_mc` of several charts at one (n, seed), in one pass over
    the proposal's blocks.

    Block b of the proposal, BLOCK_ROWS points (the last block shorter),
    draws its Gamma(shape, 1) coordinates row by row from stream (seed, 3,
    b).  Charts whose cotree shapes agree, as every directed-tree chart of
    one `verify-thm21` run at unit weights, share each block's draw, and
    all of them take it while it is in cache; nothing of length n is held.
    """
    if n < 2:
        raise ValueError(f"a standard error needs at least 2 samples, got {n}")
    charts = [_McChart(spec, weight_edge) for spec in specs]
    groups: dict[tuple, list[_McChart]] = {}
    for chart in charts:
        if chart.ev.dim:
            groups.setdefault(chart.shapes, []).append(chart)
    width = next(_blocks(n))[2]  # the first block is the widest
    for shapes, group in groups.items():
        # scratch arrays, reused block after block: fresh ones would be
        # mapped page by page at every block
        raw, u = np.empty((len(shapes), width)), np.empty((len(shapes), width))
        vals = np.empty(width)
        zt = np.empty((max(len(chart.ev.mixed) for chart in group), width))
        for b, lo, hi in _blocks(n):
            m = hi - lo
            rng, block = philox_stream(seed, _PROPOSAL, b), raw[:, :m]
            for row, shape in zip(block, shapes):
                rng.standard_gamma(shape, size=m, out=row)
            for chart in group:
                chart.add(block, u[:, :m], zt[:len(chart.ev.mixed), :m], vals[:m])
    return [chart.estimate(n) for chart in charts]


def integrate_mc(spec: IntegrandSpec, n: int, seed: int,
                 weight_edge: str | None = None) -> IntegralEstimate:
    """Gamma-proposal importance sampling over the cotree coordinates, with
    the Kish effective sample size of the weights: `integrate_mc_charts` of
    one chart, whose proposal and weights `_McChart` describes."""
    return integrate_mc_charts([spec], n, seed, weight_edge)[0]


# ---------------------------------------------------------------------------
# normalization constant and identity checks
# ---------------------------------------------------------------------------

def constant_C_alpha(g: DirectedGraph, w: DirichletWeights) -> float:
    """Product of Gamma(vertex total) over Gamma(edge weight), in log space."""
    beta = w.beta(g)
    logc = sum(math.lgamma(float(b)) for b in beta.values())
    logc -= sum(math.lgamma(float(w.alpha[eid])) for eid in g.edge_ids)
    if logc > math.log(np.finfo(float).max):
        raise OverflowError(f"normalization constant overflows: log value {logc:.3e}")
    return float(math.exp(logc))


def agreement(diff: float, err_a: float, err_b: float, slack: float) -> dict:
    """Verdict on two estimates that differ by diff and carry errors err_a, err_b.

    They agree when diff is within three times the summed errors plus an
    absolute slack.  Every comparison of two error-carrying estimates (both
    sides of Theorem 2.1, of an exchange identity, of a transport) uses it.
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


def verify_theorem_2_1(g: DirectedGraph, w: DirichletWeights, lam, trees,
                       n: int = 100_000, seed: int = 0, tol: float = 1e-6,
                       quad_tol: float = 1e-8) -> list[dict]:
    """Both sides of the tree-weighted Laplace identity for each directed tree
    of `trees`, each tree's report with a pass verdict.

    Left: the flow integral on the vertex-split graph, times C_alpha.  Up to
    split dimension MAX_QUAD_DIM quadrature computes it tree by tree.  Above,
    one `integrate_mc_charts` pass at (n, seed + 1) computes every tree's,
    each reported with the Kish effective sample size (sum w)^2 / sum w^2 of
    its importance weights w.  Right: the Dirichlet-averaged tree-weighted
    Laplace functional, every tree's from one `mc_laplace_by_tree` batch at
    (n, seed).  Neither side of a tree depends on the other trees of the
    list, so a tree's report is the one that the list of it alone gives.
    """
    _, rhs = mc_laplace_by_tree(g, w, lam, trees, n, seed)
    split = split_graph(g, w.alpha)
    specs = [split_integrand_spec(split, lam, t) for t in trees]
    if len(g.edge_ids) - len(g.interior) > MAX_QUAD_DIM:
        lhs = integrate_mc_charts(specs, n, seed + 1)
    else:
        lhs = [integrate_quadrature(spec, quad_tol) for spec in specs]
    c_alpha = constant_C_alpha(g, w)
    reports = []
    for t, flow, right in zip(trees, lhs, rhs):
        left = {"value": c_alpha * flow.value, "error": c_alpha * flow.error,
                "method": flow.method}
        if flow.ess is not None:
            left["ess"] = flow.ess
        reports.append({
            "tree": list(t.key),
            "lhs": left,
            "rhs": right.as_dict(),
            **agreement(abs(left["value"] - right.value), left["error"], right.std_error, tol),
        })
    return reports


def integral_vector(g: DirectedGraph, alpha, lam, trees, quad_tol: float = 1e-8):
    """Tree-chart integrals over a list of trees, flagging nonconvergent ones.

    Returns (values, errors, ok_flags); a tree whose integral does not
    converge (possible off the directed extensions on split graphs) gets NaN
    and ok=False rather than failing the whole vector.
    """
    values, errors, ok = [], [], []
    for t in trees:
        spec = IntegrandSpec(g, alpha, lam, t)
        try:
            est = integrate_quadrature(spec, quad_tol)
        except QuadratureNonConvergence:
            est = None
        if est is None or not math.isfinite(est.value):
            values.append(float("nan"))
            errors.append(float("nan"))
            ok.append(False)
        else:
            values.append(est.value)
            errors.append(est.error)
            ok.append(True)
    return np.array(values), np.array(errors), ok


def cohomology_identity_check(spec: IntegrandSpec, e0: str, tol: float = 1e-6,
                              quad_tol: float = 1e-8, charts: dict | None = None) -> dict:
    """Exchange identity between a tree integral and its adjacent tree integrals.

    The cycle form value times the z_{e0}-weighted tree integral equals the
    signed, weight-scaled sum of the integrals over the trees obtained by
    swapping e0 for each cycle edge.  (At unit weights the scaling disappears.)
    `charts` maps the edge set of a tree to its integral at the weights and
    rates of `spec` and at `quad_tol`: a swapped tree's integral is read from
    it, or computed and added to it, so that checks sharing the dict
    integrate each chart once.
    """
    if e0 in spec.tree.edges:
        raise ValueError(f"edge {e0!r} is in the chart tree")
    charts = {} if charts is None else charts
    g = spec.graph
    cyc = fundamental_cycle(g, spec.tree, e0)
    l_c = float(cyc.form(spec.lam))
    weighted = integrate_quadrature(spec, quad_tol, weight_edge=e0)
    lhs = l_c * weighted.value
    lhs_err = abs(l_c) * weighted.error

    rhs = 0.0
    rhs_err = 0.0
    terms = []
    for eid in sorted(cyc.edges):
        swapped = (spec.tree.edges | {e0}) - {eid}
        if swapped not in charts:
            alt = IntegrandSpec(g, spec.alpha, spec.lam, spanning_tree(g, swapped))
            charts[swapped] = integrate_quadrature(alt, quad_tol)
        est = charts[swapped]
        coef = cyc.sign(eid) * float(spec.alpha[eid])  # sign is relative to e0's direction
        rhs += coef * est.value
        rhs_err += abs(coef) * est.error
        terms.append({"edge": eid, "coefficient": coef, "integral": est.value})

    return {
        "lhs": {"value": lhs, "error": lhs_err},
        "rhs": {"value": rhs, "error": rhs_err, "terms": terms},
        **agreement(abs(lhs - rhs), lhs_err, rhs_err, tol),
    }
