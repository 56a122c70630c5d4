"""The flat connection on the spanning-tree bundle and its Pfaffian system.

Every simple base-to-cemetery path contributes a diagonal projector, every
simple cycle a nilpotent-free exchange operator scaled by the edge weights,
and the total matrix 1-form is

    Omega = sum_paths d(path form) * P_path + sum_cycles dlog(cycle form) * Q_cycle.

Each term is built once, as a (SignedEdgeSet, TreeMatrix) pair whose set's
signs are the coefficients of the term's linear form (`SignedEdgeSet.form`).
`ConnectionForm.terms` weighs the pairs into one coefficient M_e.

Matrices follow the endomorphism convention: column T holds the image of the
basis vector of tree T.  The vector of tree-chart integrals pairs with the
basis as a covector, so it solves dI = -Omega^T I; `transport` applies the
transpose internally.  Everything structural is exact over Fractions; floats
(or complex, off the real locus) appear only in numeric evaluation and in the
ODE integration.  `transport` integrates that ODE with the Dormand-Prince 5(4)
pair (J. R. Dormand & P. J. Prince, "A family of embedded Runge-Kutta
formulae", J. Comput. Appl. Math. 6, 1980) under the step control of scipy's
RK45, in `solve_ivp`.

The commutation and flatness checks are exact over Q without Fraction matrix
products: scaled to integer matrices, each commutator is computed modulo
primes below 2^26, as many as an integer bound on its entries asks for
(`rationals.integer_residuals`), and a nonzero entry is recovered exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .combinatorics import (
    SignedEdgeSet,
    SpanningTree,
    enumerate_cycles,
    enumerate_paths,
    genus,
    tree_basis,
)
from .environment import DirichletWeights
from .graphs import DirectedGraph, require_valid
from .rationals import IntSparse, Sparse, format_scalar, integer_residuals, sp_set, sp_to_dense


class ExcludedLocusError(ValueError):
    """The rate point lies on (or the path crosses) a cycle-form kernel."""


@dataclass(frozen=True, eq=False)
class TreeMatrix:
    """Sparse square matrix over Fractions, indexed by the spanning-tree basis."""
    size: int
    rows: Sparse
    label: str

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows.get(i, {}).get(j, Fraction(0))

    def to_dense(self, as_float: bool = False):
        return sp_to_dense(self.rows, self.size, as_float)

    def to_numpy(self) -> np.ndarray:
        m = np.zeros((self.size, self.size))
        for i, row in self.rows.items():
            for j, v in row.items():
                m[i, j] = float(v)
        return m

    def as_triplets(self, basis=None) -> dict:
        out = {
            "rows": self.size,
            "cols": self.size,
            "label": self.label,
            "entries": [[i, j, format_scalar(v)]
                        for i in sorted(self.rows) for j, v in sorted(self.rows[i].items())],
        }
        if basis is not None:
            out["basis"] = [list(t.key) for t in basis]
        return out


def _alpha_map(w) -> dict[str, Fraction]:
    if isinstance(w, DirichletWeights):
        return dict(w.alpha)
    return {k: Fraction(v) for k, v in w.items()}


def omega_path(g: DirectedGraph, sigma: SignedEdgeSet,
               basis: list[SpanningTree] | None = None) -> TreeMatrix:
    """Diagonal projector onto the trees containing the path."""
    basis = basis if basis is not None else tree_basis(g)
    rows: Sparse = {}
    for k, t in enumerate(basis):
        if sigma.edges <= t.edges:
            sp_set(rows, k, k, Fraction(1))
    return TreeMatrix(len(basis), rows, f"path:{','.join(sorted(sigma.edges))}")


def omega_cycle(g: DirectedGraph, cycle: SignedEdgeSet, w,
                basis: list[SpanningTree] | None = None) -> TreeMatrix:
    """Exchange operator of a cycle: column T maps into the trees T+e0-e, e in C.

    The column for T is nonzero only when the cycle is a fundamental cycle of
    T, i.e. exactly one cycle edge e0 lies outside T; the entry for swapping in
    e0 and dropping e is alpha_e with sign +1/-1 as e runs along/against e0
    around the cycle (independent of the cycle's stored orientation).
    """
    alpha = _alpha_map(w)
    basis = basis if basis is not None else tree_basis(g)
    index = {t.edges: k for k, t in enumerate(basis)}
    rows: Sparse = {}
    for j, t in enumerate(basis):
        outside = cycle.edges - t.edges
        if len(outside) != 1:
            continue
        (e0,) = outside
        for e in cycle.edges:
            target = (t.edges | {e0}) - {e}
            i = index[frozenset(target)]
            eps = cycle.sign(e0) * cycle.sign(e)
            sp_set(rows, i, j, Fraction(eps) * alpha[e])
    return TreeMatrix(len(basis), rows, f"cycle:{','.join(sorted(cycle.edges))}")


@dataclass(frozen=True, eq=False)
class ConnectionForm:
    graph: DirectedGraph
    basis: tuple[SpanningTree, ...]
    path_terms: tuple[tuple[SignedEdgeSet, TreeMatrix], ...]
    cycle_terms: tuple[tuple[SignedEdgeSet, TreeMatrix], ...]

    @property
    def size(self) -> int:
        return len(self.basis)

    @property
    def edge_ids(self) -> tuple[str, ...]:
        return self.graph.edge_ids

    def check_membership(self, lam) -> None:
        for cyc, _ in self.cycle_terms:
            if cyc.form(lam) == 0:
                raise ExcludedLocusError(
                    f"rates lie on the kernel of the form of {cyc!r}")

    def terms(self, eid: str, lam):
        """(weight, matrix) pairs whose weighted sum is the coefficient M_eid at lam.

        A path term weighs its sign s_sigma(e), a cycle term s_c(e) / L_c(lam);
        terms without the edge are skipped.
        """
        for term, mat in self.path_terms + self.cycle_terms:
            s = term.sign(eid)
            if s:
                yield (s / term.form(lam) if term.kind == "cycle" else s), mat


def build_connection(g: DirectedGraph, w) -> ConnectionForm:
    """All path and cycle terms of the connection over the full tree basis."""
    require_valid(g)
    basis = tree_basis(g)
    paths = tuple((s, omega_path(g, s, basis)) for s in enumerate_paths(g))
    cycles = tuple((c, omega_cycle(g, c, w, basis)) for c in enumerate_cycles(g))
    return ConnectionForm(g, tuple(basis), paths, cycles)


def connection_coefficients(conn: ConnectionForm, lam) -> list[TreeMatrix]:
    """Exact coefficient matrices M_i with Omega = sum_i M_i dlambda_i.

    Requires exact rational rates off every cycle-form kernel; the offending
    cycle is reported otherwise.
    """
    lam = {k: Fraction(v) for k, v in lam.items()}
    conn.check_membership(lam)
    out = []
    for eid in conn.edge_ids:
        m: Sparse = {}
        for weight, mat in conn.terms(eid, lam):
            for i, row in mat.rows.items():
                for j, v in row.items():
                    sp_set(m, i, j, weight * v)
        out.append(TreeMatrix(conn.size, m, f"coefficient:{eid}"))
    return out


def connection_matrices_numeric(conn: ConnectionForm, lam) -> np.ndarray:
    """Float/complex stack of the coefficient matrices, one per edge coordinate."""
    vals = {k: complex(v) for k, v in lam.items()}
    conn.check_membership(vals)
    cplx = any(v.imag != 0 for v in vals.values())
    dense = {mat: mat.to_numpy() for _, mat in conn.path_terms + conn.cycle_terms}
    out = np.zeros((len(conn.edge_ids), conn.size, conn.size), dtype=complex if cplx else float)
    for k, eid in enumerate(conn.edge_ids):
        for weight, mat in conn.terms(eid, vals):
            out[k] += (weight if cplx else weight.real) * dense[mat]
    return out


# ---------------------------------------------------------------------------
# structure relations
# ---------------------------------------------------------------------------

def _integer_terms(conn: ConnectionForm) -> tuple[int, dict[TreeMatrix, IntSparse]]:
    """L, the lcm of the denominators of every term entry (of the alpha_e in the
    cycle operators), and each term matrix scaled by L to integers."""
    mats = [mat for _, mat in conn.path_terms + conn.cycle_terms]
    scale = math.lcm(*(v.denominator for mat in mats for row in mat.rows.values()
                       for v in row.values()))
    return scale, {mat: {i: {j: (v * scale).numerator for j, v in row.items()}
                         for i, row in mat.rows.items()} for mat in mats}


def _int_combination(pairs) -> IntSparse:
    """The integer matrix sum of c * m over the (c, m) pairs."""
    out: IntSparse = {}
    for c, m in pairs:
        for i, row in m.items():
            acc = out.setdefault(i, {})
            for j, v in row.items():
                acc[j] = acc.get(j, 0) + c * v
    return out


def check_commutation(g: DirectedGraph, w) -> dict:
    """Exact check of the five commutation-relation families plus projectors.

    "Disjoint" means edge-disjoint throughout: the operators only see edge
    sets.  Items where no relation is claimed are still reported with their
    observed commutation status.  Every item is one integer residual
    X Y - Z W of the terms scaled by L, all decided in one batch.
    """
    alpha = _alpha_map(w)
    conn = build_connection(g, alpha)
    scale, scaled = _integer_terms(conn)
    mats: list[IntSparse] = []
    identities: dict[Fraction, int] = {}

    def add(rows) -> int:
        mats.append(rows)
        return len(mats) - 1

    p = {s: add(scaled[mat]) for s, mat in conn.path_terms}
    q = {c: add(scaled[mat]) for c, mat in conn.cycle_terms}
    paths, cycles = list(p), list(q)
    items, quads = [], []

    def record(relation, members, claimed, quad):
        items.append({
            "relation": relation,
            "members": [",".join(sorted(m.edges)) for m in members],
            "claimed": claimed,
        })
        quads.append(quad)

    def commutator(x, y):
        return (x, y, y, x)

    def projector(x, c):
        """X^2 - c X, as X X - (cL I) X on the operators scaled by L; cL is an
        integer, as c is 1 or a sum of alpha_e whose denominators divide L."""
        if c not in identities:
            identities[c] = add({i: {i: (c * scale).numerator} for i in range(conn.size)})
        return (x, x, identities[c], x)

    # projector identities
    for s in paths:
        record("projector-path", [s], True, projector(p[s], 1))
    for c in cycles:
        total = sum((alpha[e] for e in c.edges), Fraction(0))
        record("projector-cycle", [c], True, projector(q[c], total))

    # (i) cycle pairs
    genus2_pairs = []
    for a in range(len(cycles)):
        for b in range(a + 1, len(cycles)):
            ca, cb = cycles[a], cycles[b]
            union = ca.edges | cb.edges
            gen = genus(g, union)
            disjoint = not (ca.edges & cb.edges)
            record("i", [ca, cb], disjoint or gen != 2, commutator(q[ca], q[cb]))
            if gen == 2:
                genus2_pairs.append((ca, cb, union))

    # (ii) path pairs
    for a in range(len(paths)):
        for b in range(a + 1, len(paths)):
            record("ii", [paths[a], paths[b]], True, commutator(p[paths[a]], p[paths[b]]))

    # (iii) cycle/path pairs
    for c in cycles:
        for s in paths:
            union = c.edges | s.edges
            disjoint = not (c.edges & s.edges)
            claimed = disjoint or genus(g, union) != 1
            record("iii", [c, s], claimed, commutator(q[c], p[s]))

    # (iv) genus-2 unions made of exactly three cycles
    seen = set()
    for ca, cb, union in genus2_pairs:
        if union in seen:
            continue
        seen.add(union)
        inside = [c for c in cycles if c.edges <= union]
        if len(inside) != 3:
            continue
        ssum = add(_int_combination((1, mats[q[c]]) for c in inside))
        for ci in inside:
            record("iv", [inside[0], inside[1], inside[2], ci], True, commutator(ssum, q[ci]))

    # (v) path pairs whose union holds a unique cycle
    for a in range(len(paths)):
        for b in range(a + 1, len(paths)):
            union = paths[a].edges | paths[b].edges
            if genus(g, union) != 1:
                continue
            (cycle,) = [c for c in cycles if c.edges <= union]  # genus 1: one cycle
            ssum = add(_int_combination((1, mats[p[s]]) for s in (paths[a], paths[b])))
            record("v", [paths[a], paths[b], cycle], True, commutator(ssum, q[cycle]))

    nonzero = integer_residuals(mats, conn.size, quads)
    for k, it in enumerate(items):
        it["commutes"] = k not in nonzero
        it["ok"] = (not it["claimed"]) or it["commutes"]
    return {"items": items, "pass": all(it["ok"] for it in items)}


def check_flatness(conn: ConnectionForm, lambda_samples, exact: bool = True):
    """Max commutator residual of the coefficient matrices over the samples.

    Exact mode returns a Fraction (zero means flat): at each sample the
    coefficient M_e is scaled to the integer matrix N_e = D_e L M_e, with D_e
    the lcm of the denominators of its weights in `ConnectionForm.terms`, and
    every [N_a, N_b] of every sample goes into one batch of
    `integer_residuals`.  Float mode returns the max residual relative to the
    product scale.
    """
    if not exact:
        worst = 0.0
        for lam in lambda_samples:
            mats = connection_matrices_numeric(conn, lam)
            for a in range(len(mats)):
                for b in range(a + 1, len(mats)):
                    ab = mats[a] @ mats[b]
                    ba = mats[b] @ mats[a]
                    scale = max(np.abs(ab).max(), np.abs(ba).max(), 1e-300)
                    worst = max(worst, float(np.abs(ab - ba).max() / scale))
        return worst

    scale, scaled = _integer_terms(conn)
    mats: list[IntSparse] = []
    denominators: list[int] = []
    quads = []
    for lam in lambda_samples:
        lam = {k: Fraction(v) for k, v in lam.items()}
        conn.check_membership(lam)
        first = len(mats)
        for eid in conn.edge_ids:
            weighted = [(Fraction(wt), mat) for wt, mat in conn.terms(eid, lam)]
            d = math.lcm(*(wt.denominator for wt, _ in weighted))
            mats.append(_int_combination(((wt * d).numerator, scaled[mat])
                                         for wt, mat in weighted))
            denominators.append(d)
        n_edges = len(conn.edge_ids)
        quads += [(first + a, first + b, first + b, first + a)
                  for a in range(n_edges) for b in range(a + 1, n_edges)]
    worst = Fraction(0)
    for k, peak in integer_residuals(mats, conn.size, quads).items():
        a, b = quads[k][:2]
        worst = max(worst, Fraction(peak, denominators[a] * denominators[b] * scale * scale))
    return worst


def sample_rates_off_kernels(conn: ConnectionForm, rng, denominator: int = 16,
                             max_tries: int = 1000) -> dict[str, Fraction]:
    """Random positive rational rates avoiding every cycle-form kernel."""
    for _ in range(max_tries):
        lam = {eid: Fraction(int(rng.integers(1, 8 * denominator + 1)), denominator)
               for eid in conn.edge_ids}
        try:
            conn.check_membership(lam)
            return lam
        except ExcludedLocusError:
            continue
    raise RuntimeError("could not sample rates off the excluded locus")


# ---------------------------------------------------------------------------
# parallel transport
# ---------------------------------------------------------------------------

class TransportFailure(RuntimeError):
    """The transport ODE could not be integrated to the end of a segment."""


class OdeResult(NamedTuple):
    y: np.ndarray       # the start and the state after each accepted step, one column each
    nfev: int           # right-hand side evaluations
    success: bool
    message: str


# The Dormand-Prince 5(4) tableau: nodes, stage weights, the weights of the
# fifth-order solution and of the error estimate (fifth minus fourth order,
# the last one on the first-same-as-last stage).
_DP_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def solve_ivp(fun, t_span, y0, rtol: float, atol: float) -> OdeResult:
    """Integrate y' = fun(t, y) over t_span with the Dormand-Prince 5(4) pair.

    The step control is scipy's RK45: the initial step of Hairer, Norsett &
    Wanner (Solving ODEs I, Sec. II.4), the RMS norm of the error scaled by
    atol + rtol |y|, a new step of safety 0.9 times error^(-1/5) clamped to
    [0.2, 10] times the old one (at most 1 after a rejection), and failure
    once the step falls below ten spacings of the floats at t.  The arithmetic
    runs in scipy's order, so the end states agree with scipy's bit for bit.
    """
    t, t_end = map(float, t_span)
    y = np.asarray(y0)
    dtype = complex if np.iscomplexobj(y) else float
    y = y.astype(dtype, copy=False)
    nfev = 0

    def f(t, y):
        nonlocal nfev
        nfev += 1
        return np.asarray(fun(t, y), dtype=dtype)

    direction = np.sign(t_end - t) if t_end != t else 1.0
    length = abs(t_end - t)
    fy = f(t, y)
    ys = [y]

    h_abs = 0.0
    if length > 0:
        scale = atol + np.abs(y) * rtol
        d0, d1 = _rms(y / scale), _rms(fy / scale)
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, length)
        d2 = _rms((f(t + h0 * direction, y + h0 * direction * fy) - fy) / scale) / h0
        h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
              else (0.01 / max(d1, d2)) ** (1 / 5))
        h_abs = min(100 * h0, h1, length)

    k = np.empty((7, y.size), dtype=dtype)
    while direction * (t - t_end) < 0:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return OdeResult(np.vstack(ys).T, nfev, False,
                                 "Required step size is less than spacing between numbers.")
            t_new = t + h_abs * direction
            if direction * (t_new - t_end) > 0:
                t_new = t_end
            h = t_new - t
            h_abs = np.abs(h)
            k[0] = fy
            for s in range(1, 6):
                k[s] = f(t + _DP_C[s] * h, y + np.dot(k[:s].T, _DP_A[s, :s]) * h)
            y_new = y + h * np.dot(k[:-1].T, _DP_B)
            k[-1] = f_new = f(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = _rms(np.dot(k.T, _DP_E) * h / scale)
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
        t, y, fy = t_new, y_new, f_new
        ys.append(y)
    return OdeResult(np.vstack(ys).T, nfev, True,
                     "The solver successfully reached the end of the integration interval.")


def _segment_guard(a: complex, b: complex) -> float:
    """Min modulus of a + t b over t in [0, 1]."""
    if b == 0:
        return abs(a)
    t = -((a * b.conjugate()).real) / abs(b) ** 2
    candidates = [0.0, 1.0] + ([t] if 0.0 < t < 1.0 else [])
    return min(abs(a + t * b) for t in candidates)


def transport(conn: ConnectionForm, start_vector, waypoints, tol: float = 1e-10) -> np.ndarray:
    """Parallel transport of a section along a piecewise-linear rate path.

    The section solves I'(t) = -Omega(lambda(t); lambda'(t))^T I(t); the path
    must keep every cycle form away from zero and every rate's real part
    positive (checked segment by segment before integrating).
    """
    if len(waypoints) < 2:
        raise ValueError("need at least two waypoints")
    pts = [{k: complex(v) for k, v in wp.items()} for wp in waypoints]
    for wp in pts:
        for eid in conn.edge_ids:
            if eid not in wp:
                raise ValueError(f"waypoint missing rate for edge {eid!r}")
            if wp[eid].real < 0:
                raise ValueError(f"rate of edge {eid!r} has negative real part on the path")

    # transposed matrices: the integrals solve dI = -Omega^T I
    paths = [(sigma, mat.to_numpy().T) for sigma, mat in conn.path_terms]
    cycles = [(cyc, mat.to_numpy().T) for cyc, mat in conn.cycle_terms]
    y = np.asarray(start_vector, dtype=complex)
    if y.shape != (conn.size,):
        raise ValueError(f"start vector must have length {conn.size}")

    for wa, wb in zip(pts, pts[1:]):
        vel = {eid: wb[eid] - wa[eid] for eid in conn.edge_ids}
        # each cycle weight is b / (a + t b); membership along the whole
        # segment, not just its ends
        cyc_data = []
        for cyc, mat in cycles:
            a, b = cyc.form(wa), cyc.form(vel)
            if _segment_guard(a, b) < 1e-12 * max(1.0, abs(a), abs(b)):
                raise ExcludedLocusError(
                    f"path crosses the form kernel of {cyc!r}")
            cyc_data.append((complex(a), complex(b), mat))
        const = np.zeros((conn.size, conn.size), dtype=complex)
        for sigma, mat in paths:
            const += complex(sigma.form(vel)) * mat

        def rhs(t, y):
            m = const.copy()
            for a, b, mat in cyc_data:
                m += (b / (a + t * b)) * mat
            return -(m @ y)

        sol = solve_ivp(rhs, (0.0, 1.0), y, rtol=100 * np.finfo(float).eps, atol=tol)
        if not sol.success:
            raise TransportFailure(f"transport integration failed: {sol.message}")
        y = sol.y[:, -1]
    return y
