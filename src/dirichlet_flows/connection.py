"""The flat connection on the spanning-tree bundle and its Pfaffian system.

Every simple base-to-cemetery path contributes a diagonal projector, every
simple cycle a nilpotent-free exchange operator scaled by the edge weights,
and the total matrix 1-form is

    Omega = sum_paths d(path form) * P_path + sum_cycles dlog(cycle form) * Q_cycle.

Each term is a SignedEdgeSet, whose signs are the coefficients of the term's
linear form (`SignedEdgeSet.form`), and a matrix with entries 1 or +-alpha_e.
`build_connection` writes every term matrix once, scaled by L, the lcm of
their entries' denominators, into one integer COO table
(`rationals.IntTable`), path terms first; `ConnectionForm.terms` weighs the
terms into one coefficient M_e.  Every reader takes the terms from that
table: the exact checks as integers, the numeric stack and `transport` as
the table's values over L, correctly rounded to floats.

Matrices follow the endomorphism convention: column T holds the image of the
basis vector of tree T.  The vector of tree-chart integrals pairs with the
basis as a covector, so it solves dI = -Omega^T I; `transport` applies the
transpose internally.  Everything structural is exact, in integers and
Fractions; floats (or complex, off the real locus) appear only in numeric
evaluation and in the ODE integration.  `transport` integrates that ODE with
the Dormand-Prince 5(4) pair (J. R. Dormand & P. J. Prince, "A family of
embedded Runge-Kutta formulae", J. Comput. Appl. Math. 6, 1980) under the
step control of scipy's RK45, in `solve_ivp`.

The commutation and flatness checks are exact over Q without Fraction matrix
products.  They read the term matrices from the table, scaled by L; each
commutator is computed modulo primes below 2^26, as many as an integer bound
on its entries asks for.  Commutation decides each item by whether its
product vanishes (`rationals.nonzero_quads`).  Flatness puts each sample's
rates over a common denominator, so that its cycle forms and the integer
coefficients of every M_e are Python integers, and sends all samples at once
to `rationals.commutator_peaks`, which recovers a nonzero entry exactly.
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
from .rationals import IntTable, commutator_peaks, int_table, nonzero_quads, table_sum


class ExcludedLocusError(ValueError):
    """The rate point lies on (or the path crosses) a cycle-form kernel."""


def _alpha_map(w) -> dict[str, Fraction]:
    if isinstance(w, DirichletWeights):
        return dict(w.alpha)
    return {k: Fraction(v) for k, v in w.items()}


@dataclass(frozen=True, eq=False)
class ConnectionForm:
    """The terms of the connection over the spanning-tree basis.

    Term k of `table` is the matrix of the k-th term of path_terms +
    cycle_terms scaled by `scale`, the lcm L of the denominators of its
    entries, so that every entry is an integer.
    """
    graph: DirectedGraph
    basis: tuple[SpanningTree, ...]
    path_terms: tuple[SignedEdgeSet, ...]
    cycle_terms: tuple[SignedEdgeSet, ...]
    table: IntTable
    scale: int

    @property
    def size(self) -> int:
        return len(self.basis)

    @property
    def edge_ids(self) -> tuple[str, ...]:
        return self.graph.edge_ids

    def check_membership(self, lam) -> list:
        """The cycle forms at lam, in cycle order; raises ExcludedLocusError at
        the first that vanishes.  At the numerators of rational rates over a
        common denominator q they are the integers q L_c."""
        forms = []
        for cyc in self.cycle_terms:
            forms.append(cyc.form(lam))
            if forms[-1] == 0:
                raise ExcludedLocusError(
                    f"rates lie on the kernel of the form of {cyc!r}")
        return forms

    def terms(self, eid: str, lam):
        """(weight, k) pairs such that the sum of weight times term k of the
        table, over L, is the coefficient M_eid at lam.

        A path term weighs its sign s_sigma(e), a cycle term s_c(e) / L_c(lam);
        terms without the edge are skipped.
        """
        for k, term in enumerate(self.path_terms + self.cycle_terms):
            s = term.sign(eid)
            if s:
                yield (s / term.form(lam) if term.kind == "cycle" else s), k


def build_connection(g: DirectedGraph, w) -> ConnectionForm:
    """All path and cycle terms of the connection over the full tree basis.

    A path term is the diagonal projector onto the trees containing the path.
    A cycle term is the exchange operator of the cycle: its column T is
    nonzero only when exactly one cycle edge e0 lies outside T, and then maps
    T into the trees T + e0 - e, e in the cycle, with entry alpha_e signed +1
    or -1 as e runs along or against e0 around the cycle (independent of the
    cycle's stored orientation).  Both are written straight into the integer
    table, scaled by L.
    """
    require_valid(g)
    alpha = _alpha_map(w)
    basis = tree_basis(g)
    index = {t.edges: k for k, t in enumerate(basis)}
    paths, cycles = enumerate_paths(g), enumerate_cycles(g)
    scale = math.lcm(*(alpha[e].denominator for c in cycles for e in c.edges))
    mats = []
    for sigma in paths:
        diagonal = [k for k, t in enumerate(basis) if sigma.edges <= t.edges]
        mats.append((diagonal, diagonal, [scale] * len(diagonal)))
    for cycle in cycles:
        entries = []
        for j, t in enumerate(basis):
            outside = cycle.edges - t.edges
            if len(outside) != 1:
                continue
            (e0,) = outside
            for e in cycle.edges:
                a = alpha[e]
                entries.append((index[(t.edges | outside) - {e}], j,
                                cycle.sign(e0) * cycle.sign(e) * a.numerator
                                * (scale // a.denominator)))
        mats.append(tuple(zip(*sorted(entries))) or ((), (), ()))
    return ConnectionForm(g, tuple(basis), tuple(paths), tuple(cycles), int_table(mats), scale)


def connection_coefficients(conn: ConnectionForm, lam) -> list[list[list[Fraction]]]:
    """Exact coefficient matrices M_i with Omega = sum_i M_i dlambda_i, as
    dense rows of Fractions.

    Requires exact rational rates off every cycle-form kernel; the offending
    cycle is reported otherwise.
    """
    lam = {k: Fraction(v) for k, v in lam.items()}
    conn.check_membership(lam)
    out = []
    for eid in conn.edge_ids:
        m = [[Fraction(0)] * conn.size for _ in range(conn.size)]
        for weight, k in conn.terms(eid, lam):
            for i, j, v in zip(*(part.tolist() for part in conn.table.matrix(k))):
                m[i][j] += weight * Fraction(v, conn.scale)
        out.append(m)
    return out


def _float_terms(conn: ConnectionForm) -> list:
    """Each term matrix as (rows, cols, values), its values the table's over L
    as correctly rounded floats."""
    values = np.array([v / conn.scale for v in conn.table.values.tolist()], dtype=float)
    ptr = conn.table.ptr.tolist()
    return [(conn.table.rows[lo:hi], conn.table.cols[lo:hi], values[lo:hi])
            for lo, hi in zip(ptr, ptr[1:])]


def connection_matrices_numeric(conn: ConnectionForm, lam) -> np.ndarray:
    """Float/complex stack of the coefficient matrices, one per edge coordinate.

    Each weighted term is added at its own entries, term by term in term
    order, which gives the bits of a sum of dense weighted term matrices."""
    vals = {k: complex(v) for k, v in lam.items()}
    conn.check_membership(vals)
    cplx = any(v.imag != 0 for v in vals.values())
    terms = _float_terms(conn)
    out = np.zeros((len(conn.edge_ids), conn.size, conn.size), dtype=complex if cplx else float)
    for m, eid in zip(out, conn.edge_ids):
        for weight, k in conn.terms(eid, vals):
            rows, cols, values = terms[k]
            m[rows, cols] += (weight if cplx else weight.real) * values
    return out


# ---------------------------------------------------------------------------
# structure relations
# ---------------------------------------------------------------------------

def check_commutation(g: DirectedGraph, w) -> dict:
    """Exact check of the five commutation-relation families plus projectors.

    "Disjoint" means edge-disjoint throughout: the operators only see edge
    sets.  Items where no relation is claimed are still reported with their
    observed commutation status.  Every item is one integer residual
    X Y - Z W of the terms scaled by L, all decided in one batch.
    """
    alpha = _alpha_map(w)
    conn = build_connection(g, alpha)
    scale, terms = conn.scale, conn.table
    mats = [terms.matrix(k) for k in range(len(terms.ptr) - 1)]
    identities: dict[Fraction, int] = {}

    def add(coo) -> int:
        mats.append(coo)
        return len(mats) - 1

    p = {s: k for k, s in enumerate(conn.path_terms)}
    q = {c: len(p) + k for k, c in enumerate(conn.cycle_terms)}
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
            diagonal = range(conn.size)
            identities[c] = add((diagonal, diagonal, [(c * scale).numerator] * conn.size))
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
        ssum = add(table_sum(terms, [q[c] for c in inside], conn.size))
        for ci in inside:
            record("iv", [inside[0], inside[1], inside[2], ci], True, commutator(ssum, q[ci]))

    # (v) path pairs whose union holds a unique cycle
    for a in range(len(paths)):
        for b in range(a + 1, len(paths)):
            union = paths[a].edges | paths[b].edges
            if genus(g, union) != 1:
                continue
            (cycle,) = [c for c in cycles if c.edges <= union]  # genus 1: one cycle
            ssum = add(table_sum(terms, [p[paths[a]], p[paths[b]]], conn.size))
            record("v", [paths[a], paths[b], cycle], True, commutator(ssum, q[cycle]))

    nonzero = nonzero_quads(int_table(mats), conn.size, quads)
    for k, it in enumerate(items):
        it["commutes"] = k not in nonzero
        it["ok"] = (not it["claimed"]) or it["commutes"]
    return {"items": items, "pass": all(it["ok"] for it in items)}


def _float_residual(mats: np.ndarray) -> float:
    """Max commutator residual of the stacked matrices, relative to the scale of
    the products."""
    worst = 0.0
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            ab = mats[a] @ mats[b]
            ba = mats[b] @ mats[a]
            scale = max(np.abs(ab).max(), np.abs(ba).max(), 1e-300)
            worst = max(worst, float(np.abs(ab - ba).max() / scale))
    return worst


def check_flatness(conn: ConnectionForm, lambda_samples, exact: bool = True):
    """Max commutator residual of the coefficient matrices over the samples.

    Exact mode returns a Fraction (zero means flat).  At each sample the rates
    are put over their common denominator q, and the cycle forms q L_c are
    computed once, as integers, which also runs the exclusion test.  The
    coefficient M_e is scaled to the integer matrix N_e = D_e L M_e, with D_e
    the lcm of the denominators of its weights in `ConnectionForm.terms`, so
    that N_e is an integer combination of the term matrices scaled by L; every
    [N_a, N_b] of every sample goes to `rationals.commutator_peaks`, which
    assembles each N_e for all samples at once and expands each edge pair
    once.  Float mode returns the max residual relative to the product scale.
    """
    if not exact:
        worst = 0.0
        for lam in lambda_samples:
            # one sample's stack at a time: it is freed before the next is built
            worst = max(worst, _float_residual(connection_matrices_numeric(conn, lam)))
        return worst

    terms = conn.path_terms + conn.cycle_terms
    # per edge, the (index, sign) of each term with the edge
    members = [[(k, term.sign(eid)) for k, term in enumerate(terms) if term.sign(eid)]
               for eid in conn.edge_ids]
    coefficients = [[] for _ in conn.edge_ids]
    denominators = []
    for lam in lambda_samples:
        lam = {k: Fraction(v) for k, v in lam.items()}
        # in Python integers, also where a Fraction holds numpy ones
        q = math.lcm(*(int(v.denominator) for v in lam.values()))
        forms = conn.check_membership({k: int(v.numerator) * (q // int(v.denominator))
                                       for k, v in lam.items()})
        # the weight s_c(e) / L_c = s_c(e) q / (q L_c) of a cycle term in
        # lowest terms is s_c(e) top / den; a path term's is s(e) / 1
        dens, tops = [1] * len(conn.path_terms), [1] * len(conn.path_terms)
        for form in forms:
            g = math.gcd(q, form)
            dens.append(abs(form) // g)
            tops.append(q // g if form > 0 else -(q // g))
        row = []
        for ks, coef in zip(members, coefficients):
            d = math.lcm(*(dens[k] for k, _ in ks))
            coef.append([sign * tops[k] * (d // dens[k]) for k, sign in ks])
            row.append(d)
        denominators.append(row)
    pairs = [(a, b) for a in range(len(members)) for b in range(a + 1, len(members))]
    combos = [([k for k, _ in ks], coef) for ks, coef in zip(members, coefficients)]
    peaks = commutator_peaks(conn.table, conn.size, combos, pairs)
    worst = Fraction(0)
    for (s, k), peak in peaks.items():
        a, b = pairs[k]
        d = denominators[s]
        worst = max(worst, Fraction(peak, d[a] * d[b] * conn.scale ** 2))
    return worst


# sampled rates are k / _RATE_DENOMINATOR, 1 <= k <= 8 _RATE_DENOMINATOR
_RATE_DENOMINATOR = 16
_RATE_TRIES = 1000


def sample_rates_off_kernels(conn: ConnectionForm, rng) -> dict[str, Fraction]:
    """Random positive rational rates avoiding every cycle-form kernel.

    A candidate is tested on its numerators, whose cycle forms are integers."""
    for _ in range(_RATE_TRIES):
        numerators = {eid: int(rng.integers(1, 8 * _RATE_DENOMINATOR + 1))
                      for eid in conn.edge_ids}
        try:
            conn.check_membership(numerators)
            return {eid: Fraction(k, _RATE_DENOMINATOR) for eid, k in numerators.items()}
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
    dense = []
    for rows, cols, values in _float_terms(conn):
        mat = np.zeros((conn.size, conn.size))
        mat[cols, rows] = values
        dense.append(mat)
    paths = list(zip(conn.path_terms, dense))
    cycles = list(zip(conn.cycle_terms, dense[len(paths):]))
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
