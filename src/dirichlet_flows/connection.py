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
table, and none forms a dense term matrix: the exact checks read its entries
as integers, `transport` as their values over L, correctly rounded to floats.

Matrices follow the endomorphism convention: column T holds the image of the
basis vector of tree T.  The vector of tree-chart integrals pairs with the
basis as a covector, so it solves dI = -Omega^T I; `transport` transposes as
it reads the table, each entry (i, j) carrying I_i to component j.
Everything structural is exact, in integers and Fractions; floats (or
complex, off the real locus) appear only in the ODE integration.
`transport` integrates that ODE with the Dormand-Prince 5(4) pair (J. R.
Dormand & P. J. Prince, "A family of embedded Runge-Kutta formulae", J.
Comput. Appl. Math. 6, 1980) under the step control of scipy's RK45, in
`solve_ivp`.

The commutation and flatness checks are exact over Q without Fraction matrix
products.  Both send quads of integer combinations of the table's term
matrices, scaled by L, to `rationals.residue_peaks`, which computes each
product modulo primes below 2^26, as many as an integer bound on its entries
asks for.  Commutation decides each item at one rate point by whether its
quad vanishes, without recovering an entry.

Flatness at every rate point reduces to finitely many integer identities
(`flatness_certificate`).  The coefficient of d lambda_e is

    M_e(lam) = sum_sigma s_sigma(e) P_sigma + sum_c s_c(e) Q_c / L_c(lam),

each term is closed, so the connection is flat exactly when every [M_a, M_b]
vanishes, and that commutator splits into parts homogeneous of degree 0, -1
and -2 in lam, which must vanish one by one.  Degree 0 is [A_a, A_b], A_e =
sum_sigma s_sigma(e) P_sigma; it vanishes when the projectors P_sigma are
diagonal, as `build_connection` writes them, and the certificate checks its
|E|(|E| - 1)/2 identities all the same.  Degree -1 is sum_c R_c / L_c with
constant R_c, and distinct cycles have forms that are not proportional, so
by partial fractions it vanishes cycle by cycle: sum_sigma [P_sigma, Q_c]
(x) (v_sigma ^ v_c) = 0, v the signed edge vectors, which is the |E| - 1
identities

    [sum_sigma (s_sigma(a) s_c(p) - s_sigma(p) s_c(a)) P_sigma, Q_c] = 0

of a pivot edge p of c and every other edge a.  Degree -2 is sum_{c<c'}
[Q_c, Q_c'] omega_c ^ omega_c', omega = d log L; its 2-forms satisfy only the
Arnold relations inside each rank-2 flat (Brieskorn's decomposition of the
Orlik-Solomon algebra: P. Orlik & H. Terao, Arrangements of Hyperplanes,
Springer 1992, ch. 3 and 5), so it vanishes exactly when [Q_c, sum_{c' in X}
Q_c'] = 0 for every rank-2 flat X and every c in X, the relations of T.
Kohno, Nagoya Math. J. 92 (1983).  A flat of the cycle forms holds two
cycles, or three when their union is a theta graph (`_cycle_flats`).  All
the identities go to `rationals.residue_peaks` in one call.

`check_flatness` evaluates the commutators at sampled rational rates
instead: it puts each sample's rates over a common denominator, so that its
cycle forms and the integer coefficients of every M_e are Python integers,
and sends each sample's commutators to the kernel in a call of its own, so
that its memory does not grow with the sample count; a nonzero entry is
recovered exactly.  It is the sampled oracle of the certificate, and gives
the witness residual of a connection that the certificate finds not flat.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .combinatorics import (
    SignedEdgeSet,
    SpanningTree,
    edge_indicators,
    enumerate_cycles,
    enumerate_paths,
    pair_genus,
    tree_basis,
)
from .environment import DirichletWeights
from .graphs import DirectedGraph, require_valid
from .rationals import IntTable, int_table, residue_peaks


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
    paths, cycles = enumerate_paths(g), enumerate_cycles(g)
    scale = math.lcm(*(alpha[e].denominator for c in cycles for e in c.edges))
    # per tree, how many edges of each path, then of each cycle, it holds
    inside = (edge_indicators(g, [t.edges for t in basis])
              @ edge_indicators(g, [term.edges for term in paths + cycles]).T)
    # edge sets as bit masks, and each edge's weight scaled by L
    bit = {eid: 1 << k for k, eid in enumerate(g.edge_ids)}
    masks = [sum(bit[eid] for eid in t.edges) for t in basis]
    index = {m: k for k, m in enumerate(masks)}
    weight = {eid: a.numerator * (scale // a.denominator) for eid, a in alpha.items()}
    mats = []
    for k, sigma in enumerate(paths):
        diagonal = np.flatnonzero(inside[:, k] == len(sigma.edges))
        mats.append((diagonal, diagonal, [scale] * len(diagonal)))
    for k, cycle in enumerate(cycles, start=len(paths)):
        sign = {bit[e]: cycle.sign(e) for e in cycle.edges}
        signed = [(bit[e], cycle.sign(e) * weight[e]) for e in cycle.edges]
        cycle_mask = sum(sign)
        entries = []
        for j in np.flatnonzero(inside[:, k] == len(cycle.edges) - 1).tolist():
            b0 = cycle_mask & ~masks[j]  # the one cycle edge e0 outside T
            entries += [(index[(masks[j] | b0) & ~b], j, sign[b0] * v) for b, v in signed]
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


# ---------------------------------------------------------------------------
# structure relations
# ---------------------------------------------------------------------------

def _cycle_flats(rows: np.ndarray, genus: np.ndarray):
    """The rank-2 flats of the cycle forms, from the cycles' edge indicator
    rows and the genera of their pairwise unions (`pair_genus`): every pair
    (a, b), a < b, with the flag that its flat holds the two cycles alone,
    and each flat of three cycles once, as a sorted triple.

    Two forms span a third cycle's form only when the union of the two cycles
    is a theta graph: they share an edge and the union has genus 2, and then
    it holds exactly three cycles.  Edge-disjoint cycles, and unions of any
    other genus, span no third one.
    """
    shared, genus_of = (rows @ rows.T).tolist(), genus.tolist()
    pairs = [(a, b, not shared[a][b] or genus_of[a][b] != 2)
             for a in range(len(rows)) for b in range(a + 1, len(rows))]
    a, b = np.nonzero(np.triu(genus == 2, k=1))
    # per genus-2 union, the flags of the cycles with no edge outside it
    inside = (1 - (rows[a] | rows[b])) @ rows.T == 0
    triples = np.nonzero(inside[inside.sum(axis=1) == 3])[1].reshape(-1, 3)
    return pairs, list(dict.fromkeys(map(tuple, triples.tolist())))


def check_commutation(g: DirectedGraph, w) -> dict:
    """Exact check of the five commutation-relation families plus projectors.

    "Disjoint" means edge-disjoint throughout: the operators only see edge
    sets.  Items where no relation is claimed are still reported with their
    observed commutation status.  Shared edges, genera of unions and cycles
    inside unions are products of the terms' edge indicator rows.  Every item
    is one quad X Y - Z W of integer combinations of the terms scaled by L: a
    term, a sum of terms, or cL times the identity, which follows the terms in
    the table; all items are decided at one rate point, in one call of
    `rationals.residue_peaks`.
    """
    alpha = _alpha_map(w)
    conn = build_connection(g, alpha)
    scale, t = conn.scale, conn.table
    terms = conn.path_terms + conn.cycle_terms  # term k is matrix k of the table
    diagonal = np.arange(conn.size)
    table = IntTable(np.append(t.ptr, t.ptr[-1] + conn.size),
                     np.concatenate([t.rows, diagonal]), np.concatenate([t.cols, diagonal]),
                     np.concatenate([t.values, np.ones(conn.size, dtype=t.values.dtype)]))
    combos = [([k], [1]) for k in range(len(terms))]
    identities: dict[Fraction, int] = {}

    def add(members, coef) -> int:
        combos.append((members, coef))
        return len(combos) - 1

    paths = range(len(conn.path_terms))
    cycles = range(len(paths), len(terms))
    label = [",".join(sorted(term.edges)) for term in terms]
    rows = edge_indicators(g, [term.edges for term in terms])
    genus = pair_genus(g, rows)
    shared, genus_of = (rows @ rows.T).tolist(), genus.tolist()
    items, quads = [], []

    def record(relation, members, claimed, quad):
        """An item whose relation holds when the quad vanishes; a pair's
        commutator is the quad (X, Y, Y, X)."""
        items.append((relation, [label[k] for k in members], claimed))
        quads.append(quad)

    def projector(x, c):
        """X^2 - c X, as X X - (cL I) X on the operators scaled by L; cL is an
        integer, as c is 1 or a sum of alpha_e whose denominators divide L."""
        if c not in identities:
            identities[c] = add([len(terms)], [(c * scale).numerator])
        return (x, x, identities[c], x)

    def cycles_inside(unions: np.ndarray) -> np.ndarray:
        """Per union row, the flags of the cycles with no edge outside it."""
        return (1 - unions) @ rows[cycles.start:].T == 0

    # projector identities
    for k in paths:
        record("projector-path", [k], True, projector(k, 1))
    for k in cycles:
        total = sum((alpha[e] for e in terms[k].edges), Fraction(0))
        record("projector-cycle", [k], True, projector(k, total))

    # (i) cycle pairs, and the flats of three cycles for (iv)
    flat_pairs, triples = _cycle_flats(rows[cycles.start:], genus[cycles.start:, cycles.start:])
    for a, b, alone in flat_pairs:
        a, b = a + cycles.start, b + cycles.start
        record("i", [a, b], alone, (a, b, b, a))

    # (ii) path pairs
    for a in paths:
        for b in range(a + 1, paths.stop):
            record("ii", [a, b], True, (a, b, b, a))

    # (iii) cycle/path pairs
    for a in cycles:
        for b in paths:
            record("iii", [a, b], not shared[a][b] or genus_of[a][b] != 1, (a, b, b, a))

    # (iv) genus-2 unions of cycle pairs made of exactly three cycles, each
    # union once: such a union is the union of its three cycles
    for triple in triples:
        triple = [k + cycles.start for k in triple]
        ssum = add(triple, [1] * 3)
        for k in triple:
            record("iv", [*triple, k], True, (ssum, k, k, ssum))

    # (v) path pairs whose union holds a unique cycle (genus 1: one cycle)
    pa, pb = np.nonzero(np.triu(genus[:paths.stop, :paths.stop] == 1, k=1))
    ks = np.nonzero(cycles_inside(rows[pa] | rows[pb]))[1] + cycles.start
    for a, b, k in zip(pa.tolist(), pb.tolist(), ks.tolist()):
        ssum = add([a, b], [1, 1])
        record("v", [a, b, k], True, (ssum, k, k, ssum))

    nonzero = residue_peaks(table, conn.size, combos, quads, entries=False)
    items = [{"relation": relation, "members": members, "claimed": claimed,
              "commutes": k not in nonzero, "ok": not claimed or k not in nonzero}
             for k, (relation, members, claimed) in enumerate(items)]
    return {"items": items, "pass": all(it["ok"] for it in items)}


def flatness_certificate(conn: ConnectionForm) -> dict:
    """Decide flatness at every rate point off the arrangement of the cycle
    forms by the integer identities of the module docstring, in one call of
    `rationals.residue_peaks`.

    Returns {"identities": {degree: count}, "failed": [identity, ...]}, every
    identity a quad X Y - Y X of the table's terms, scaled by L:
      - degree 0, {"degree": 0, "edges": [a, b]}: [A_a, A_b];
      - degree -1, {"degree": -1, "cycle": c, "edges": [p, a]}: [X, Q_c], X
        the path terms weighed by s_sigma(a) s_c(p) - s_sigma(p) s_c(a), p the
        first edge of c, which is s_c(p) A_a for an edge a off c;
      - degree -2, {"degree": -2, "flat": [c, ...], "cycle": c}: [Q_c, sum of
        Q over the flat], for each cycle of a flat of three and the first of
        a flat of two, where it is [Q_c, Q_c'] (`_cycle_flats`).
    The connection is flat exactly when "failed" is empty.
    """
    terms = conn.path_terms + conn.cycle_terms  # term k is matrix k of the table
    n_paths, edges = len(conn.path_terms), conn.edge_ids
    label = [",".join(sorted(term.edges)) for term in terms]
    signs = np.array([[term.sign(e) for e in edges] for term in terms], dtype=np.int64)
    combos = [([k], [1]) for k in range(len(terms))]
    names, quads = [], []

    def record(name, x, y):
        """The identity [X, Y] = 0, the quad (X, Y, Y, X)."""
        names.append(name)
        quads.append((x, y, y, x))

    def paths_weighed(weights) -> int:
        """The combination of the path terms with these weights, zeros left out."""
        members = np.flatnonzero(weights).tolist()
        combos.append((members, weights[members].tolist()))
        return len(combos) - 1

    # degree 0: [A_a, A_b] for every edge pair
    a_e = [paths_weighed(signs[:n_paths, e]) for e in range(len(edges))]
    for a in range(len(edges)):
        for b in range(a + 1, len(edges)):
            record((0, a, b), a_e[a], a_e[b])
    # degree -1: per cycle, its pivot edge p against every other edge a; off
    # the cycle, s_c(a) = 0 and the weighed sum is s_c(p) A_a
    for k in range(n_paths, len(terms)):
        cycle, p = signs[k], int(np.flatnonzero(signs[k])[0])
        for a in range(len(edges)):
            if a != p:
                x = (paths_weighed(signs[:n_paths, a] * cycle[p] - signs[:n_paths, p] * cycle[a])
                     if cycle[a] else a_e[a])
                record((-1, k, p, a), x, k)
    # degree -2: the Kohno relations of the rank-2 flats
    rows = edge_indicators(conn.graph, [term.edges for term in conn.cycle_terms])
    pairs, triples = _cycle_flats(rows, pair_genus(conn.graph, rows))
    for a, b, alone in pairs:
        if alone:
            a, b = a + n_paths, b + n_paths
            record((-2, (a, b), a), a, b)
    for triple in triples:
        triple = tuple(k + n_paths for k in triple)
        combos.append((list(triple), [1] * 3))
        for k in triple:
            record((-2, triple, k), len(combos) - 1, k)

    def describe(name) -> dict:
        if name[0] == 0:
            return {"degree": 0, "edges": [edges[e] for e in name[1:]]}
        if name[0] == -1:
            return {"degree": -1, "cycle": label[name[1]], "edges": [edges[e] for e in name[2:]]}
        return {"degree": -2, "flat": [label[k] for k in name[1]], "cycle": label[name[2]]}

    nonzero = residue_peaks(conn.table, conn.size, combos, quads, entries=False)
    counts = Counter(name[0] for name in names)
    return {"identities": {f"degree {d}": counts[d] for d in (0, -1, -2)},
            "failed": [describe(names[k]) for k in sorted(nonzero)]}


def check_flatness(conn: ConnectionForm, lambda_samples) -> Fraction:
    """Max commutator residual of the coefficient matrices over the samples,
    exactly: a Fraction, zero when the connection is flat at every sample.

    At each sample the rates are put over their common denominator q, and the
    cycle forms q L_c are computed once, as integers, which also runs the
    exclusion test.  The coefficient M_e is scaled to the integer matrix N_e =
    D_e L M_e, with D_e the lcm of the denominators of its weights in
    `ConnectionForm.terms`, so that N_e is an integer combination of the term
    matrices scaled by L; every [N_a, N_b] of a sample is the quad (a, b, b,
    a) of `rationals.residue_peaks`, which decides each sample in a call of
    its own and keeps nothing between calls.
    """
    terms = conn.path_terms + conn.cycle_terms
    # per edge, the (index, sign) of each term with the edge
    members = [[(k, term.sign(eid)) for k, term in enumerate(terms) if term.sign(eid)]
               for eid in conn.edge_ids]
    pairs = [(a, b) for a in range(len(members)) for b in range(a + 1, len(members))]
    quads = [(a, b, b, a) for a, b in pairs]
    worst = Fraction(0)
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
        combos, d = [], []
        for ks in members:
            d.append(math.lcm(*(dens[k] for k, _ in ks)))
            combos.append(([k for k, _ in ks],
                           [sign * tops[k] * (d[-1] // dens[k]) for k, sign in ks]))
        for k, peak in residue_peaks(conn.table, conn.size, combos, quads).items():
            a, b = pairs[k]
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
    y: np.ndarray       # the state after the last accepted step
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
                return OdeResult(y, nfev, False,
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
    return OdeResult(y, nfev, True,
                     "The solver successfully reached the end of the integration interval.")


def _segment_guard(a: complex, b: complex) -> float:
    """Min modulus of a + t b over t in [0, 1]."""
    if b == 0:
        return abs(a)
    t = -((a * b.conjugate()).real) / abs(b) ** 2
    candidates = [0.0, 1.0] + ([t] if 0.0 < t < 1.0 else [])
    return min(abs(a + t * b) for t in candidates)


TRANSPORT_TOL = 1e-9


def transport(conn: ConnectionForm, start_vector, waypoints,
              tol: float = TRANSPORT_TOL) -> np.ndarray:
    """Parallel transport of a section along a piecewise-linear rate path.

    The section solves I'(t) = -Omega(lambda(t); lambda'(t))^T I(t); the path
    must keep every cycle form away from zero and every rate's real part
    positive (checked segment by segment before integrating).  The right-hand
    side reads the table's entries, their values over L correctly rounded:
    entry (i, j) of term k adds the term's weight times its value times I_i
    to component j.  On a segment a path term weighs sigma(lambda'), a cycle
    term b / (a + t b), with a + t b its form along the segment.  Each
    segment is integrated to the absolute tolerance tol.
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

    table, n = conn.table, conn.size
    term = np.repeat(np.arange(len(table.ptr) - 1), np.diff(table.ptr))
    value = np.array([v / conn.scale for v in table.values.tolist()])
    # the real and imaginary parts of an entry's product go to bins 2j and 2j + 1
    bins = (2 * table.cols[:, None] + np.arange(2)).ravel()
    y = np.asarray(start_vector, dtype=complex)
    if y.shape != (n,):
        raise ValueError(f"start vector must have length {n}")

    for wa, wb in zip(pts, pts[1:]):
        vel = {eid: wb[eid] - wa[eid] for eid in conn.edge_ids}
        # each cycle weight is b / (a + t b); membership along the whole
        # segment, not just its ends
        forms = []
        for cyc in conn.cycle_terms:
            a, b = cyc.form(wa), cyc.form(vel)
            if _segment_guard(a, b) < 1e-12 * max(1.0, abs(a), abs(b)):
                raise ExcludedLocusError(
                    f"path crosses the form kernel of {cyc!r}")
            forms.append((a, b))
        a, b = np.array(forms, dtype=complex).reshape(-1, 2).T
        paths = np.array([sigma.form(vel) for sigma in conn.path_terms], dtype=complex)

        def rhs(t, y):
            prod = np.concatenate([paths, b / (a + t * b)])[term] * value * y[table.rows]
            return -np.bincount(bins, prod.view(float), 2 * n).view(complex)

        sol = solve_ivp(rhs, (0.0, 1.0), y, rtol=100 * np.finfo(float).eps, atol=tol)
        if not sol.success:
            raise TransportFailure(f"transport integration failed: {sol.message}")
        y = sol.y
    return y
