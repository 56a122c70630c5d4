"""Random environments, the absorbed chain, and Monte Carlo estimators.

An environment assigns exit probabilities to the out-edges of every interior
vertex; drawing them from independent per-vertex Dirichlet laws with the edge
weights as parameters gives the random-environment model.  The Green function
of the chain killed at the cemetery turns an environment into an edge-
occupation flow, and the weighted-tree functionals estimated here are the
probabilistic side of the integral identities checked in `integrals`.

Randomness contract: all draws come from counter-based Philox streams keyed
(seed, substream), so results are bit-identical per seed.  Vectorized
estimators use substream 0 with a fixed draw order (one gamma vector per edge,
in graph edge order); per-trajectory samplers use substream = sample index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .combinatorics import SpanningTree, FlowPoint, enumerate_spanning_trees
from .graphs import DirectedGraph
from .rationals import mat_det, mat_solve

STEP_CAP = 10_000_000


class IterationCapExceeded(RuntimeError):
    """A random walk exceeded the step cap; the environment is suspect."""


@dataclass(frozen=True)
class DirichletWeights:
    """Positive edge weights; the per-vertex totals are the Dirichlet scales."""
    alpha: dict[str, Fraction]

    def __post_init__(self):
        for eid, a in self.alpha.items():
            if a <= 0:
                raise ValueError(f"weight of edge {eid!r} must be positive, got {a}")

    def beta(self, g: DirectedGraph) -> dict[str, Fraction]:
        return {
            x: sum((self.alpha[e.id] for e in g.out_edges[x]), Fraction(0))
            for x in g.interior
        }

    @classmethod
    def from_graph(cls, g: DirectedGraph, overrides=None) -> "DirichletWeights":
        alpha = g.alpha_map()
        if overrides:
            alpha.update({k: Fraction(v) for k, v in overrides.items()})
        unknown = set(alpha) - set(g.edge_ids)
        if unknown:
            raise ValueError(f"weights for unknown edges: {sorted(unknown)}")
        return cls(alpha)


@dataclass(frozen=True, eq=False)
class Environment:
    """Exit probabilities per edge; at every interior vertex they sum to one."""
    p: dict[str, object]  # Fraction for exact work, float for sampled

    def __getitem__(self, edge_id):
        return self.p[edge_id]

    def is_exact(self) -> bool:
        return all(isinstance(v, Fraction) for v in self.p.values())


def check_environment(g: DirectedGraph, env: Environment, tol: float = 1e-14) -> None:
    for x in g.interior:
        total = sum(env.p[e.id] for e in g.out_edges[x])
        if isinstance(total, Fraction):
            if total != 1:
                raise ValueError(f"exit probabilities at {x!r} sum to {total}, not 1")
        elif abs(total - 1.0) > tol:
            raise ValueError(f"exit probabilities at {x!r} sum to {total!r}, not 1")


@dataclass(frozen=True)
class McEstimate:
    value: float
    std_error: float
    n_samples: int
    seed: int

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "std_error": self.std_error,
            "n_samples": self.n_samples,
            "seed": self.seed,
        }


# substream namespaces; the second Philox key word is (kind << 48) + index
_ENV, _CHAIN, _WILSON = 0, 1, 2


def philox_stream(seed: int, kind: int, index: int = 0) -> np.random.Generator:
    """Counter-based generator for substream (seed, kind, index); bit-stable."""
    return np.random.Generator(np.random.Philox(key=[seed % 2**64, (kind << 48) + index]))


def sample_environment_batch(g: DirectedGraph, w: DirichletWeights, n: int, seed: int) -> np.ndarray:
    """(n, |E|) matrix of exit probabilities, rows independent environments."""
    rng = philox_stream(seed, _ENV)
    gams = np.empty((n, len(g.edge_ids)))
    for j, eid in enumerate(g.edge_ids):
        gams[:, j] = rng.standard_gamma(float(w.alpha[eid]), size=n)
    p = np.empty_like(gams)
    index = {eid: j for j, eid in enumerate(g.edge_ids)}
    for x in g.interior:
        cols = [index[e.id] for e in g.out_edges[x]]
        block = gams[:, cols]
        p[:, cols] = block / block.sum(axis=1, keepdims=True)
    return p


def sample_environment(g: DirectedGraph, w: DirichletWeights, seed: int) -> Environment:
    """One environment drawn from the product-Dirichlet law, deterministic per seed."""
    row = sample_environment_batch(g, w, 1, seed)[0]
    return Environment({eid: float(row[j]) for j, eid in enumerate(g.edge_ids)})


# ---------------------------------------------------------------------------
# killed chain linear algebra
# ---------------------------------------------------------------------------

def transition_matrix(g: DirectedGraph, env: Environment):
    """Interior-to-interior transition matrix as a list of rows (env's scalar type)."""
    idx = {x: i for i, x in enumerate(g.interior)}
    k = len(idx)
    zero = Fraction(0) if env.is_exact() else 0.0
    rows = [[zero] * k for _ in range(k)]
    for e in g.edges:
        if e.head != g.cemetery:
            rows[idx[e.tail]][idx[e.head]] += env.p[e.id]
    return rows


def green_function(g: DirectedGraph, env: Environment) -> np.ndarray:
    """Expected visit counts before absorption, as a dense interior matrix."""
    p = np.array([[float(v) for v in row] for row in transition_matrix(g, env)])
    a = np.eye(len(g.interior)) - p
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise ValueError("survival system is singular; environment does not reach the cemetery") from exc


def edge_occupation(g: DirectedGraph, env: Environment) -> FlowPoint:
    """Expected crossing counts per edge; exact when the environment is exact."""
    interior = list(g.interior)
    if env.is_exact():
        rows = transition_matrix(g, env)
        k = len(interior)
        # row of the Green function at the base: solve (I - P)^T w = e_base
        at = [[ (1 if i == j else 0) - rows[j][i] for j in range(k)] for i in range(k)]
        rhs = [Fraction(1) if x == g.base else Fraction(0) for x in interior]
        walks = mat_solve(at, rhs)
        visits = dict(zip(interior, walks))
        return FlowPoint({e.id: visits[e.tail] * env.p[e.id] for e in g.edges})
    green = green_function(g, env)
    visits = dict(zip(interior, green[interior.index(g.base)]))
    return FlowPoint({e.id: visits[e.tail] * env.p[e.id] for e in g.edges})


def survival_determinant(g: DirectedGraph, env: Environment):
    """det(I - P) for the killed chain; exact Fraction for exact environments."""
    rows = transition_matrix(g, env)
    k = len(rows)
    if env.is_exact():
        return mat_det([[(1 if i == j else 0) - rows[i][j] for j in range(k)] for i in range(k)])
    return float(np.linalg.det(np.eye(k) - np.array(rows, dtype=float)))


def tree_probability(g: DirectedGraph, env: Environment, tree: SpanningTree):
    """Probability of a directed spanning tree under the walk's tree measure."""
    if not tree.directed:
        raise ValueError("tree probability is defined for directed spanning trees only")
    num = 1
    for eid in tree.edges:
        num = num * env.p[eid]
    return num / survival_determinant(g, env)


# ---------------------------------------------------------------------------
# trajectory samplers
# ---------------------------------------------------------------------------

class _WalkTables:
    """Per-vertex out-edge lists with cumulative probabilities, for fast stepping."""

    def __init__(self, g: DirectedGraph, env: Environment):
        check_environment(g, env)
        self.g = g
        self.edges = {}
        self.cum = {}
        for x in g.interior:
            out = g.out_edges[x]
            probs = np.array([float(env.p[e.id]) for e in out])
            self.edges[x] = out
            self.cum[x] = np.cumsum(probs)

    def step(self, x: str, rng) -> tuple[str, str]:
        j = int(np.searchsorted(self.cum[x], rng.random(), side="right"))
        j = min(j, len(self.edges[x]) - 1)
        e = self.edges[x][j]
        return e.id, e.head


def simulate_chain(g: DirectedGraph, env: Environment, seed: int, _tables=None,
                   _index: int = 0) -> list[str]:
    """One trajectory of the chain from the base until absorption, as edge ids."""
    tables = _tables or _WalkTables(g, env)
    rng = philox_stream(seed, _CHAIN, _index)
    x = g.base
    path = []
    for _ in range(STEP_CAP):
        eid, x = tables.step(x, rng)
        path.append(eid)
        if x == g.cemetery:
            return path
    raise IterationCapExceeded(f"no absorption within {STEP_CAP} steps")


def simulate_chains(g: DirectedGraph, env: Environment, n: int, seed: int) -> list[list[str]]:
    tables = _WalkTables(g, env)
    return [simulate_chain(g, env, seed, _tables=tables, _index=i) for i in range(n)]


def loop_erase(g: DirectedGraph, trajectory: list[str]) -> list[str]:
    """Chronological loop erasure of an absorbed trajectory, as edge ids."""
    verts = [g.base]
    edges: list[str] = []
    pos = {g.base: 0}
    for eid in trajectory:
        nxt = g.edge_by_id[eid].head
        if nxt in pos:
            j = pos[nxt]
            for v in verts[j + 1:]:
                del pos[v]
            verts = verts[:j + 1]
            edges = edges[:j]
        else:
            verts.append(nxt)
            edges.append(eid)
            pos[nxt] = len(verts) - 1
    return edges


def wilson_sample_tree(g: DirectedGraph, env: Environment, seed: int, _tables=None,
                       _index: int = 0) -> SpanningTree:
    """One directed spanning tree via loop-erased walks rooted at the cemetery."""
    tables = _tables or _WalkTables(g, env)
    rng = philox_stream(seed, _WILSON, _index)
    in_tree = {g.cemetery}
    nxt_edge: dict[str, str] = {}
    budget = STEP_CAP
    for start in g.interior:
        if start in in_tree:
            continue
        x = start
        while x not in in_tree:  # cycle-popping walk
            eid, y = tables.step(x, rng)
            nxt_edge[x] = eid
            x = y
            budget -= 1
            if budget <= 0:
                raise IterationCapExceeded(f"Wilson sampling exceeded {STEP_CAP} steps")
        x = start
        while x not in in_tree:
            in_tree.add(x)
            x = g.edge_by_id[nxt_edge[x]].head
    return SpanningTree(frozenset(nxt_edge[x] for x in g.interior), directed=True)


def wilson_sample_trees(g: DirectedGraph, env: Environment, n: int, seed: int) -> list[SpanningTree]:
    tables = _WalkTables(g, env)
    return [wilson_sample_tree(g, env, seed, _tables=tables, _index=i) for i in range(n)]


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------

def _lambda_vector(g: DirectedGraph, lam) -> np.ndarray:
    vec = np.empty(len(g.edge_ids))
    for j, eid in enumerate(g.edge_ids):
        v = lam[eid]
        if isinstance(v, complex):
            if v.imag != 0:
                raise ValueError("complex rates are accepted only with zero imaginary part")
            v = v.real
        v = float(v)
        if v < 0:
            raise ValueError(f"rate for edge {eid!r} has negative real part: {v}")
        vec[j] = v
    return vec


def _occupation_batch(g: DirectedGraph, p: np.ndarray):
    """Vectorized det(I-P) and edge-occupation flows for a batch of environments."""
    interior = list(g.interior)
    vidx = {x: i for i, x in enumerate(interior)}
    n, k = p.shape[0], len(interior)
    pu = np.zeros((n, k, k))
    for j, e in enumerate(g.edges):
        if e.head != g.cemetery:
            pu[:, vidx[e.tail], vidx[e.head]] += p[:, j]
    a = np.broadcast_to(np.eye(k), (n, k, k)) - pu
    det = np.linalg.det(a)
    rhs = np.zeros((n, k, 1))
    rhs[:, vidx[g.base], 0] = 1.0
    # Green-function row at the base, via the transposed survival system
    visits = np.linalg.solve(np.transpose(a, (0, 2, 1)), rhs)[:, :, 0]
    tails = np.array([vidx[e.tail] for e in g.edges])
    z = visits[:, tails] * p
    return det, z


def mc_estimate_rhs(g: DirectedGraph, w: DirichletWeights, lam, tree: SpanningTree,
                    n: int, seed: int) -> McEstimate:
    """Average of exp(-<rates, occupation>) times the directed tree's probability weight."""
    if not tree.directed:
        raise ValueError("the tree-weighted estimator needs a directed spanning tree")
    if n <= 0:
        raise ValueError("no samples")
    lvec = _lambda_vector(g, lam)
    p = sample_environment_batch(g, w, n, seed)
    det, z = _occupation_batch(g, p)
    tree_cols = [j for j, eid in enumerate(g.edge_ids) if eid in tree.edges]
    vals = np.exp(-(z @ lvec)) * p[:, tree_cols].prod(axis=1) / det
    err = float(vals.std(ddof=1) / np.sqrt(n)) if n > 1 else float("inf")
    return McEstimate(float(vals.mean()), err, n, seed)


def mc_laplace(g: DirectedGraph, w: DirichletWeights, lam, n: int, seed: int) -> McEstimate:
    """Average of exp(-<rates, occupation>) over sampled environments.

    Uses the same environment batch as mc_estimate_rhs at the same (n, seed),
    so the per-directed-tree estimates sum to this one up to float roundoff.
    """
    if n <= 0:
        raise ValueError("no samples")
    lvec = _lambda_vector(g, lam)
    p = sample_environment_batch(g, w, n, seed)
    _, z = _occupation_batch(g, p)
    vals = np.exp(-(z @ lvec))
    err = float(vals.std(ddof=1) / np.sqrt(n)) if n > 1 else float("inf")
    return McEstimate(float(vals.mean()), err, n, seed)


def directed_trees(g: DirectedGraph) -> list[SpanningTree]:
    return enumerate_spanning_trees(g, directed_only=True)
