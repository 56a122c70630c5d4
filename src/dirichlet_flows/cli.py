"""Command-line driver: load a graph, run one verification suite, emit a report.

The table ``_COMMANDS`` is the only place a command is declared: its handler,
the options it reads and its default sample count.  Each subcommand takes
``--graph``, ``--out`` and exactly those options; any other option is a usage
error.

Reports are JSON objects {command, inputs, results, pass}, each printed as
one line with sorted keys (``python -m json.tool`` indents one).  ``inputs``
holds the graph and the value of every option the command takes, defaults
filled in; edge assignments are listed as ``alpha_overrides``,
``lambda_overrides`` and ``prob_overrides``.  Identical inputs produce
byte-identical reports.
Every Monte Carlo estimate and every quadrature node adds its terms in a
fixed order, with no BLAS product, whose last bits can depend on how its
threads split the rows, so neither depends on the BLAS thread count; the
reports of laplace, verify-thm21 and verify-identities were compared on one
and two threads.

Exit status:
  0  every check passed
  1  a check failed.  A chart whose quadrature does not converge FAILs the
     result that needed it, and nothing else, with the quadrature's message:
     a tree of verify-thm21, an exchange identity of verify-identities, or a
     transport run (under ``results``, like an ODE that cannot be integrated)
  2  usage error: a bad option or option value (argparse prints the usage to
     stderr), or an unknown edge, unreadable graph file, --out file that
     cannot be opened or written (then no report is printed), rate too large
     for a float, excluded rate point or complex first or last transport
     waypoint (printed as {command, error, pass: false})
  3  the graph violates the standing assumptions
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections import Counter
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from . import combinatorics as comb
from . import connection as conn_mod
from . import environment as env_mod
from . import integrals as int_mod
from .builtin_graphs import BUILTIN, builtin_graph
from .graphs import DirectedGraph, divergence, load_graph, split_graph, validate
from .rationals import format_scalar, parse_scalar

PASS_OK, PASS_FAIL, PARSE_ERROR, VALIDATION_ERROR = 0, 1, 2, 3


def _check_edge_refs(g: DirectedGraph, mapping, what: str) -> None:
    unknown = set(mapping) - set(g.edge_ids)
    if unknown:
        raise ValueError(f"{what} references unknown edges: {sorted(unknown)}")


def _weights(g: DirectedGraph, args) -> env_mod.DirichletWeights:
    _check_edge_refs(g, args.alpha_overrides, "--alpha")
    return env_mod.DirichletWeights.from_graph(g, args.alpha_overrides)


def default_rates(g: DirectedGraph) -> dict:
    """The CLI's default rate map: 1 + 2^-(k+3) on the k-th edge of the graph
    (1-based).  Every cycle form is a signed sum of distinct powers of two plus
    an integer, so no default lies on a cycle-form kernel."""
    return {eid: 1 + 2.0 ** -(k + 3) for k, eid in enumerate(g.edge_ids, start=1)}


def _rates(g: DirectedGraph, args) -> dict:
    """Rate map: the --lambda overrides on top of `default_rates`."""
    _check_edge_refs(g, args.lambda_overrides, "--lambda")
    return {eid: float(args.lambda_overrides.get(eid, rate))
            for eid, rate in default_rates(g).items()}


def _tree_from_ids(g: DirectedGraph, ids) -> comb.SpanningTree:
    edges = frozenset(ids)
    _check_edge_refs(g, edges, "--tree")
    if not comb.is_spanning_tree(g, edges):
        raise ValueError(f"--tree {sorted(edges)} is not a spanning tree")
    return comb.spanning_tree(g, edges)


def _environment(g: DirectedGraph, args) -> env_mod.Environment:
    """Environment from --prob overrides, uniform over out-edges by default."""
    prob = args.prob_overrides
    _check_edge_refs(g, prob, "--prob")
    p = {}
    for x in g.interior:
        out = g.out_edges[x]
        given = [e.id in prob for e in out]
        if any(given) and not all(given):
            raise ValueError(f"--prob must cover all out-edges of {x!r}")
        for e in out:
            p[e.id] = prob[e.id] if e.id in prob else Fraction(1, len(out))
    env = env_mod.Environment(p)
    env_mod.check_environment(g, env)
    return env


_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)


def _stirling_error(k: float) -> float:
    """log Gamma(k + 1) - log(sqrt(2 pi k) (k/e)^k), for k > 0."""
    if k <= 15:
        return math.lgamma(k + 1) - (k + 0.5) * math.log(k) + k - _HALF_LOG_2PI
    kk = k * k
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * kk)) / kk) / kk) / kk) / k


def _deviance(k: float, y: float) -> float:
    """k log(k/y) + y - k, by its series in v = (k - y)/(k + y) near k = y."""
    if abs(k - y) < 0.1 * (k + y):
        v = (k - y) / (k + y)
        s, term = (k - y) * v, 2 * k * v
        for j in range(3, 1000, 2):
            term *= v * v
            s_next = s + term / j
            if s_next == s:
                break
            s = s_next
        return s
    return k * math.log(k / y) + y - k


def _log_poisson(k: float, y: float) -> float:
    """log(e^-y y^k / Gamma(k + 1)) for k >= 0 and y > 0, in the saddle-point
    form of C. Loader, "Fast and accurate computation of binomial
    probabilities" (2000), which keeps full relative accuracy for large k."""
    if k == 0:
        return -y
    return -_stirling_error(k) - _deviance(k, y) - _HALF_LOG_2PI - 0.5 * math.log(k)


def chi2_sf(stat: float, df: int) -> float:
    """Upper tail P(X > stat) of a chi-square law with integer df >= 1.

    With y = stat/2 and k running over k0, k0 + 1, ..., df/2 - 1 (k0 = 0 for
    even df, 1/2 for odd), the tail is sum_k e^-y y^k / Gamma(k + 1), plus
    erfc(sqrt y) for odd df.  The largest term is taken in log form and the
    others as ratios to it, so no term under- or overflows before it is scaled.
    """
    y = stat / 2
    if y <= 0:
        return 1.0
    k0 = 0.5 * (df % 2)
    tail = math.erfc(math.sqrt(y)) if df % 2 else 0.0
    n = df // 2
    if n == 0:
        return tail
    # the terms grow while k < y - 1 and shrink after: walk both ways from the peak
    peak = min(n - 1, max(0, math.floor(y - k0)))
    total = term = 1.0
    for j in range(peak, 0, -1):
        term *= (k0 + j) / y
        total += term
        if term < 1e-17 * total:
            break
    term = 1.0
    for j in range(peak + 1, n):
        term *= y / (k0 + j)
        total += term
        if term < 1e-17 * total:
            break
    return tail + math.exp(_log_poisson(k0 + peak, y) + math.log(total))


def _chi2_gate(stat: float, cells: int) -> tuple[float, bool]:
    """p-value of a chi-square statistic over `cells` cells (df = cells - 1) and
    its verdict at level 1e-3; a single cell always passes."""
    pvalue = chi2_sf(stat, max(cells - 1, 1))
    return pvalue, pvalue >= 1e-3 or cells <= 1


def _encode(x):
    """JSON form of the scalars json does not know: rationals as "p/q", complex as {re, im}."""
    if isinstance(x, Fraction):
        return format_scalar(x)
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, (np.integer, np.bool_)):
        return x.item()
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_validate(g, args):
    """Check the standing assumptions: unique edge ids, no loop, no edge out of
    the cemetery, every vertex reached from the base and every interior one
    reaching the cemetery.  It PASSes when the list of violations is empty."""
    violations = validate(g)
    return {"violations": violations, "ok": not violations}, not violations


def _cmd_enumerate(g, args):
    """List the spanning trees, directed spanning trees, cycles and
    base-to-cemetery paths of the graph, its genus and its vertex-split
    graph.  The verdict checks the tree counts in exact integers against the
    matrix-tree theorems: the spanning trees against the determinant of the
    Laplacian without the cemetery's row and column (Kirchhoff), the directed
    ones against that of the out-degree Laplacian (Tutte)."""
    trees = comb.enumerate_spanning_trees(g)
    directed = [t for t in trees if t.directed]
    kirchhoff, tutte = comb.matrix_tree_counts(g)
    counts_ok = kirchhoff == len(trees) and tutte == len(directed)
    cycles = comb.enumerate_cycles(g)
    paths = comb.enumerate_paths(g)
    split = split_graph(g)
    results = {
        "spanning_trees": {"count": len(trees), "members": [list(t.key) for t in trees]},
        "directed_trees": {"count": len(directed), "members": [list(t.key) for t in directed]},
        "cycles": {
            "count": len(cycles),
            "members": [{eid: c.signs[eid] for eid in sorted(c.edges)} for c in cycles],
            "directed": [bool(c.directed) for c in cycles],
        },
        "paths": {
            "count": len(paths),
            "members": [{eid: p.signs[eid] for eid in sorted(p.edges)} for p in paths],
        },
        "genus": comb.genus(g, g.edge_ids),
        "split_graph": {
            "vertices": len(split.graph.vertices),
            "edges": len(split.graph.edges),
            "bridge_weights": {bid: split.graph.edge_by_id[bid].alpha
                               for bid in split.bridge_ids},
        },
        "matrix_tree": {"spanning_trees": kirchhoff, "directed_trees": tutte, "pass": counts_ok},
    }
    return results, counts_ok


def _cmd_sample_env(g, args):
    """Draw one Dirichlet environment at --alpha from --seed and report its exit
    probabilities, occupation, killed-chain determinant and the occupation's
    divergence.  Its verdict gates nothing yet: the report always PASSes."""
    w = _weights(g, args)
    env = env_mod.sample_environment(g, w, args.seed)
    flow = env_mod.edge_occupation(g, env)
    results = {
        "p": env.p,
        "occupation": flow.z,
        "survival_determinant": env_mod.survival_determinant(g, env),
        "divergence": divergence(g, flow.z),
    }
    return results, True


def _cmd_verify_thm21(g, args):
    """Check Theorem 2.1, the tree-weighted Laplace identity, for every
    directed spanning tree or the one --tree names.  A certificate decides
    it: the change of variables from environments to occupation flows,
    checked modulo a prime of 64 bits at a fixed point per tree (its
    Jacobian identity, the tree chart's coordinates, and the exponents of
    the integrand against the tree's probability), so it takes neither
    --seed nor --samples.  The report also gives the Dirichlet side.  Where
    the tree charts of the vertex-split graph have dimension at most 4, it
    comes from a tensor Gauss-Jacobi rule over the environments, its error
    the gap between two orders of the rule, and the flow side is integrated
    by quadrature to 1e-8; their agreement, within three times their summed
    errors plus 1e-6, decides the verdict with the certificate, and a tree
    whose quadrature does not converge FAILs, with the reason in its
    report.  There --seed and --samples change nothing
    (--samples must still be at least 2).  Above dimension 4 the Dirichlet
    side is a Monte Carlo average over --samples environments drawn from
    --seed, and no flow side is integrated."""
    w = _weights(g, args)
    lam = _rates(g, args)
    trees = [_tree_from_ids(g, args.tree)] if args.tree else env_mod.directed_trees(g)
    per_tree = int_mod.verify_theorem_2_1(g, w, lam, trees, args.samples, args.seed)
    return {"trees": per_tree}, all(r["pass"] for r in per_tree)


def _cmd_verify_identities(g, args):
    """Check the divergence pairing exactly at --samples random triples (a
    flow, rational rates and a spanning tree), drawn and checked in integer
    blocks of 8192 triples, and the exchange identity of every cotree edge of
    the first spanning tree by quadrature to 1e-8: its two sides agree within
    three times their summed quadrature errors plus 1e-6.  An exchange
    identity whose charts do not converge FAILs alone, with the quadrature's
    message."""
    w = _weights(g, args)
    lam = _rates(g, args)
    trees = comb.enumerate_spanning_trees(g)
    worst = int_mod.pairing_residual(g, trees, args.samples, args.seed)
    pairing_ok = worst == 0

    exchange = []
    base_tree = trees[0]
    spec = int_mod.IntegrandSpec(g, w.alpha, lam, base_tree)
    charts = {}  # every swap e = e0 gives back the base tree
    for e0 in comb.cotree(g, base_tree):
        try:
            rep = int_mod.cohomology_identity_check(spec, e0, charts=charts)
        except int_mod.QuadratureNonConvergence as exc:
            rep = {"nonconvergence": str(exc), "pass": False}
        rep["tree"] = list(base_tree.key)
        rep["swap_edge"] = e0
        exchange.append(rep)
    exchange_ok = all(r["pass"] for r in exchange)

    results = {
        "pairing": {"triples": args.samples, "max_residual": worst, "pass": pairing_ok},
        "exchange": exchange,
    }
    return results, pairing_ok and exchange_ok


def _cmd_check_commutation(g, args):
    """Check the commutation relations of the connection's path and cycle
    operators, exactly over Q: each operator is scaled to an integer matrix and
    each commutator is computed modulo primes below 2^26, as many as an integer
    bound on its entries asks for, so a zero residue is an exact zero."""
    w = _weights(g, args)
    report = conn_mod.check_commutation(g, w)
    return report, report["pass"]


def _cmd_check_flatness(g, args):
    """Check that the connection is flat at every rate point off the
    arrangement of the cycle forms, by a certificate: finitely many integer
    identities between the connection's terms, of degree 0, -1 and -2 in the
    rates (one for each edge pair; one for each cycle and each edge but the
    cycle's first; the Kohno relations of each rank-2 flat of the cycle
    forms), each decided exactly by computing it modulo primes below 2^26, as
    many as an integer bound on its entries asks for.  The report counts the
    identities by degree, and lists the failed ones.  --samples and --seed are
    used only when an identity fails: the commutators of the coefficient
    matrices are then evaluated exactly at --samples random rational rate
    points drawn from --seed, and their largest entry is max_residual, a
    witness.  When every identity holds, no rates are drawn and max_residual
    is 0, proved at every rate point."""
    w = _weights(g, args)
    conn = conn_mod.build_connection(g, w)
    certificate = conn_mod.flatness_certificate(conn)
    ok = not certificate["failed"]
    results = {**certificate, "samples": 0, "max_residual": Fraction(0), "pass": ok}
    if not ok:
        rng = env_mod.philox_stream(args.seed, env_mod._FLATNESS)
        samples = [conn_mod.sample_rates_off_kernels(conn, rng) for _ in range(args.samples)]
        results.update(samples=args.samples, max_residual=conn_mod.check_flatness(conn, samples))
    return results, ok


def _default_loop(g, conn, lam0) -> list[dict]:
    """The path of transport without --waypoint: a small contractible
    rectangle from lam0 in the first two edges of g by sorted id, with a step
    that moves each cycle form of conn by at most half its value."""
    e_ids = sorted(g.edge_ids)[:2]
    step = min([0.25] + [abs(cyc.form(lam0)) / 4 for cyc in conn.cycle_terms])

    def moved(*eids):
        return {**lam0, **{eid: lam0[eid] + step for eid in eids}}
    return [dict(lam0), moved(e_ids[0]), moved(*e_ids), moved(e_ids[-1]), dict(lam0)]


def _cmd_transport(g, args):
    """Transport the tree-chart integrals along a path of rates.  The default
    path is a small loop, and the integrals must come back to their start;
    the --waypoint path is open, and its end must match the integrals at its
    last waypoint, which must be real, like the first.  The charts are
    integrated by quadrature to 1e-8 and the ODE to 1e-9; every component
    is compared, within three times the quadrature errors plus 1e-8, and a
    chart whose quadrature does not converge FAILs the run."""
    w = _weights(g, args)
    if args.split:
        split = split_graph(g, w.alpha)
        sys_graph, alpha = split.graph, split.graph.alpha_map()
        bridge_zero = {bid: 0.0 for bid in split.bridge_ids}
    else:
        sys_graph, alpha, bridge_zero = g, w.alpha, {}

    conn = conn_mod.build_connection(sys_graph, alpha)
    lam0 = dict(_rates(g, args), **bridge_zero)

    if args.waypoints:
        pts = []
        for wp in args.waypoints:
            _check_edge_refs(g, wp, "--waypoint")
            pts.append({**lam0, **wp, **bridge_zero})
        loop = False
    else:
        pts, loop = _default_loop(g, conn, lam0), True

    for which, pt in (("first", pts[0]), ("last", pts[-1])):
        if any(complex(v).imag for v in pt.values()):
            raise ValueError(f"the {which} waypoint must be real to integrate the charts at it")
    start, errs = int_mod.integral_vector(sys_graph, alpha, pts[0], conn.basis)
    end = conn_mod.transport(conn, start, pts)
    slack = 10 * conn_mod.TRANSPORT_TOL

    results = {
        "basis": [list(t.key) for t in conn.basis],
        "start": [{"re": v} for v in start],
        "end": [{"re": v.real, "im": v.imag} for v in end],
        "loop": loop,
    }
    if loop:
        gate = int_mod.agreement(float(np.abs(end - start).max()), float(errs.max()), 0.0,
                                 slack)
        results.update(return_difference=gate["diff"], bound=gate["bound"])
        return results, gate["pass"]
    direct, derrs = int_mod.integral_vector(sys_graph, alpha, pts[-1], conn.basis)
    gate = int_mod.agreement(float(np.abs(end - direct).max()), float(derrs.max()),
                             float(errs.max()), slack)
    results.update(direct=[{"re": float(v)} for v in direct],
                   difference=gate["diff"], bound=gate["bound"])
    return results, gate["pass"]


def _cmd_wilson_test(g, args):
    """Sample directed spanning trees with Wilson's algorithm and check them by two
    chi-square gates at level 1e-3: the tree frequencies against the exact tree
    law, and the base-to-cemetery paths of the sampled trees against the
    loop-erased paths of as many chains.  gof_cells and path_cells count the
    cells of each gate; a gate with one cell always passes and checks nothing,
    as on graphs with a single directed tree.  A tree of probability 0 is no
    cell: a sample on one fails the tree gate with p_value 0."""
    env = _environment(g, args)
    n = args.samples
    trees = env_mod.directed_trees(g)
    probs = [float(env_mod.tree_probability(g, env, t)) for t in trees]

    counts = env_mod.wilson_tree_counts(g, env, n, args.seed)
    observed = [counts[t.edges] for t in trees]
    # a tree of probability 0 is no cell: a sample on one took an impossible edge
    cells = [(o, p * n) for o, p in zip(observed, probs) if p > 0]
    stat = int_mod._left_sum((o - e) ** 2 / e for o, e in cells)
    pvalue, gof_ok = _chi2_gate(stat, len(cells))
    if sum(o for o, _ in cells) < n:
        pvalue, gof_ok = 0.0, False

    # tree-path marginal vs loop-erased chains: two-sample chi-square homogeneity
    path_counts = Counter()
    for edges, c in counts.items():
        path_counts[frozenset(comb.tree_path(g, comb.SpanningTree(edges, True)).edges)] += c
    lerw_counts = env_mod.loop_erased_paths(g, env, n, args.seed)
    keys = sorted(path_counts | lerw_counts, key=sorted)
    pairs = [(path_counts[k], lerw_counts[k]) for k in keys]
    tv = 0.5 * int_mod._left_sum(abs(a - b) for a, b in pairs) / n
    path_stat = int_mod._left_sum((a - b) ** 2 / (a + b) for a, b in pairs)
    path_pvalue, path_ok = _chi2_gate(path_stat, len(keys))

    results = {
        "trees": [list(t.key) for t in trees],
        "expected_frequency": probs,
        "observed_counts": observed,
        "chi2": stat,
        "p_value": pvalue,
        "gof_cells": len(cells),
        "gof_pass": gof_ok,
        "path_marginal_tv": tv,
        "path_chi2": path_stat,
        "path_p_value": path_pvalue,
        "path_cells": len(keys),
        "path_pass": path_ok,
    }
    return results, gof_ok and path_ok


def _cmd_laplace(g, args):
    """Estimate the Laplace functional and its parts weighted by each directed
    tree, by Monte Carlo over --samples environments drawn from --seed.  The
    verdict checks only that the parts sum to the total, to 1e-12."""
    w = _weights(g, args)
    lam = _rates(g, args)
    trees = env_mod.directed_trees(g)
    total, estimates = env_mod.mc_laplace_by_tree(g, w, lam, trees, args.samples, args.seed)
    per_tree = {}
    acc = 0.0
    for t, est in zip(trees, estimates):
        per_tree[",".join(t.key)] = est.as_dict()
        acc += est.value
    consistency = abs(acc - total.value)
    ok = consistency <= 1e-12
    results = {
        "laplace": total.as_dict(),
        "per_tree": per_tree,
        "tree_sum": acc,
        "sum_consistency": consistency,
        "pass": ok,
    }
    return results, ok


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Command(NamedTuple):
    run: Callable
    options: tuple[str, ...] = ()
    samples: int | None = None  # default of --samples


_COMMANDS = {
    "validate": _Command(_cmd_validate),
    "enumerate": _Command(_cmd_enumerate),
    "sample-env": _Command(_cmd_sample_env, ("alpha", "seed")),
    "verify-thm21": _Command(_cmd_verify_thm21, ("alpha", "lambda", "tree", "seed", "samples"),
                             100_000),
    "verify-identities": _Command(_cmd_verify_identities, ("alpha", "lambda", "seed", "samples"),
                                  100),
    "check-commutation": _Command(_cmd_check_commutation, ("alpha",)),
    "check-flatness": _Command(_cmd_check_flatness, ("alpha", "seed", "samples"), 100),
    "transport": _Command(_cmd_transport, ("alpha", "lambda", "waypoint", "split")),
    "wilson-test": _Command(_cmd_wilson_test, ("prob", "seed", "samples"), 100_000),
    "laplace": _Command(_cmd_laplace, ("alpha", "lambda", "seed", "samples"), 100_000),
}


def _assignments(parse):
    """Argument type of an edge=value[,edge=value...] list; parse reads each value."""
    def assignments(text: str) -> dict:
        out = {}
        for chunk in filter(str.strip, text.split(",")):
            k, eq, v = chunk.partition("=")
            if not eq:
                raise argparse.ArgumentTypeError(f"expected edge=value, got {chunk!r}")
            try:
                out[k.strip()] = parse(v.strip())
            except (ValueError, ZeroDivisionError) as exc:
                raise argparse.ArgumentTypeError(f"bad value in {chunk!r}: {exc}") from None
        return out
    return assignments


def _rate(text: str):
    """A rate like 2/3 or 0.25, exact, or complex like 1.5+0.5j."""
    try:
        return parse_scalar(text)
    except ValueError:
        return complex(text)


def _positive(cast):
    """Argument type of a number that must be positive."""
    def positive(text: str):
        value = cast(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
        return value
    return positive


class _Merge(argparse.Action):
    """A repeatable assignment option: later assignments add to and override earlier ones."""
    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, {**getattr(namespace, self.dest), **values})


def _overrides(dest: str, what: str) -> dict:
    return dict(dest=dest, type=_assignments(parse_scalar), action=_Merge, default={},
                metavar="EDGE=VAL[,...]", help=f"{what}; repeatable, values may be like 2/3")


# Every option a command may take.  Its dest is the key under which the
# report's inputs record its value.
_OPTIONS = {
    "alpha": _overrides("alpha_overrides", "edge weights"),
    "lambda": _overrides("lambda_overrides",
                         "rates (default: 1 + 2^-(k+3) on the k-th edge of the graph)"),
    "prob": _overrides("prob_overrides", "exit probabilities, all or none of a vertex's "
                                         "out-edges (default: uniform)"),
    "tree": dict(nargs="+", metavar="EDGE",
                 help="edge ids of one spanning tree (default: every directed spanning tree)"),
    "seed": dict(type=int, default=0,
                 help="seed of the random streams, taken modulo 2^64 (default: %(default)s)"),
    "samples": dict(type=_positive(int),
                    help="number of random draws (default: %(default)s)"),
    "waypoint": dict(dest="waypoints", type=_assignments(_rate), action="append",
                     metavar="EDGE=VAL[,...]",
                     help="rates of one transport waypoint on top of the --lambda rates, "
                          "repeatable; the first is the start and must be real, values may "
                          "be like 2/3 or complex like 1.5+0.5j (default: a closed loop in "
                          "the first two edge ids, of step 0.25 or a quarter of the smallest "
                          "cycle form at the start if that is less)"),
    "split": dict(action="store_true",
                  help="transport on the vertex-split companion graph"),
}


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of `command` alone, or of every command when `command`
    names none, built once per process and command: parsing leaves it
    unchanged, and no handler mutates a default it hands out.  Its usage
    line lists every command either way."""
    parser = argparse.ArgumentParser(
        prog="dirichlet-flows",
        description="Verification suites for walks in random Dirichlet environments "
                    "and their flow-space integrals.",
    )
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    # argparse's usage line lists the commands it was given; one command's
    # parser names them all
    every = "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=every if len(names) == 1 else None)
    for name in names:
        declared = _COMMANDS[name]
        p = sub.add_parser(name, description=declared.run.__doc__)
        p.add_argument("--graph", required=True,
                       help=f"graph file path or builtin name ({', '.join(sorted(BUILTIN))})")
        p.add_argument("--out", help="also write the report, one JSON line with sorted keys, "
                                     "to this file")
        for option in declared.options:
            p.add_argument(f"--{option}", **_OPTIONS[option])
        if declared.samples:
            p.set_defaults(samples=declared.samples)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    name = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(name).parse_args(argv)
    try:
        if args.out:  # opened to append, so an unwritable path fails before any work
            open(args.out, "a").close()
        g = builtin_graph(args.graph) if args.graph in BUILTIN else load_graph(args.graph)
        violations = validate(g)
        if violations and args.command != "validate":
            inputs, results, ok = {"graph": args.graph}, {"violations": violations}, False
        else:
            inputs = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
            results, ok = _COMMANDS[args.command].run(g, args)
    except (int_mod.QuadratureNonConvergence, conn_mod.TransportFailure) as exc:
        results, ok = {"nonconvergence": str(exc)}, False
    except (ValueError, OverflowError, OSError) as exc:
        return _usage_error(args.command, exc)
    report = {"command": args.command, "inputs": inputs, "results": results, "pass": bool(ok)}
    text = json.dumps(report, sort_keys=True, default=_encode)
    if args.out:  # written before the report is printed, so a failed write prints nothing else
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            return _usage_error(args.command, exc)
    print(text)
    return PASS_OK if ok else VALIDATION_ERROR if violations else PASS_FAIL


def _usage_error(command: str, exc: Exception) -> int:
    """Print the one-line error report of a usage error and return its status."""
    print(json.dumps({"command": command, "error": str(exc), "pass": False}, sort_keys=True))
    return PARSE_ERROR


if __name__ == "__main__":
    sys.exit(main())
