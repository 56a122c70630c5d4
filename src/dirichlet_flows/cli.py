"""Command-line driver: load a graph, run one verification suite, emit a report.

The table ``_COMMANDS`` is the only place a command is declared: its handler,
the options it reads and its default sample count.  Each subcommand takes
``--graph``, ``--out`` and exactly those options; any other option is a usage
error.

Reports are JSON objects {command, inputs, results, pass}.  ``inputs`` holds
the graph and the value of every option the command takes, defaults filled
in; edge assignments are listed as ``alpha_overrides``, ``lambda_overrides``
and ``prob_overrides``.  Identical inputs produce byte-identical reports.
Every Monte Carlo estimate adds its per-sample terms in a fixed order, with
no BLAS product, whose last bits can depend on how its threads split the
rows, so Monte Carlo estimates are the same at any BLAS thread count.  The
quadrature still forms its flows by one BLAS product of inner dimension at
most 4; its reports were compared on one and two threads only.

Exit status:
  0  every check passed
  1  a check failed; a quadrature that does not converge, or a transport ODE
     that cannot be integrated, is a failed check, with its message under
     ``results``
  2  usage error: a bad option or option value (argparse prints the usage to
     stderr), or an unknown edge, unreadable graph file, rate too large for a
     float or excluded rate point (printed as {command, error, pass: false})
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


def _rates(g: DirectedGraph, args) -> dict:
    """Rate map: overrides on top of the default 1 + 2^-(k+3) on the k-th edge of
    the graph (1-based).  Every cycle form is a signed sum of distinct powers of
    two plus an integer, so no default lies on a cycle-form kernel."""
    _check_edge_refs(g, args.lambda_overrides, "--lambda")
    return {eid: float(args.lambda_overrides.get(eid, 1 + 2.0 ** -(k + 3)))
            for k, eid in enumerate(g.edge_ids, start=1)}


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
    violations = validate(g)
    return {"violations": violations, "ok": not violations}, not violations


def _cmd_enumerate(g, args):
    trees = comb.enumerate_spanning_trees(g)
    directed = [t for t in trees if t.directed]
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
    }
    return results, True


def _cmd_sample_env(g, args):
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
    w = _weights(g, args)
    lam = _rates(g, args)
    trees = [_tree_from_ids(g, args.tree)] if args.tree else env_mod.directed_trees(g)
    # one Dirichlet batch for every tree's right-hand side, and above split
    # dimension 4 one pass over the proposal blocks for every left-hand side
    _, rhs = env_mod.mc_laplace_by_tree(g, w, lam, trees, args.samples, args.seed)
    lhs = int_mod.mc_flow_sides(g, w, lam, trees, args.samples, args.seed) or [None] * len(trees)
    per_tree = []
    for t, left, right in zip(trees, lhs, rhs):
        rep = int_mod.verify_theorem_2_1(g, w, lam, t, n=args.samples, seed=args.seed,
                                         tol=args.tol, quad_tol=args.quad_tol,
                                         rhs=right, lhs=left)
        rep["tree"] = list(t.key)
        per_tree.append(rep)
    ok = all(r["pass"] for r in per_tree)
    return {"trees": per_tree}, ok


def _cmd_verify_identities(g, args):
    w = _weights(g, args)
    lam = _rates(g, args)
    rng = env_mod.philox_stream(args.seed, 7)
    trees = comb.enumerate_spanning_trees(g)

    worst = Fraction(0)
    chart = trees[0]
    free = comb.cotree(g, chart)
    for _ in range(args.samples):
        u = {eid: Fraction(int(rng.integers(-32, 33)), 16) for eid in free}
        z = comb.solve_tree_coordinates(g, chart, u)
        rates = {eid: Fraction(int(rng.integers(-64, 65)), 8) for eid in g.edge_ids}
        t = trees[int(rng.integers(0, len(trees)))]
        worst = max(worst, int_mod.pairing_identity_check(g, t, z, rates))
    pairing_ok = worst == 0

    exchange = []
    base_tree = trees[0]
    spec = int_mod.IntegrandSpec(g, w.alpha, lam, base_tree)
    for e0 in comb.cotree(g, base_tree):
        rep = int_mod.cohomology_identity_check(spec, e0, tol=args.tol,
                                                quad_tol=args.quad_tol)
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
    """Check that the connection is flat: every commutator of its coefficient
    matrices vanishes at random rational rates.  The check is exact over Q:
    the coefficients are scaled to integer matrices and each commutator is
    computed modulo primes below 2^26, as many as an integer bound on its
    entries asks for; a nonzero entry is recovered exactly as max_residual.
    With --float it runs in floating point to 1e-12 instead."""
    w = _weights(g, args)
    conn = conn_mod.build_connection(g, w)
    rng = env_mod.philox_stream(args.seed, 8)
    samples = [conn_mod.sample_rates_off_kernels(conn, rng) for _ in range(args.samples)]
    exact = not args.float
    residual = conn_mod.check_flatness(conn, samples, exact=exact)
    ok = residual == 0 if exact else residual <= 1e-12
    return {"samples": args.samples, "exact": exact, "max_residual": residual, "pass": ok}, ok


def _worst_error(errs) -> float:
    return float(np.nan_to_num(errs, nan=0.0).max())


def _cmd_transport(g, args):
    w = _weights(g, args)
    if args.split:
        split = split_graph(g)
        sys_graph = split.graph
        alpha = int_mod.split_exponents(split, w)
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
        # default: a small contractible rectangle in the first two coordinates,
        # with a step that moves each cycle form by at most half its value
        e_ids = sorted(g.edge_ids)[:2]
        step = min([0.25] + [abs(cyc.form(lam0)) / 4 for cyc in conn.cycle_terms])

        def moved(*eids):
            return {**lam0, **{eid: lam0[eid] + step for eid in eids}}
        pts = [dict(lam0), moved(e_ids[0]), moved(*e_ids), moved(e_ids[-1]), dict(lam0)]
        loop = True

    def realize(pt):
        """The point as real rates, or None if a rate is complex."""
        pt = {k: complex(v) for k, v in pt.items()}
        return None if any(v.imag for v in pt.values()) else {k: v.real for k, v in pt.items()}

    start_pt = realize(pts[0])
    if start_pt is None:
        raise ValueError("the first waypoint must be real to integrate the start vector")
    start, errs, ok = int_mod.integral_vector(sys_graph, alpha, start_pt, conn.basis,
                                              quad_tol=args.quad_tol)
    usable = np.array(ok)
    start_filled = np.where(usable, np.nan_to_num(start), 0.0)
    tol = min(args.tol, 1e-9)
    end = conn_mod.transport(conn, start_filled, pts, tol=tol)

    results = {
        "basis": [list(t.key) for t in conn.basis],
        "converged": list(map(bool, ok)),
        "start": [{"re": v.real if np.isfinite(v) else None} for v in start],
        "end": [{"re": v.real, "im": v.imag} for v in end],
        "loop": loop,
    }
    if loop:
        diff = np.abs(end - start_filled)[usable].max() if usable.any() else 0.0
        gate = int_mod.agreement(float(diff), _worst_error(errs), 0.0, 10 * tol)
        results.update(return_difference=gate["diff"], bound=gate["bound"])
        return results, gate["pass"]
    final = realize(pts[-1])
    if final is None:
        return results, True  # complex endpoint: nothing to compare against
    direct, derrs, dok = int_mod.integral_vector(sys_graph, alpha, final,
                                                 conn.basis, quad_tol=args.quad_tol)
    both = usable & np.array(dok)
    diff = np.abs(end - direct)[both].max() if both.any() else 0.0
    gate = int_mod.agreement(float(diff), _worst_error(derrs), _worst_error(errs), 10 * tol)
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

    counts = Counter(t.edges for t in env_mod.wilson_sample_trees(g, env, n, args.seed))
    observed = [counts[t.edges] for t in trees]
    # a tree of probability 0 is no cell: a sample on one took an impossible edge
    cells = [(o, p * n) for o, p in zip(observed, probs) if p > 0]
    stat = sum((o - e) ** 2 / e for o, e in cells)
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
    tv = 0.5 * sum(abs(a - b) for a, b in pairs) / n
    path_stat = sum((a - b) ** 2 / (a + b) for a, b in pairs)
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
    "verify-thm21": _Command(_cmd_verify_thm21, ("alpha", "lambda", "tree", "seed", "samples",
                                                "tol", "quad-tol"), 100_000),
    "verify-identities": _Command(_cmd_verify_identities, ("alpha", "lambda", "seed", "samples",
                                                          "tol", "quad-tol"), 100),
    "check-commutation": _Command(_cmd_check_commutation, ("alpha",)),
    "check-flatness": _Command(_cmd_check_flatness, ("alpha", "seed", "samples", "float"), 100),
    "transport": _Command(_cmd_transport, ("alpha", "lambda", "tol", "quad-tol", "waypoint",
                                          "split")),
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
    "seed": dict(type=int, default=0, help="seed of the random streams (default: %(default)s)"),
    "samples": dict(type=_positive(int),
                    help="number of random draws (default: %(default)s)"),
    "tol": dict(type=_positive(float), default=1e-6,
                help="absolute slack of the agreement gate; transport also integrates its "
                     "ODE to min(tol, 1e-9) (default: %(default)s)"),
    "quad-tol": dict(type=_positive(float), default=1e-8,
                     help="error target of the nested quadrature (default: %(default)s)"),
    "waypoint": dict(dest="waypoints", type=_assignments(_rate), action="append",
                     metavar="EDGE=VAL[,...]",
                     help="rates of one transport waypoint on top of the --lambda rates, "
                          "repeatable; the first is the start and must be real, values may "
                          "be like 2/3 or complex like 1.5+0.5j (default: a closed loop in "
                          "the first two edge ids, of step 0.25 or a quarter of the smallest "
                          "cycle form at the start if that is less)"),
    "split": dict(action="store_true",
                  help="transport on the vertex-split companion graph"),
    "float": dict(action="store_true",
                  help="check in floating point to 1e-12 instead of in exact rationals"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: parsing leaves it
    unchanged, and no handler mutates a default it hands out."""
    parser = argparse.ArgumentParser(
        prog="dirichlet-flows",
        description="Verification suites for walks in random Dirichlet environments "
                    "and their flow-space integrals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, description=command.run.__doc__)
        p.add_argument("--graph", required=True,
                       help=f"graph file path or builtin name ({', '.join(sorted(BUILTIN))})")
        p.add_argument("--out", help="also write the JSON report to this file")
        for option in command.options:
            p.add_argument(f"--{option}", **_OPTIONS[option])
        if command.samples:
            p.set_defaults(samples=command.samples)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
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
        print(json.dumps({"command": args.command, "error": str(exc), "pass": False},
                         sort_keys=True))
        return PARSE_ERROR
    report = {"command": args.command, "inputs": inputs, "results": results, "pass": bool(ok)}
    text = json.dumps(report, sort_keys=True, indent=2, default=_encode)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return PASS_OK if ok else VALIDATION_ERROR if violations else PASS_FAIL


if __name__ == "__main__":
    sys.exit(main())
