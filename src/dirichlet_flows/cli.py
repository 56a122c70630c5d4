"""Command-line driver: load a graph, run one verification suite, emit a report.

Reports are JSON objects {command, inputs, results, pass}; identical configs
and seeds produce byte-identical reports.  Exit status: 0 all checks passed,
1 a check failed, 2 parse/usage error, 3 graph validation failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.special import chdtrc

from . import combinatorics as comb
from . import connection as conn_mod
from . import environment as env_mod
from . import integrals as int_mod
from .builtin_graphs import BUILTIN, builtin_graph
from .graphs import DirectedGraph, divergence, load_graph, split_graph, validate
from .rationals import format_scalar, parse_scalar

PASS_OK, PASS_FAIL, PARSE_ERROR, VALIDATION_ERROR = 0, 1, 2, 3


@dataclass
class RunConfig:
    command: str
    graph: str
    alpha: dict = field(default_factory=dict)
    lam: dict = field(default_factory=dict)
    prob: dict = field(default_factory=dict)
    tree: tuple[str, ...] | None = None
    seed: int = 0
    samples: int | None = None
    tol: float = 1e-6
    quad_tol: float = 1e-8
    out: str | None = None
    exact: bool = True
    split: bool = False
    waypoints: list[dict] | None = None


def _load(config: RunConfig) -> DirectedGraph:
    if config.graph in BUILTIN:
        return builtin_graph(config.graph)
    return load_graph(config.graph)


def _check_edge_refs(g: DirectedGraph, mapping, what: str) -> None:
    unknown = set(mapping) - set(g.edge_ids)
    if unknown:
        raise ValueError(f"{what} references unknown edges: {sorted(unknown)}")


def _weights(g: DirectedGraph, config: RunConfig) -> env_mod.DirichletWeights:
    _check_edge_refs(g, config.alpha, "--alpha")
    return env_mod.DirichletWeights.from_graph(g, config.alpha)


def _rates(g: DirectedGraph, config: RunConfig) -> dict:
    """Rate map: overrides on top of the default (1 on the first edge id, else 0)."""
    _check_edge_refs(g, config.lam, "--lambda")
    first = min(g.edge_ids)
    lam = {eid: (1.0 if eid == first else 0.0) for eid in g.edge_ids}
    for k, v in config.lam.items():
        lam[k] = float(v)
    return lam


def _tree_from_ids(g: DirectedGraph, ids) -> comb.SpanningTree:
    edges = frozenset(ids)
    unknown = edges - set(g.edge_ids)
    if unknown:
        raise ValueError(f"--tree references unknown edges: {sorted(unknown)}")
    if not comb.is_spanning_tree(g, edges):
        raise ValueError(f"--tree {sorted(edges)} is not a spanning tree")
    return comb.SpanningTree(edges, comb._is_directed_tree(g, edges))


def _environment(g: DirectedGraph, config: RunConfig) -> env_mod.Environment:
    """Environment from --prob overrides, uniform over out-edges by default."""
    _check_edge_refs(g, config.prob, "--prob")
    p = {}
    for x in g.interior:
        out = g.out_edges[x]
        given = [e for e in out if e.id in config.prob]
        if given:
            for e in out:
                if e.id not in config.prob:
                    raise ValueError(f"--prob must cover all out-edges of {x!r}")
                p[e.id] = parse_scalar(config.prob[e.id])
        else:
            for e in out:
                p[e.id] = Fraction(1, len(out))
    env = env_mod.Environment(p)
    env_mod.check_environment(g, env)
    return env


def _jsonable(x):
    if isinstance(x, Fraction):
        return format_scalar(x)
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.bool_):
        return bool(x)
    return x


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_validate(g, config):
    violations = validate(g)
    return {"violations": violations, "ok": not violations}, not violations


def _cmd_enumerate(g, config):
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


def _cmd_sample_env(g, config):
    w = _weights(g, config)
    env = env_mod.sample_environment(g, w, config.seed)
    flow = env_mod.edge_occupation(g, env)
    results = {
        "p": env.p,
        "occupation": flow.z,
        "survival_determinant": env_mod.survival_determinant(g, env),
        "divergence": divergence(g, flow.z),
    }
    return results, True


def _cmd_verify_thm21(g, config):
    w = _weights(g, config)
    lam = _rates(g, config)
    n = config.samples or 100_000
    if config.tree:
        trees = [_tree_from_ids(g, config.tree)]
    else:
        trees = env_mod.directed_trees(g)
    per_tree = []
    for t in trees:
        rep = int_mod.verify_theorem_2_1(g, w, lam, t, n=n, seed=config.seed,
                                         tol=config.tol, quad_tol=config.quad_tol)
        rep["tree"] = list(t.key)
        per_tree.append(rep)
    ok = all(r["pass"] for r in per_tree)
    return {"trees": per_tree}, ok


def _cmd_verify_identities(g, config):
    w = _weights(g, config)
    lam = _rates(g, config)
    rng = env_mod.philox_stream(config.seed, 7)
    trees = comb.enumerate_spanning_trees(g)
    n_triples = config.samples or 100

    worst = Fraction(0)
    chart = trees[0]
    free = comb.cotree(g, chart)
    for _ in range(n_triples):
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
        rep = int_mod.cohomology_identity_check(spec, e0, tol=config.tol,
                                                quad_tol=config.quad_tol)
        rep["tree"] = list(base_tree.key)
        rep["swap_edge"] = e0
        exchange.append(rep)
    exchange_ok = all(r["pass"] for r in exchange)

    results = {
        "pairing": {"triples": n_triples, "max_residual": worst, "pass": pairing_ok},
        "exchange": exchange,
    }
    return results, pairing_ok and exchange_ok


def _cmd_check_commutation(g, config):
    w = _weights(g, config)
    report = conn_mod.check_commutation(g, w)
    return report, report["pass"]


def _cmd_check_flatness(g, config):
    w = _weights(g, config)
    conn = conn_mod.build_connection(g, w)
    rng = env_mod.philox_stream(config.seed, 8)
    n = config.samples or 100
    samples = [conn_mod.sample_rates_off_kernels(conn, rng) for _ in range(n)]
    residual = conn_mod.check_flatness(conn, samples, exact=config.exact)
    if config.exact:
        ok = residual == 0
    else:
        ok = residual <= 1e-12
    return {"samples": n, "exact": config.exact, "max_residual": residual, "pass": ok}, ok


def _cmd_transport(g, config):
    if config.split:
        split = split_graph(g)
        sys_graph = split.graph
        alpha = sys_graph.alpha_map()
        bridge_zero = {bid: 0.0 for bid in split.bridge_ids}
    else:
        sys_graph = g
        alpha = _weights(g, config).alpha
        bridge_zero = {}

    conn = conn_mod.build_connection(sys_graph, alpha)
    lam0 = dict(_rates(g, config), **bridge_zero)

    if config.waypoints:
        pts = []
        for wp in config.waypoints:
            _check_edge_refs(g, wp, "--waypoint")
            pts.append({**lam0, **{k: complex(v) for k, v in wp.items()}, **bridge_zero})
        loop = False
    else:
        # default: a small contractible rectangle in the first two coordinates
        e_ids = sorted(g.edge_ids)[:2]
        step = 0.25
        pts = [dict(lam0)]
        for bump in ({e_ids[0]: step}, {e_ids[0]: step, e_ids[-1]: step}, {e_ids[-1]: step}, {}):
            p = dict(lam0)
            for k, v in bump.items():
                p[k] = p[k] + v
            pts.append(p)
        loop = True

    def realize(pt):
        out = {}
        for k, v in pt.items():
            v = complex(v)
            if v.imag != 0:
                return None
            out[k] = v.real
        return out

    start_pt = realize(pts[0])
    if start_pt is None:
        raise ValueError("the first waypoint must be real to integrate the start vector")
    start, errs, ok = int_mod.integral_vector(sys_graph, alpha, start_pt, conn.basis,
                                              quad_tol=config.quad_tol)
    usable = np.array(ok)
    start_filled = np.where(usable, np.nan_to_num(start), 0.0)
    tol = min(config.tol, 1e-9)
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
        bound = 10 * tol + float(np.nan_to_num(errs, nan=0.0).max()) * 3
        results["return_difference"] = float(diff)
        results["bound"] = bound
        ok_flag = bool(diff <= bound)
    else:
        final = realize(pts[-1])
        if final is not None:
            direct, derrs, dok = int_mod.integral_vector(sys_graph, alpha, final,
                                                         conn.basis, quad_tol=config.quad_tol)
            both = usable & np.array(dok)
            diff = np.abs(end - direct)[both].max() if both.any() else 0.0
            bound = 3 * float(np.nan_to_num(derrs, nan=0.0).max() +
                              np.nan_to_num(errs, nan=0.0).max()) + 10 * tol
            results["direct"] = [{"re": float(v)} for v in direct]
            results["difference"] = float(diff)
            results["bound"] = bound
            ok_flag = bool(diff <= bound)
        else:
            ok_flag = True  # complex endpoint: nothing to compare against
    return results, ok_flag


def _cmd_wilson_test(g, config):
    env = _environment(g, config)
    n = config.samples or 100_000
    trees = env_mod.directed_trees(g)
    probs = [float(env_mod.tree_probability(g, env, t)) for t in trees]

    sampled = env_mod.wilson_sample_trees(g, env, n, config.seed)
    counts = {t.edges: 0 for t in trees}
    for t in sampled:
        counts[t.edges] += 1
    observed = [counts[t.edges] for t in trees]
    expected = [p * n for p in probs]
    stat = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    pvalue = float(chdtrc(max(len(trees) - 1, 1), stat))
    gof_ok = pvalue >= 1e-3 if len(trees) > 1 else True

    # tree-path marginal vs loop-erased chains
    path_counts: dict[frozenset, int] = {}
    for t in sampled:
        key = frozenset(comb.tree_path(g, t).edges)
        path_counts[key] = path_counts.get(key, 0) + 1
    lerw_counts: dict[frozenset, int] = {}
    for traj in env_mod.simulate_chains(g, env, n, config.seed):
        key = frozenset(env_mod.loop_erase(g, traj))
        lerw_counts[key] = lerw_counts.get(key, 0) + 1
    keys = set(path_counts) | set(lerw_counts)
    tv = 0.5 * sum(abs(path_counts.get(k, 0) - lerw_counts.get(k, 0)) for k in keys) / n
    tv_ok = tv < 0.01

    results = {
        "trees": [list(t.key) for t in trees],
        "expected_frequency": probs,
        "observed_counts": observed,
        "chi2": stat,
        "p_value": pvalue,
        "gof_pass": gof_ok,
        "path_marginal_tv": tv,
        "tv_pass": tv_ok,
    }
    return results, gof_ok and tv_ok


def _cmd_laplace(g, config):
    w = _weights(g, config)
    lam = _rates(g, config)
    n = config.samples or 100_000
    total = env_mod.mc_laplace(g, w, lam, n, config.seed)
    per_tree = {}
    acc = 0.0
    for t in env_mod.directed_trees(g):
        est = env_mod.mc_estimate_rhs(g, w, lam, t, n, config.seed)
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


_COMMANDS = {
    "validate": _cmd_validate,
    "enumerate": _cmd_enumerate,
    "sample-env": _cmd_sample_env,
    "verify-thm21": _cmd_verify_thm21,
    "verify-identities": _cmd_verify_identities,
    "check-commutation": _cmd_check_commutation,
    "check-flatness": _cmd_check_flatness,
    "transport": _cmd_transport,
    "wilson-test": _cmd_wilson_test,
    "laplace": _cmd_laplace,
}


def run(config: RunConfig) -> tuple[dict, int]:
    """Execute one command; returns (report, exit status)."""
    if config.tol <= 0 or config.quad_tol <= 0:
        raise ValueError("tolerances must be positive")
    if config.samples is not None and config.samples <= 0:
        raise ValueError("sample count must be positive")
    try:
        g = _load(config)
    except (ValueError, OSError) as exc:
        report = {"command": config.command, "error": str(exc), "pass": False}
        return report, PARSE_ERROR

    violations = validate(g)
    if violations and config.command != "validate":
        report = {"command": config.command, "inputs": {"graph": config.graph},
                  "results": {"violations": violations}, "pass": False}
        return report, VALIDATION_ERROR

    results, ok = _COMMANDS[config.command](g, config)
    report = {
        "command": config.command,
        "inputs": {
            "graph": config.graph,
            "seed": config.seed,
            "samples": config.samples,
            "tol": config.tol,
            "quad_tol": config.quad_tol,
            "alpha_overrides": config.alpha,
            "lambda_overrides": config.lam,
        },
        "results": results,
        "pass": bool(ok),
    }
    status = PASS_OK if ok else (VALIDATION_ERROR if config.command == "validate" else PASS_FAIL)
    return report, status


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _parse_assignments(pairs) -> dict:
    out = {}
    for item in pairs or []:
        for chunk in item.split(","):
            if not chunk.strip():
                continue
            if "=" not in chunk:
                raise ValueError(f"expected edge=value, got {chunk!r}")
            k, v = chunk.split("=", 1)
            out[k.strip()] = v.strip()
    return out


def _parse_waypoint(text: str) -> dict:
    out = {}
    for k, v in _parse_assignments([text]).items():
        out[k] = complex(v)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirichlet-flows",
        description="Verification suites for walks in random Dirichlet environments "
                    "and their flow-space integrals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--graph", required=True,
                       help=f"graph file path or builtin name ({', '.join(sorted(BUILTIN))})")
        p.add_argument("--alpha", action="append", metavar="edge=val",
                       help="edge weight overrides; value may be rational like 2/3")
        p.add_argument("--lambda", dest="lam", action="append", metavar="edge=val",
                       help="rate overrides (default: 1 on the first edge, 0 elsewhere)")
        p.add_argument("--prob", action="append", metavar="edge=val",
                       help="fixed exit probabilities (wilson-test)")
        p.add_argument("--tree", nargs="+", metavar="edge",
                       help="edge ids of a spanning tree")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--tol", type=float, default=1e-6)
        p.add_argument("--quad-tol", type=float, default=1e-8)
        p.add_argument("--out", default=None, help="write the JSON report here")
        p.add_argument("--waypoint", action="append", metavar="edge=val,...",
                       help="transport waypoints; values may be complex like 1.5+0.5j")
        p.add_argument("--split", action="store_true",
                       help="run transport on the vertex-split companion graph")
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--exact", dest="exact", action="store_true", default=True)
        mode.add_argument("--float", dest="exact", action="store_false")
    return parser


def config_from_args(args) -> RunConfig:
    return RunConfig(
        command=args.command,
        graph=args.graph,
        alpha={k: parse_scalar(v) for k, v in _parse_assignments(args.alpha).items()},
        lam={k: parse_scalar(v) for k, v in _parse_assignments(args.lam).items()},
        prob=_parse_assignments(args.prob),
        tree=tuple(args.tree) if args.tree else None,
        seed=args.seed,
        samples=args.samples,
        tol=args.tol,
        quad_tol=args.quad_tol,
        out=args.out,
        exact=args.exact,
        split=args.split,
        waypoints=[_parse_waypoint(w) for w in args.waypoint] if args.waypoint else None,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        report, status = run(config)
    except ValueError as exc:
        print(json.dumps({"command": args.command, "error": str(exc), "pass": False},
                         sort_keys=True))
        return PARSE_ERROR
    text = json.dumps(_jsonable(report), sort_keys=True, indent=2)
    print(text)
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
