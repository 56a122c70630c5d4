"""Seeded inputs and the op scripts of the three benchmark workloads.

An op is one call into a public entry point of ``dirichlet_flows``: either
``cli.main(argv)`` (kind ``cli``) or, for the closed-form reference op only,
``integrals.integrate_quadrature`` (kind ``reference``).  Every input an op
receives (``--seed``, ``--lambda``, ``--alpha``, ``--tree`` and the scale
graph files) is derived from the workload seed here; this module imports
nothing from the package, so the parent runner stays light.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

BUILTINS = ("two-edge", "triangle", "two-diamond", "chain")

# Directed spanning trees (every interior vertex keeps one out-edge, all
# reaching the cemetery) of the two quadrature graphs.
DIRECTED_TREES = {
    "triangle": (("e1", "e4"), ("e2", "e3"), ("e3", "e4")),
    "two-diamond": (("e2", "e3", "e5", "e6"),),
}
EDGE_IDS = {
    "two-edge": ("e1", "e2"),
    "triangle": ("e1", "e2", "e3", "e4"),
    "two-diamond": ("e1", "e2", "e3", "e4", "e5", "e6"),
    "chain": ("e1", "e2"),
}

# Per-op time budgets in seconds; an op over budget is recorded as a timeout.
BUDGET_SHORT = 20.0
BUDGET_LONG = 60.0


def complete_graph(k: int) -> dict:
    """Graph object of the complete digraph on k interior vertices, each wired to the cemetery.

    K3 has 9 edges, 49 spanning trees, 29 cycles and 13 paths; K4 has 16
    edges and 729 spanning trees.
    """
    interior = ["x0"] + [chr(ord("a") + i) for i in range(k - 1)]
    pairs = [(t, h) for t in interior for h in interior if t != h]
    pairs += [(t, "delta") for t in interior]
    edges = [{"id": f"e{i + 1}", "tail": t, "head": h, "alpha": "1"}
             for i, (t, h) in enumerate(pairs)]
    return {"vertices": interior + ["delta"], "cemetery": "delta", "base": "x0", "edges": edges}


SCALE_GRAPHS = {"K3": 3, "K4": 4}
# Where workers write the scale graph files, relative to the checkout.  The
# path is part of each report, so it must be the same in every pass for the
# report digests to agree.
WORK_DIR = ".perfbench_work"


def write_scale_graphs(directory: Path) -> dict[str, str]:
    """Write the K3 and K4 graph files; returns name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, k in SCALE_GRAPHS.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(complete_graph(k), indent=2) + "\n")
        paths[name] = str(path)
    return paths


def edge_ids_of(graph: str) -> tuple[str, ...]:
    if graph in EDGE_IDS:
        return EDGE_IDS[graph]
    return tuple(e["id"] for e in complete_graph(SCALE_GRAPHS[graph])["edges"])


def generic_rates(rng: random.Random, edge_ids) -> dict[str, Fraction]:
    """Positive rates 1 + 2**-(k_e + 3), k_e a seeded permutation of 1..|E|.

    Every cycle form is a signed sum of distinct edges; its dyadic part is a
    signed sum of distinct powers of 2, which is never an integer, so no
    cycle form vanishes and the rates lie off every kernel, whatever the graph.
    The rates stay within 1/16 of the unit rates, where the quadrature defects
    of the baseline show; the quadrature work then varies by a few percent
    between seeds, where rates spread over (1, 3/2] move it by 15%.
    """
    ks = list(range(1, len(edge_ids) + 1))
    rng.shuffle(ks)
    return {eid: 1 + Fraction(1, 2 ** (k + 3)) for eid, k in zip(edge_ids, ks)}


def small_alphas(rng: random.Random, edge_ids) -> dict[str, Fraction]:
    """Small positive rational edge weights."""
    choices = (Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2), Fraction(2))
    return {eid: rng.choice(choices) for eid in edge_ids}


def _assign(values: dict[str, Fraction]) -> str:
    return ",".join(f"{k}={v}" for k, v in values.items())


def _cli(op_id: str, argv: list[str], budget: float = BUDGET_SHORT) -> dict:
    return {"id": op_id, "kind": "cli", "argv": argv, "budget_s": budget}


def _graph_arg(graph: str) -> str:
    """Builtins go by name; scale graphs by a placeholder the worker fills with a path."""
    return graph if graph in BUILTINS else "{" + graph + "}"


# Exact flatness samples: the builtins use the CLI default.  On K3 a few
# samples keep the pass short, so that a run holds several passes and the
# timings are medians of several fresh interpreters; K3 flatness is still
# the slowest op of the workload.
FLATNESS_SAMPLES_K3 = 4


def algebra_script(seed: int) -> list[dict]:
    rng = random.Random(f"algebra:{seed}")
    ops = []
    for graph in BUILTINS + ("K3",):
        alpha = _assign(small_alphas(rng, edge_ids_of(graph)))
        ops.append(_cli(f"check-commutation/{graph}",
                        ["check-commutation", "--graph", _graph_arg(graph), "--alpha", alpha]))
    for graph in BUILTINS + ("K3",):
        alpha = _assign(small_alphas(rng, edge_ids_of(graph)))
        argv = ["check-flatness", "--graph", _graph_arg(graph), "--alpha", alpha,
                "--seed", str(rng.randrange(1 << 30))]
        if graph == "K3":
            argv += ["--samples", str(FLATNESS_SAMPLES_K3)]
        ops.append(_cli(f"check-flatness/{graph}", argv,
                        BUDGET_LONG if graph == "K3" else BUDGET_SHORT))
    for graph in ("K3", "K4"):
        ops.append(_cli(f"enumerate/{graph}", ["enumerate", "--graph", _graph_arg(graph)]))
    return ops


def sampling_script(seed: int) -> list[dict]:
    rng = random.Random(f"sampling:{seed}")
    ops = []
    for graph in ("two-diamond", "two-edge"):
        ops.append(_cli(f"wilson-test/{graph}",
                        ["wilson-test", "--graph", graph, "--seed", str(rng.randrange(1 << 30))],
                        BUDGET_LONG))
    for graph in ("two-diamond", "K3"):
        lam = _assign(generic_rates(rng, edge_ids_of(graph)))
        ops.append(_cli(f"laplace/{graph}",
                        ["laplace", "--graph", _graph_arg(graph), "--lambda", lam,
                         "--seed", str(rng.randrange(1 << 30))]))
    for graph in BUILTINS + ("K3",):
        alpha = _assign(small_alphas(rng, edge_ids_of(graph)))
        ops.append(_cli(f"sample-env/{graph}",
                        ["sample-env", "--graph", _graph_arg(graph), "--alpha", alpha,
                         "--seed", str(rng.randrange(1 << 30))]))
    return ops


def quadrature_script(seed: int) -> list[dict]:
    rng = random.Random(f"quadrature:{seed}")
    ops = []
    for graph in ("triangle", "two-diamond"):
        lam = _assign(generic_rates(rng, edge_ids_of(graph)))
        mc_seed = str(rng.randrange(1 << 30))
        for tree in DIRECTED_TREES[graph]:
            ops.append(_cli(f"verify-thm21/{graph}/{'-'.join(tree)}",
                            ["verify-thm21", "--graph", graph, "--lambda", lam,
                             "--seed", mc_seed, "--tree", *tree], BUDGET_LONG))
        ops.append(_cli(f"verify-identities/{graph}",
                        ["verify-identities", "--graph", graph, "--lambda", lam,
                         "--seed", str(rng.randrange(1 << 30))], BUDGET_LONG))
        ops.append(_cli(f"transport/{graph}",
                        ["transport", "--graph", graph, "--lambda", lam], BUDGET_LONG))
    lam = _assign(generic_rates(rng, edge_ids_of("K3")))
    ops.append(_cli("verify-thm21/K3", ["verify-thm21", "--graph", "{K3}", "--lambda", lam,
                                        "--seed", str(rng.randrange(1 << 30))], BUDGET_LONG))
    ref_lam = generic_rates(rng, edge_ids_of("triangle"))
    ops.append({"id": "reference/triangle-e3-e4", "kind": "reference", "budget_s": BUDGET_LONG,
                "lam": {k: str(v) for k, v in ref_lam.items()}})
    return ops


SCRIPTS = {
    "algebra": algebra_script,
    "sampling": sampling_script,
    "quadrature": quadrature_script,
}


def reference_integral(lam: dict[str, Fraction]) -> float:
    """Closed form of the triangle chart {e3, e4} integral at unit weights.

    I = exp(-l3) / (l1 + l2) * F(l1 + l4 - l3), F(c) = int_0^1 exp(-c s) s (1 - s) ds.
    """
    l1, l2, l3, l4 = (float(lam[e]) for e in ("e1", "e2", "e3", "e4"))
    c = l1 + l4 - l3
    if abs(c) < 1.0:
        # F(c) = sum_k (-c)^k / k! / ((k + 2)(k + 3)); 40 terms exhaust double precision
        f = math.fsum((-c) ** k / math.factorial(k) / ((k + 2) * (k + 3)) for k in range(40))
    else:
        em = math.exp(-c)
        f = (1.0 - em * (1.0 + c)) / c ** 2 - (2.0 - em * (c * c + 2.0 * c + 2.0)) / c ** 3
    return math.exp(-l3) / (l1 + l2) * f
