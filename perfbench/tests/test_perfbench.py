"""Checks of the benchmark itself: inputs, reference values, metric names, and
that tracing changes no report.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import random
import shutil
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dirichlet_flows import builtin_graph, graph_from_dict  # noqa: E402
from dirichlet_flows import combinatorics as comb  # noqa: E402
from dirichlet_flows.connection import build_connection  # noqa: E402
from dirichlet_flows.environment import DirichletWeights, directed_trees  # noqa: E402


def test_reference_closed_form_values():
    unit = {e: Fraction(1) for e in ("e1", "e2", "e3", "e4")}
    assert workloads.reference_integral(unit) == pytest.approx(0.0190632043, rel=1e-8)
    ramp = {"e1": Fraction(1), "e2": Fraction(2), "e3": Fraction(3), "e4": Fraction(4)}
    assert workloads.reference_integral(ramp) == pytest.approx(0.0011229911665, rel=1e-11)


@pytest.mark.parametrize("c", [-2.0, -1.0, -0.5, 1e-9, 0.5, 0.999, 1.0, 1.5, 3.0])
def test_reference_branches_agree_with_quadrature(c):
    from scipy.integrate import quad

    # l1 + l4 - l3 = c
    lam = {"e1": Fraction(1), "e2": Fraction(1), "e3": Fraction(2), "e4": 1 + Fraction(c)}
    f, _ = quad(lambda s: math.exp(-c * s) * s * (1 - s), 0, 1, epsabs=0, epsrel=1e-13)
    expected = math.exp(-2.0) / 2.0 * f
    assert workloads.reference_integral(lam) == pytest.approx(expected, rel=1e-11)


def test_scale_graph_sizes():
    k3 = graph_from_dict(workloads.complete_graph(3))
    assert len(k3.edges) == 9
    assert len(comb.enumerate_spanning_trees(k3)) == 49
    assert len(comb.enumerate_cycles(k3)) == 29
    assert len(comb.enumerate_paths(k3)) == 13
    k4 = graph_from_dict(workloads.complete_graph(4))
    assert len(k4.edges) == 16
    assert len(comb.enumerate_spanning_trees(k4)) == 729


@pytest.mark.parametrize("seed", range(5))
def test_generic_rates_are_off_every_kernel(seed):
    rng = random.Random(seed)
    graphs = [builtin_graph("triangle"), builtin_graph("two-diamond"),
              graph_from_dict(workloads.complete_graph(3))]
    for g in graphs:
        lam = workloads.generic_rates(rng, g.edge_ids)
        assert all(v > 0 for v in lam.values())
        build_connection(g, DirichletWeights.from_graph(g)).check_membership(lam)


def test_graph_tables_match_the_package():
    for name, ids in workloads.EDGE_IDS.items():
        assert builtin_graph(name).edge_ids == ids
    for name, trees in workloads.DIRECTED_TREES.items():
        got = {t.key for t in directed_trees(builtin_graph(name))}
        assert got == set(trees)


def test_scripts_are_seeded():
    for name, script in workloads.SCRIPTS.items():
        assert script(3) == script(3)
        assert script(3) != script(4)
        ids = [op["id"] for op in script(3)]
        assert len(ids) == len(set(ids)), name


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    measured = set(tracing.layer_metrics([])) | {"cli.import_s", "cli.ops_failed_share",
                                                 "integrals.ref_rel_err", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == measured
    assert [w["name"] for w in spec["workloads"]] == list(workloads.SCRIPTS)


def test_tracing_changes_no_report():
    """Traced and untraced passes at one seed give the same digests and verdicts."""
    try:
        plain = run.run_pass("algebra", 5, timeout=120)
        traced = run.run_pass("algebra", 5, timeout=120, trace=True)
    finally:
        shutil.rmtree(ROOT / run.WORK_DIR, ignore_errors=True)
    assert traced["final"] and traced["final"]["spans"] > 0
    for op_id, rec in plain["ops"].items():
        assert rec["verdict"] in run.COMPLETED, op_id
        assert traced["ops"][op_id]["digest"] == rec["digest"], op_id
        assert traced["ops"][op_id]["verdict"] == rec["verdict"], op_id
    layers = traced["final"]["layers"]
    assert layers["connection.commutation_items"] > 0
    assert layers["combinatorics.genus_calls"] > 0
