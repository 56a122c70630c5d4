"""The CLI on the bundled graphs: every command ends in a deterministic JSON report."""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dirichlet_flows import SpanningTree, connection
from dirichlet_flows import environment as env_mod
from dirichlet_flows.builtin_graphs import BUILTIN, builtin_graph
from dirichlet_flows.cli import _COMMANDS as COMMANDS
from dirichlet_flows.cli import PARSE_ERROR, build_parser, chi2_sf, main
from dirichlet_flows.graphs import graph_to_dict

GRAPHS = sorted(BUILTIN)


def run_twice(capsys, argv):
    """Exit status and parsed report of a command run twice with byte-identical output."""
    outputs = []
    for _ in range(2):
        status = main(argv)
        outputs.append((status, capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    status, text = outputs[0]
    return status, json.loads(text)


@pytest.mark.parametrize("graph", GRAPHS)
@pytest.mark.parametrize("argv", [
    ["enumerate"],
    ["check-commutation"],
    ["check-flatness", "--samples", "5"],
    ["check-flatness", "--samples", "5", "--float"],
], ids=["enumerate", "check-commutation", "check-flatness", "check-flatness-float"])
def test_algebra_commands_pass(capsys, argv, graph):
    status, report = run_twice(capsys, argv + ["--graph", graph])
    assert status == 0 and report["pass"] is True


@pytest.mark.parametrize("graph", GRAPHS)
@pytest.mark.parametrize("argv", [["sample-env"], ["wilson-test", "--samples", "2000"]],
                         ids=["sample-env", "wilson-test"])
def test_sampling_commands_report(capsys, argv, graph):
    status, report = run_twice(capsys, argv + ["--graph", graph])
    assert report["command"] == argv[0] and "results" in report
    assert status == (0 if report["pass"] else 1)


def test_verify_thm21_accepts_directed_tree(capsys):
    status, report = run_twice(
        capsys, ["verify-thm21", "--graph", "two-edge", "--tree", "e1", "--samples", "1000"])
    assert [t["tree"] for t in report["results"]["trees"]] == [["e1"]]
    assert status == (0 if report["pass"] else 1)


def test_verify_thm21_all_trees_match_single_tree_runs(capsys):
    """Every tree's entry of the all-trees report is that tree's --tree report:
    the Dirichlet batch drawn once for all trees is the one each draws alone."""
    argv = ["verify-thm21", "--graph", "triangle", "--samples", "5000", "--seed", "3"]
    main(argv)
    entries = json.loads(capsys.readouterr().out)["results"]["trees"]
    assert len(entries) == 3
    for entry in entries:
        main(argv + ["--tree", *entry["tree"]])
        assert json.loads(capsys.readouterr().out)["results"]["trees"] == [entry]


@pytest.mark.parametrize("graph, tree", [
    ("two-edge", ["e1", "e2"]),  # too many edges
    ("triangle", ["e1", "e2"]),  # right size, but a cycle
    ("triangle", ["e3"]),        # too few edges
    ("triangle", ["e3", "e9"]),  # unknown edge
])
def test_verify_thm21_rejects_non_tree(capsys, graph, tree):
    status, report = run_twice(capsys, ["verify-thm21", "--graph", graph, "--tree", *tree])
    assert status == PARSE_ERROR
    assert report["pass"] is False and "--tree" in report["error"]


# The options each command reads, besides --graph and --out which all take.
OPTIONS = {
    "validate": "",
    "enumerate": "",
    "sample-env": "alpha seed",
    "verify-thm21": "alpha lambda tree seed samples tol quad-tol",
    "verify-identities": "alpha lambda seed samples tol quad-tol",
    "check-commutation": "alpha",
    "check-flatness": "alpha seed samples float",
    "transport": "alpha lambda tol quad-tol waypoint split",
    "wilson-test": "prob seed samples",
    "laplace": "alpha lambda seed samples",
}


def test_each_command_takes_exactly_its_options():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    taken = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
             for name, p in sub.choices.items()}
    assert taken == {name: {f"--{o}" for o in ("graph out " + opts).split()}
                     for name, opts in OPTIONS.items()}
    assert sum(map(len, taken.values())) == 53


@pytest.mark.parametrize("argv", [
    ["laplace", "--tree", "e1"],
    ["check-commutation", "--seed", "1"],
    ["sample-env", "--float"],
    ["check-flatness", "--exact"],
    ["laplace", "--samples", "0"],
    ["verify-thm21", "--tol", "-1e-6"],
    ["transport", "--quad-tol", "nan"],
    ["check-commutation", "--alpha", "e1"],
    ["laplace", "--lambda", "e1=1/0"],
])
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--graph", "chain"])
    assert exc.value.code == PARSE_ERROR
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("graph", ["two-edge", "triangle"])
def test_wilson_path_gate_at_small_n(capsys, graph, seed):
    main(["wilson-test", "--graph", graph, "--samples", "2000", "--seed", str(seed)])
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["path_pass"] is True and results["path_p_value"] >= 1e-3


def test_split_transport_reads_alpha(capsys, tmp_path):
    """--alpha on the split graph acts as a graph file with that weight does."""
    g = builtin_graph("two-edge")
    heavy = replace(g, edges=(replace(g.edges[0], alpha=Fraction(3)),) + g.edges[1:])
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(graph_to_dict(heavy)))
    starts = []
    for argv in (["--graph", "two-edge"], ["--graph", "two-edge", "--alpha", "e1=3"],
                 ["--graph", str(path)]):
        assert main(["transport", "--split", "--lambda", "e1=2,e2=1", *argv]) == 0
        starts.append(json.loads(capsys.readouterr().out)["results"]["start"])
    assert starts[1] == starts[2] != starts[0]


def test_nonconvergence_is_a_fail_report(capsys):
    """At rate 0 on the b-c cycle its chart integral diverges."""
    status = main(["verify-identities", "--graph", "two-diamond",
                   "--lambda", "e1=1,e2=0,e3=0,e4=0,e5=0,e6=0"])
    report = json.loads(capsys.readouterr().out)
    assert status == 1 and report["pass"] is False and "error" not in report
    assert "panels" in report["results"]["nonconvergence"]


def test_failed_transport_is_a_fail_report(capsys, monkeypatch):
    def failing(fun, t_span, y0, rtol, atol):
        return connection.OdeResult(np.array(y0)[:, None], 1, False, "step collapsed")

    monkeypatch.setattr(connection, "solve_ivp", failing)
    status = main(["transport", "--graph", "two-edge"])
    report = json.loads(capsys.readouterr().out)
    assert status == 1 and report["pass"] is False and "error" not in report
    assert "step collapsed" in report["results"]["nonconvergence"]


def test_cli_import_leaves_heavy_scipy_out():
    """The CLI runs on numpy alone: the integrator, the special functions and
    the exact residue products are the package's own, so no scipy module is
    loaded by the import or by the exact algebra commands."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import contextlib, io, sys, dirichlet_flows.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.main(['check-commutation', '--graph', 'triangle'])\n"
            "    cli.main(['check-flatness', '--graph', 'triangle'])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.strip() == "[]"


def test_chi2_tail_matches_scipy():
    """chi2_sf agrees with scipy's chdtrc to 1e-12 relative for df 1-2000 and
    statistics 0-1e5, wherever chdtrc is at least 1e-300.  chdtrc's own error
    reaches ~1e-12 for df in the thousands and a statistic far from df; where
    the two differ by more, chi2_sf must be within 1e-12 of the exact tail
    (50-digit mpmath) and closer to it than chdtrc."""
    from scipy.special import chdtrc

    def exact(df, stat):
        import mpmath

        with mpmath.workdps(50):
            return float(mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(stat) / 2,
                                         mpmath.inf, regularized=True))

    for df in range(1, 2001):
        assert chi2_sf(0.0, df) == 1.0
        for stat in [*np.geomspace(1e-3, 1e5, 15),
                     *(df * f for f in (0.5, 0.9, 1, 1.1, 1.5, 2, 2.5, 3, 4))]:
            ours, ref = chi2_sf(stat, df), float(chdtrc(df, stat))
            assert math.isfinite(ours) and ours >= 0
            if ref < 1e-300 or abs(ours / ref - 1) <= 1e-12:
                continue
            true = exact(df, stat)
            assert abs(ours / true - 1) <= min(1e-12, abs(ref / true - 1)), (df, stat)


@pytest.mark.parametrize("command", ["verify-thm21", "verify-identities"])
def test_quadrature_commands_pass_on_triangle(capsys, command):
    """The triangle's charts are slanted (0 < u1 - u2 < 1 on {e3, e4}); at the
    default arguments both sides of every identity agree."""
    status, report = run_twice(capsys, [command, "--graph", "triangle"])
    assert status == 0 and report["pass"] is True


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("graph", GRAPHS)
@pytest.mark.parametrize("command", ["verify-thm21", "verify-identities", "transport"])
def test_quadrature_commands_print_strict_json(capsys, command, graph):
    """One JSON object without NaN or Infinity, whatever the verdict."""
    main([command, "--graph", graph])
    json.loads(capsys.readouterr().out, parse_constant=_reject_constant)


@pytest.mark.parametrize("argv", [
    ["verify-thm21", "--graph", "two-edge", "--samples", "1", "--lambda", "e1=5"],
    ["laplace", "--graph", "two-edge", "--samples", "1"],
])
def test_one_sample_is_an_error_report(capsys, argv):
    """One sample has no standard error; an infinite one would pass every gate."""
    status, report = run_twice(capsys, argv)
    assert status == PARSE_ERROR and report["pass"] is False
    assert "at least 2 samples" in report["error"]


@pytest.mark.parametrize("option", ["--lambda", "--waypoint"])
def test_overflowing_rate_is_an_error_report(capsys, option):
    status, report = run_twice(capsys, ["transport", "--graph", "two-edge", option, "e1=1e400"])
    assert status == PARSE_ERROR and report["pass"] is False


def test_wilson_test_rejects_unreachable_cemetery(capsys):
    """x0 and a only hand the walk to each other: an error report, no walk."""
    status, report = run_twice(capsys, ["wilson-test", "--graph", "triangle",
                                        "--prob", "e1=1,e3=0", "--prob", "e2=1,e4=0"])
    assert status == PARSE_ERROR and report["pass"] is False
    assert "to the cemetery" in report["error"]


@pytest.mark.parametrize("graph, cells", [("two-edge", (2, 2)), ("triangle", (3, 2)),
                                          ("two-diamond", (1, 1)), ("chain", (1, 1))])
def test_wilson_test_reports_gate_cells(capsys, graph, cells):
    main(["wilson-test", "--graph", graph, "--samples", "2000"])
    results = json.loads(capsys.readouterr().out)["results"]
    assert (results["gof_cells"], results["path_cells"]) == cells


@pytest.mark.parametrize("prob", ["e1=0,e3=1", "e2=0,e4=1", "e1=1,e3=0"])
def test_wilson_test_zero_probability_tree_is_no_cell(capsys, prob):
    """A tree of probability 0 is left out of the tree gate, which passes."""
    status, report = run_twice(capsys, ["wilson-test", "--graph", "triangle", "--prob", prob,
                                        "--samples", "2000"])
    assert status == 0 and report["pass"] is True
    assert report["results"]["gof_cells"] == (1 if prob == "e1=1,e3=0" else 2)


def test_wilson_test_fails_a_sample_on_a_zero_probability_tree(capsys, monkeypatch):
    """A sampler that returns the tree {e1, e4}, of probability 0 at e1 = 0,
    fails the tree gate with p_value 0."""
    def sampler(g, env, n, seed):
        return [SpanningTree(frozenset({"e1", "e4"}), directed=True)] * n
    monkeypatch.setattr(env_mod, "wilson_sample_trees", sampler)
    status, report = run_twice(capsys, ["wilson-test", "--graph", "triangle",
                                        "--prob", "e1=0,e3=1", "--samples", "2000"])
    assert status == 1 and report["pass"] is False and "error" not in report
    results = report["results"]
    assert results["gof_pass"] is False and results["p_value"] == 0.0
    assert results["gof_cells"] == 2


def test_wilson_test_help_says_one_cell_checks_nothing(capsys):
    with pytest.raises(SystemExit):
        main(["wilson-test", "--help"])
    assert "one cell always passes and checks nothing" in " ".join(capsys.readouterr().out.split())


def test_laplace_report_is_unchanged(capsys):
    """The results of laplace from one environment batch, as printed when the
    total and each tree's estimate drew their own batches."""
    main(["laplace", "--graph", "triangle", "--samples", "2000", "--seed", "5",
          "--lambda", "e1=1,e2=2,e3=1/2,e4=0", "--alpha", "e1=2,e4=1/2"])
    results = json.loads(capsys.readouterr().out)["results"]
    assert json.dumps(results, sort_keys=True) == (
        '{"laplace": {"n_samples": 2000, "seed": 5, "std_error": 0.003217668041067575, '
        '"value": 0.11475890955049518}, "pass": true, "per_tree": {"e1,e4": {"n_samples": '
        '2000, "seed": 5, "std_error": 0.0015860852903826148, "value": 0.04306260667444111}, '
        '"e2,e3": {"n_samples": 2000, "seed": 5, "std_error": 0.001640053532247321, "value": '
        '0.038838297792077724}, "e3,e4": {"n_samples": 2000, "seed": 5, "std_error": '
        '0.0014969998071060733, "value": 0.03285800508397635}}, "sum_consistency": 0.0, '
        '"tree_sum": 0.11475890955049518}')


@pytest.mark.parametrize("weight, seed", [("1/3", 1), ("1/3", 2)]
                         + [("1/5", seed) for seed in range(21)]
                         + [("1/100", seed) for seed in range(6)])
def test_laplace_below_unit_weights_reports_cleanly(capsys, weight, seed):
    """laplace on two-diamond with every weight below 1, where some environments
    have det(I - P) below 1e-18, prints a passing report and exits 0.  At
    weight 1/100 the exits are drawn in log space, and many environments have
    an exit below 1e-300, whose Laplace term underflows to 0."""
    alpha = ",".join(f"e{i}={weight}" for i in range(1, 7))
    status = main(["laplace", "--graph", "two-diamond", "--alpha", alpha, "--seed", str(seed)])
    report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert status == 0 and report["pass"] is True and "error" not in report


@pytest.mark.parametrize("graph", GRAPHS)
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_default_run_passes(capsys, command, graph):
    """Every command on every bundled graph, at default arguments, prints one
    strict JSON report that passes."""
    status = main([command, "--graph", graph])
    report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert status == 0 and report["pass"] is True


def test_waypoints_accept_rationals(capsys):
    """A rational waypoint value is read as the decimal one is."""
    ends = []
    for first, second in (["e1=17/16", "e1=2,e2=3/2"], ["e1=1.0625", "e1=2,e2=1.5"]):
        status = main(["transport", "--graph", "triangle", "--split",
                       "--waypoint", first, "--waypoint", second])
        report = json.loads(capsys.readouterr().out)
        assert status == 0 and report["pass"] is True
        ends.append(report["results"]["end"])
    assert ends[0] == ends[1]


def test_waypoints_accept_complex(capsys):
    status, report = run_twice(capsys, ["transport", "--graph", "two-edge",
                                        "--waypoint", "e1=2", "--waypoint", "e1=2+0.5j",
                                        "--waypoint", "e1=3"])
    assert status == 0 and report["pass"] is True
    assert report["inputs"]["waypoints"][1] == {"e1": {"re": 2.0, "im": 0.5}}
