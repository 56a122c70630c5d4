"""The CLI on the bundled graphs: every command ends in a deterministic JSON report."""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dirichlet_flows import SpanningTree, combinatorics, connection, integrals
from dirichlet_flows import cli as cli_mod
from dirichlet_flows import environment as env_mod
from dirichlet_flows.builtin_graphs import BUILTIN, builtin_graph
from dirichlet_flows.cli import _COMMANDS as COMMANDS
from dirichlet_flows.cli import PARSE_ERROR, build_parser, chi2_sf, main
from dirichlet_flows.graphs import graph_to_dict

from conftest import broken_connection, complete_graph

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
], ids=["enumerate", "check-commutation", "check-flatness"])
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


def test_enumerate_fails_a_miscount(capsys, monkeypatch):
    """enumerate FAILs when the enumerated trees disagree with the
    matrix-tree theorems: here one directed tree of the triangle is lost."""
    real = combinatorics.enumerate_spanning_trees

    def one_short(g, directed_only=False):
        trees = real(g, directed_only)
        lost = next(t for t in trees if t.directed)
        return [t for t in trees if t is not lost]
    monkeypatch.setattr(combinatorics, "enumerate_spanning_trees", one_short)
    status, report = run_twice(capsys, ["enumerate", "--graph", "triangle"])
    assert status == 1 and report["pass"] is False
    assert report["results"]["matrix_tree"] == {"spanning_trees": 5, "directed_trees": 3,
                                                "pass": False}
    assert report["results"]["spanning_trees"]["count"] == 4


def test_verify_thm21_accepts_directed_tree(capsys):
    status, report = run_twice(
        capsys, ["verify-thm21", "--graph", "two-edge", "--tree", "e1", "--samples", "1000"])
    assert [t["tree"] for t in report["results"]["trees"]] == [["e1"]]
    assert status == (0 if report["pass"] else 1)


def _single_tree_runs_match(capsys, argv, count):
    """Run argv over all directed trees, then over each alone with --tree:
    each tree's entry is the same, and there are `count` trees."""
    main(argv)
    entries = json.loads(capsys.readouterr().out)["results"]["trees"]
    assert len(entries) == count
    for entry in entries:
        main(argv + ["--tree", *entry["tree"]])
        assert json.loads(capsys.readouterr().out)["results"]["trees"] == [entry]
    return entries


def test_verify_thm21_all_trees_match_single_tree_runs(capsys):
    """Every tree's entry of the all-trees report is that tree's --tree report:
    the Dirichlet batch drawn once for all trees is the one each draws alone."""
    argv = ["verify-thm21", "--graph", "triangle", "--samples", "5000", "--seed", "3"]
    entries = _single_tree_runs_match(capsys, argv, 3)
    assert {e["lhs"]["method"] for e in entries} == {"quadrature"}


def test_verify_thm21_k3_all_trees_match_single_tree_runs(tmp_path, capsys):
    """On K3 (split dimension 6) the certificate alone decides each tree, no
    flow side is integrated, and every tree's entry, Dirichlet side over
    three blocks included, is the one that the tree alone gives."""
    path = tmp_path / "K3.json"
    path.write_text(json.dumps(graph_to_dict(complete_graph(3))))
    argv = ["verify-thm21", "--graph", str(path), "--samples", "20000", "--seed", "5"]
    entries = _single_tree_runs_match(capsys, argv, 16)
    assert all("lhs" not in e and e["decided_by"] == ["certificate"] for e in entries)
    assert all(e["pass"] and e["certificate"]["pass"] for e in entries)


def test_verify_thm21_nonconvergence_keeps_the_certificates(capsys):
    """At weight 1/2 on every triangle edge the flow side of each tree runs
    out of panels: each tree FAILs with the reason as its left side, and
    keeps its passing certificate and its Dirichlet side, by the
    Gauss-Jacobi rule."""
    status = main(["verify-thm21", "--graph", "triangle",
                   "--alpha", "e1=1/2,e2=1/2,e3=1/2,e4=1/2", "--samples", "5000"])
    report = json.loads(capsys.readouterr().out)
    trees = report["results"]["trees"]
    assert status == 1 and report["pass"] is False and len(trees) == 3
    for t in trees:
        assert t["certificate"]["pass"] is True and t["rhs"]["method"] == "gauss-jacobi"
        assert t["pass"] is False and t["decided_by"] == ["certificate", "lhs"]
        assert list(t["lhs"]) == ["nonconvergence"] and "panels" in t["lhs"]["nonconvergence"]


@pytest.mark.parametrize("graph", ["two-edge", "triangle", "two-diamond", "chain"])
def test_verify_thm21_results_do_not_depend_on_seed_or_samples(capsys, graph):
    """Up to split dimension 4 neither side of Theorem 2.1 is drawn: the
    results are the same at any --seed and --samples.  The triangle rates
    and seeds 139 and 283 once failed a tree each, its Monte Carlo side
    3.4 and 4.1 standard errors off the flow side."""
    lam = {"triangle": ["--lambda", "e1=33/32,e2=65/64,e3=129/128,e4=17/16"]}.get(graph, [])
    results = []
    for extra in (["--seed", "139"], ["--seed", "283"], ["--seed", "7", "--samples", "2"]):
        status = main(["verify-thm21", "--graph", graph, *lam, *extra])
        report = json.loads(capsys.readouterr().out)
        assert status == 0 and report["pass"] is True
        results.append(report["results"])
    assert results[0] == results[1] == results[2]
    assert {t["rhs"]["method"] for t in results[0]["trees"]} == {"gauss-jacobi"}


def test_verify_thm21_k3_verdict_does_not_depend_on_the_seed(tmp_path, capsys):
    """K3 at the default arguments PASSes at seeds 0, 1 and 2 with the same
    certificate on all 16 trees: its points do not depend on --seed, which
    draws only the Dirichlet side."""
    path = tmp_path / "K3.json"
    path.write_text(json.dumps(graph_to_dict(complete_graph(3))))
    certificates = []
    for seed in ("0", "1", "2"):
        status = main(["verify-thm21", "--graph", str(path), "--seed", seed])
        report = json.loads(capsys.readouterr().out)
        assert status == 0 and report["pass"] is True
        certificates.append([t["certificate"] for t in report["results"]["trees"]])
    assert len(certificates[0]) == 16 and all(c["pass"] for c in certificates[0])
    assert certificates[0] == certificates[1] == certificates[2]


def test_no_command_runs_the_monte_carlo_flow_side(tmp_path, capsys, monkeypatch):
    """Every command on the triangle, and verify-thm21 on K3, ends without
    calling the importance sampler of the flow side, `integrate_mc`."""
    def refuse(*args, **kwargs):
        raise AssertionError("the Monte Carlo flow side was called")
    monkeypatch.setattr(integrals, "integrate_mc", refuse)
    path = tmp_path / "K3.json"
    path.write_text(json.dumps(graph_to_dict(complete_graph(3))))
    runs = [[name, "--graph", "triangle",
             *(["--samples", "2000"] if "samples" in command.options else [])]
            for name, command in COMMANDS.items()]
    runs.append(["verify-thm21", "--graph", str(path), "--samples", "2000"])
    for argv in runs:
        assert main(argv) == 0, argv
        assert json.loads(capsys.readouterr().out)["pass"] is True


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
    "verify-thm21": "alpha lambda tree seed samples",
    "verify-identities": "alpha lambda seed samples",
    "check-commutation": "alpha",
    "check-flatness": "alpha seed samples",
    "transport": "alpha lambda waypoint split",
    "wilson-test": "prob seed samples",
    "laplace": "alpha lambda seed samples",
}


def _commands_built(parser) -> list[str]:
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


def test_parser_of_one_command_builds_only_it(capsys):
    """`main` builds the parser of the command that argv names alone; with no
    command or an unknown one it builds all ten.  Either way the usage line
    lists all ten commands."""
    assert _commands_built(build_parser("laplace")) == ["laplace"]
    assert _commands_built(build_parser()) == list(COMMANDS)
    assert (build_parser("laplace").format_usage() == build_parser().format_usage()
            == build_parser("bogus").format_usage())
    build_parser.cache_clear()
    assert main(["validate", "--graph", "chain"]) == 0
    with pytest.raises(SystemExit):
        main(["bogus"])
    capsys.readouterr()
    assert build_parser.cache_info().currsize == 2
    assert _commands_built(build_parser("validate")) == ["validate"]
    assert build_parser.cache_info().currsize == 2  # main built those two, and only those


def test_each_command_takes_exactly_its_options():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    taken = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
             for name, p in sub.choices.items()}
    assert taken == {name: {f"--{o}" for o in ("graph out " + opts).split()}
                     for name, opts in OPTIONS.items()}
    assert sum(map(len, taken.values())) == 46


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
    ["check-flatness", "--float"],
    # the tolerances are constants: even the old defaults are usage errors
    *([command, *option] for command in ("verify-thm21", "verify-identities", "transport")
      for option in (["--tol", "1e-6"], ["--quad-tol", "1e-8"])),
])
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--graph", "chain"])
    assert exc.value.code == PARSE_ERROR
    assert capsys.readouterr().out == ""


def _two_edge_file(edge=(), **fields) -> dict:
    """The two-edge graph object with some top-level fields, and some fields
    of its first edge, replaced."""
    data = graph_to_dict(builtin_graph("two-edge"))
    data["edges"][0].update(edge)
    return {**data, **fields}


BAD_GRAPH_FILES = {
    "array": [],
    "vertices-number": _two_edge_file(vertices=5),
    "vertex-number": _two_edge_file(vertices=["x0", 1, "delta"]),
    "cemetery-array": _two_edge_file(cemetery=["delta"]),
    "edges-string": _two_edge_file(edges="e1"),
    "edge-number": _two_edge_file(edges=[5]),
    "id-number": _two_edge_file({"id": 1}),
    "head-null": _two_edge_file({"head": None}),
    "alpha-null": _two_edge_file({"alpha": None}),
    "alpha-array": _two_edge_file({"alpha": [1]}),
    "alpha-true": _two_edge_file({"alpha": True}),
    "alpha-zero-denominator": _two_edge_file({"alpha": "1/0"}),
}


@pytest.mark.parametrize("data", BAD_GRAPH_FILES.values(), ids=BAD_GRAPH_FILES)
def test_malformed_graph_file_is_an_error_report(capsys, tmp_path, data):
    """A graph file with a field of the wrong JSON type exits 2 with an error
    report, not a traceback; a boolean is not a weight."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    status, report = run_twice(capsys, ["enumerate", "--graph", str(path)])
    assert status == PARSE_ERROR
    assert report == {"command": "enumerate", "error": report["error"], "pass": False}


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("graph", ["two-edge", "triangle"])
def test_wilson_path_gate_at_small_n(capsys, graph, seed):
    main(["wilson-test", "--graph", graph, "--samples", "2000", "--seed", str(seed)])
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["path_pass"] is True and results["path_p_value"] >= 1e-3


def test_wilson_test_over_several_blocks(capsys):
    """At 20 000 samples the walkers run as three blocks: the report is the
    same bytes twice, counts every sample and PASSes."""
    status, report = run_twice(capsys, ["wilson-test", "--graph", "triangle", "--samples", "20000"])
    assert 20_000 > 2 * env_mod.BLOCK_ROWS
    assert status == 0 and report["pass"] is True
    assert sum(report["results"]["observed_counts"]) == 20_000


# sha256 of json.dumps(results, sort_keys=True) of wilson-test at 20 000
# samples (three blocks) and the default seed, as the walkers drew them when
# the CLI still counted the trees of wilson_sample_trees one sample at a time
WILSON_DIGESTS = {
    "triangle": "0f80a460cb8cf552b6470270816e5dfb639edd50cce47eb2d57452d641e404fa",
    "K3": "1f55cde4b44c0ab3af8bb95a4921640cf1e199351fffcb88c7eeffbcb65ab9ca",
}


@pytest.mark.parametrize("graph", sorted(WILSON_DIGESTS))
def test_wilson_test_draws_are_pinned(tmp_path, capsys, graph):
    """The lockstep walks behind wilson-test keep their draws: the results on
    triangle and on K3 are the pinned bytes."""
    arg = graph
    if graph == "K3":
        arg = str(tmp_path / "K3.json")
        Path(arg).write_text(json.dumps(graph_to_dict(complete_graph(3))))
    assert main(["wilson-test", "--graph", arg, "--samples", "20000"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    digest = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
    assert digest == WILSON_DIGESTS[graph]


# sha256 of the report lines of verify-thm21 and of split transport with
# --alpha overriding the graph's weights.  Transport's were pinned again when
# its right-hand side came to read the table's entries, with every end vector
# within 3e-16 relative of the dense one's, and again when its reports lost
# the per-chart "converged" flags, each report otherwise the same; verify-thm21's
# were pinned again
# when its reports gained the certificate, with every lhs and rhs field the
# same bits as before.  All four were pinned again when --tol and --quad-tol
# left the CLI, after checking that each report equals the old one without
# inputs.tol and inputs.quad_tol.  The two triangle reports were pinned again
# when quadrature came to grade the panels of a level toward a pole just
# beyond it, after comparing each report with the old one field by field: every
# lhs value, start and end component moved by at most 8.2e-16 relative, every
# error by at most 0.26%, and no verdict changed.  The two verify-thm21
# reports were pinned again when their Dirichlet side came from the tensor
# Gauss-Jacobi rule instead of Monte Carlo, after comparing each report with
# the old one field by field: only each tree's rhs and agreement moved, the
# rhs value by at most 1.0% of itself (0.97 of the old standard error),
# to within 1.4e-9 relative of the unchanged lhs, and no verdict changed.
OVERRIDE_DIGESTS = {
    ("verify-thm21", "triangle"): "566a40d434b9dcc06566eddb82905e330c8b6f007dc985fece0fcc30cf961894",
    ("transport", "triangle"): "a0dc40859ddab7a3b2c4eb1d22ebe667986faca244bf530a7f3f877e92e73da5",
    ("verify-thm21", "two-diamond"): "ce75399d42a0d02962691575b070ac86aa2dedd294b607f9ed89d4b56a6cc7aa",
    ("transport", "two-diamond"): "196ed615cfcadfd47c53a0c846c10063a3cbd41dd9dcd507946de788db855adf",
}
OVERRIDE_ARGV = {
    "verify-thm21": ["--alpha", "e1=3/2,e3=2", "--samples", "20000"],
    "transport": ["--split", "--alpha", "e1=3/2,e2=2"],
}


@pytest.mark.parametrize("command, graph", sorted(OVERRIDE_DIGESTS))
def test_alpha_override_reports_are_pinned(capsys, command, graph):
    """The split graph built under the --alpha weights integrates what the
    exponents recomputed from --alpha did: the reports are the pinned bytes."""
    assert main([command, "--graph", graph, *OVERRIDE_ARGV[command]]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == OVERRIDE_DIGESTS[command, graph]


def _compensated_sum(iterable, start=0):
    """sum() as Python >= 3.12 adds floats, with Neumaier's compensation of
    each rounding; the built-in sum for anything else."""
    items = list(iterable)
    if not items or not all(type(x) is float for x in items):
        return sum(items, start)
    total, comp = float(start), 0.0
    for x in items:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def test_reports_do_not_depend_on_compensated_sum(capsys, monkeypatch, tmp_path):
    """With the compensated sum() of Python >= 3.12 in integrals and cli, the
    four override reports and wilson-test on K3 at 2 000 samples keep the
    bytes they have without it: no float that reaches them is added by sum().
    The compensation once moved all five."""
    assert (_compensated_sum([1.0, 1e100, 1.0, -1e100]), sum([1.0, 1e100, 1.0, -1e100])) \
        == (2.0, 0.0)
    k3 = tmp_path / "K3.json"
    k3.write_text(json.dumps(graph_to_dict(complete_graph(3))))
    runs = [[command, "--graph", graph, *OVERRIDE_ARGV[command]]
            for command, graph in sorted(OVERRIDE_DIGESTS)]
    runs.append(["wilson-test", "--graph", str(k3), "--samples", "2000"])
    plain = []
    for argv in runs:
        assert main(argv) == 0
        plain.append(capsys.readouterr().out)
    for module in (integrals, cli_mod):
        monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
    for argv, out in zip(runs, plain):
        assert main(argv) == 0
        assert capsys.readouterr().out == out, argv


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
    """At rate 0 on the b-c cycle its chart integral diverges: each exchange
    identity that needs the chart FAILs with the quadrature's message, and
    the exact pairing keeps its PASS."""
    status = main(["verify-identities", "--graph", "two-diamond",
                   "--lambda", "e1=1,e2=0,e3=0,e4=0,e5=0,e6=0"])
    report = json.loads(capsys.readouterr().out)
    assert status == 1 and report["pass"] is False and "error" not in report
    results = report["results"]
    assert results["pairing"] == {"triples": 100, "max_residual": "0", "pass": True}
    failed = [rep for rep in results["exchange"] if not rep["pass"]]
    assert failed and all("panels" in rep["nonconvergence"] for rep in failed)


@pytest.mark.parametrize("path", [[], ["--waypoint", "e1=17/16", "--waypoint", "e1=2,e2=3/2"]],
                         ids=["loop", "open"])
@pytest.mark.parametrize("graph, weight", [("triangle", "1/3"), ("triangle", "1/2"),
                                           ("two-diamond", "1/2")])
def test_transport_fails_where_a_chart_does_not_converge(capsys, graph, weight, path):
    """With every weight below 1 the charts' quadrature does not converge, so
    transport has no whole vector to compare: it FAILs with the quadrature's
    message.  A complex last waypoint leaves nothing to compare either, and
    is a usage error."""
    alpha = ",".join(f"{eid}={weight}" for eid in builtin_graph(graph).edge_ids)
    status, report = run_twice(capsys, ["transport", "--graph", graph, "--alpha", alpha, *path])
    assert status == 1 and report["pass"] is False
    assert "panels" in report["results"]["nonconvergence"]
    status, report = run_twice(capsys, ["transport", "--graph", "two-edge", "--waypoint",
                                        "e1=2", "--waypoint", "e1=2+0.5j"])
    assert status == PARSE_ERROR and "last waypoint" in report["error"]


def test_flipped_cycle_sign_fails_the_pairing(capsys, monkeypatch):
    """One cycle sign flipped in the coordinate map of the triangle's tree
    {e2, e4}, which no exchange of the report integrates: the pairing finds a
    nonzero residual and the report FAILs on it alone."""
    tree = SpanningTree(frozenset({"e2", "e4"}), False)
    lone_map = integrals.tree_coordinate_map

    def flipped(g, t):
        free, rows = lone_map(g, t)
        if t != tree:
            return free, rows
        eid = next(e for e in g.edge_ids if rows[e][1][0] != 0 and e != free[0])
        off, coeffs = rows[eid]
        return free, {**rows, eid: (off, (-coeffs[0], *coeffs[1:]))}

    monkeypatch.setattr(integrals, "tree_coordinate_map", flipped)
    status = main(["verify-identities", "--graph", "triangle"])
    results = json.loads(capsys.readouterr().out)["results"]
    assert status == 1 and results["pairing"]["pass"] is False
    assert Fraction(results["pairing"]["max_residual"]) > 0
    assert all(rep["pass"] for rep in results["exchange"])


def test_verify_identities_keeps_numpy_ma_out():
    """numpy.ma, which np.unique imports, stays out of a verify-identities
    process: it would add its module size to the peak RSS.  numpy before 2.0
    imports numpy.ma with numpy itself, so there is nothing to check."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; from dirichlet_flows.cli import main; "
            "print('numpy.ma' in sys.modules, file=sys.stderr); "
            "status = main(['verify-identities', '--graph', 'two-diamond']); "
            "sys.exit(status or 'numpy.ma' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    if run.stderr.split()[:1] == ["True"]:
        pytest.skip("numpy imports numpy.ma at import time")
    assert run.returncode == 0, run.stderr


def test_check_flatness_keeps_numpy_random_out():
    """A flat connection is decided by its certificate and no rates are
    drawn, so numpy.random, which numpy 2 imports at the first draw, stays
    out of a check-flatness process.  numpy before 2.0 imports numpy.random
    with numpy itself, so there is nothing to check."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; from dirichlet_flows.cli import main; "
            "print('numpy.random' in sys.modules, file=sys.stderr); "
            "status = main(['check-flatness', '--graph', 'triangle']); "
            "sys.exit(status or 'numpy.random' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    if run.stderr.split()[:1] == ["True"]:
        pytest.skip("numpy imports numpy.random at import time")
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["results"]["samples"] == 0


def test_broken_connection_fails_check_flatness(capsys, monkeypatch):
    """With 1/7 added to a diagonal entry of the triangle's 2-cycle term,
    check-flatness FAILs and names the two failed identities, the Kohno
    relations of that cycle and of the next one in their flat of three; its
    witness is the exact residual of the sampled check at the --samples
    rates drawn from --seed: nonzero, and the same in every run."""
    build = connection.build_connection
    monkeypatch.setattr(connection, "build_connection",
                        lambda g, w: broken_connection(build(g, w)))
    argv = ["check-flatness", "--graph", "triangle", "--seed", "3", "--samples", "4"]
    status, report = run_twice(capsys, argv)
    results = report["results"]
    assert status == 1 and report["pass"] is False and results["pass"] is False
    flat = ["e1,e2", "e1,e3,e4", "e2,e3,e4"]
    assert results["failed"] == [{"degree": -2, "flat": flat, "cycle": "e1,e2"},
                                 {"degree": -2, "flat": flat, "cycle": "e1,e3,e4"}]
    g = builtin_graph("triangle")
    conn = broken_connection(build(g, env_mod.DirichletWeights.from_graph(g)))
    rng = env_mod.philox_stream(3, env_mod._FLATNESS)
    samples = [connection.sample_rates_off_kernels(conn, rng) for _ in range(4)]
    assert results["samples"] == 4
    assert Fraction(results["max_residual"]) == connection.check_flatness(conn, samples) != 0


def test_failed_transport_is_a_fail_report(capsys, monkeypatch):
    def failing(fun, t_span, y0, rtol, atol):
        return connection.OdeResult(np.array(y0), 1, False, "step collapsed")

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


def test_wilson_test_rejects_exits_outside_the_unit_interval(capsys):
    """Exits 3/2 and -1/2 at x0 sum to one but are no probabilities: an
    error report, no walk."""
    status, report = run_twice(capsys, ["wilson-test", "--graph", "triangle",
                                        "--prob", "e1=3/2,e3=-1/2", "--samples", "2000"])
    assert status == PARSE_ERROR
    assert report == {"command": "wilson-test", "pass": False,
                      "error": "exit probability of 'e1' is 3/2, not in [0, 1]"}


def test_out_gets_the_report_and_an_unwritable_out_is_a_usage_error(capsys, tmp_path,
                                                                      monkeypatch):
    """--out gets the printed report line.  An --out in a missing directory
    exits 2 with one error line, decided before the graph is even loaded."""
    path = tmp_path / "r.json"
    assert main(["validate", "--graph", "chain", "--out", str(path)]) == 0
    assert path.read_text() == capsys.readouterr().out
    missing = tmp_path / "missing" / "r.json"

    def no_graph(name):
        raise AssertionError("the command ran")
    monkeypatch.setattr(cli_mod, "builtin_graph", no_graph)
    status, report = run_twice(capsys, ["validate", "--graph", "chain", "--out", str(missing)])
    assert status == PARSE_ERROR
    assert report == {"command": "validate", "error": report["error"], "pass": False}
    assert str(missing) in report["error"] and not missing.parent.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_out_that_cannot_be_written_is_a_usage_error(capsys):
    """--out on a full device opens, but the write fails: one error line and
    exit 2, with no report printed before it."""
    status = main(["validate", "--graph", "chain", "--out", "/dev/full"])
    (line,) = capsys.readouterr().out.splitlines()
    report = json.loads(line)
    assert status == PARSE_ERROR
    assert report == {"command": "validate", "error": report["error"], "pass": False}


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
    """A sampler that counts n trees {e1, e4}, of probability 0 at e1 = 0,
    fails the tree gate with p_value 0."""
    def sampler(g, env, n, seed):
        return Counter({frozenset({"e1", "e4"}): n})
    monkeypatch.setattr(env_mod, "wilson_tree_counts", sampler)
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
    line: a strict JSON report with sorted keys, which re-dumps to the same
    bytes, and which passes."""
    status = main([command, "--graph", graph])
    (line,) = capsys.readouterr().out.splitlines()
    report = json.loads(line, parse_constant=_reject_constant)
    assert json.dumps(report, sort_keys=True) == line
    assert status == 0 and report["pass"] is True


# sha256 of json.dumps(results, sort_keys=True) of the enumerate and
# check-commutation reports on K3 and K4 at unit weights, as the union-find
# genus and the one-pair-at-a-time classification gave them (K4 commutation
# has 57 168 items); enumerate's without its later matrix-tree block, which
# MATRIX_TREE pins
MATRIX_TREE = {3: (49, 16), 4: (729, 125)}
SCALE_DIGESTS = {
    (3, "enumerate"): "9b37fb1bcbfe015f74ab8711e15b0611a466ac203e4c7ba0000e00702b76855f",
    (3, "check-commutation"): "2d9f22468c910153508dd2d4f308bfcb17cee3c92fd9b128239d160e4cb0ba36",
    (4, "enumerate"): "e4acb3c15d365738cf0c72b16cf1b022b8f97bb83171982fe9615e462ca39df5",
    (4, "check-commutation"): "b36c82b0536db80aff2fe8905db70a175aa6fbde1c6b8c129961026e9902771c",
}


@pytest.mark.parametrize("k, command", sorted(SCALE_DIGESTS))
def test_scale_graph_results_are_pinned(tmp_path, capsys, k, command):
    path = tmp_path / f"K{k}.json"
    path.write_text(json.dumps(graph_to_dict(complete_graph(k))))
    assert main([command, "--graph", str(path)]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    if command == "enumerate":
        spanning, directed = MATRIX_TREE[k]
        assert results.pop("matrix_tree") == {"spanning_trees": spanning,
                                              "directed_trees": directed, "pass": True}
    digest = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
    assert digest == SCALE_DIGESTS[k, command]


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


@pytest.mark.parametrize("argv", [["laplace", "--graph", "{K3}"],
                                  ["verify-thm21", "--graph", "{K3}", "--samples", "50000"],
                                  ["verify-identities", "--graph", "triangle"],
                                  ["verify-thm21", "--graph", "triangle"]],
                         ids=["laplace", "verify-thm21", "verify-identities",
                              "verify-thm21-triangle"])
def test_reports_do_not_depend_on_blas_threads(tmp_path, argv):
    """The Monte Carlo reports on K3, several blocks of laplace and of
    Theorem 2.1's Dirichlet side, the quadrature report of the triangle's
    exchange identities, and the triangle's Theorem 2.1 report, both sides
    by quadrature, print the same bytes on one BLAS thread and on two: no
    per-sample sum, no quadrature node and no Gauss-Jacobi point is a BLAS
    product."""
    path = tmp_path / "K3.json"
    path.write_text(json.dumps(graph_to_dict(complete_graph(3))))
    argv = [arg.format(K3=path) for arg in argv]
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        run = subprocess.run([sys.executable, "-m", "dirichlet_flows.cli", *argv],
                             capture_output=True, env=env)
        assert run.returncode in (0, 1) and json.loads(run.stdout)["command"] == argv[0]
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]


def test_parser_built_once_leaks_nothing_between_calls(capsys):
    """`main` builds its parser once per process.  Three calls in one process,
    with weight and rate overrides and repeated waypoints, with others, and
    with none, print the bytes that fresh interpreters print."""
    calls = [
        ["transport", "--graph", "triangle", "--alpha", "e1=3/2", "--lambda", "e2=5/4",
         "--waypoint", "e1=2", "--waypoint", "e1=2+0.5j", "--waypoint", "e1=3"],
        ["transport", "--graph", "triangle", "--alpha", "e2=2/3", "--lambda", "e1=9/8",
         "--waypoint", "e2=3", "--waypoint", "e2=5/2"],
        ["transport", "--graph", "triangle"],
    ]
    in_process = []
    for argv in calls:
        main(argv)
        in_process.append(capsys.readouterr().out)
    assert build_parser() is build_parser()
    src = Path(__file__).resolve().parents[1] / "src"
    fresh = [subprocess.run([sys.executable, "-m", "dirichlet_flows.cli", *argv],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}).stdout
             for argv in calls]
    assert in_process == fresh
