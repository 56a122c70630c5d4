"""The CLI on the bundled graphs: every command ends in a deterministic JSON report."""

from __future__ import annotations

import json

import pytest

from dirichlet_flows.builtin_graphs import BUILTIN
from dirichlet_flows.cli import PARSE_ERROR, main

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
