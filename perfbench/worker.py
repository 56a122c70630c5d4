"""One benchmark pass in a fresh interpreter.

Sets up (imports ``dirichlet_flows.cli``, writes and loads the scale graph
files), then replays the workload's op script in a closed loop, one op after
another.  Each op's record is written to stdout as one JSON line as soon as
the op ends, so the parent keeps what finished if it must stop this process.

    python3 perfbench/worker.py --workload algebra --seed 1 --t0 <monotonic> [--trace] [--setup-only]

The parent (``run.py``) starts it from the checkout's root with PYTHONPATH
set to the checkout's ``src`` and the BLAS thread pools pinned to one
thread.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _emit(stream, record: dict) -> None:
    stream.write(json.dumps(record, sort_keys=True) + "\n")
    stream.flush()


def _run_cli(main, argv: list[str]) -> tuple[bytes, object]:
    """Call the CLI entry point with stdout captured; returns (report bytes, exit status)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse usage errors
            status = exc.code
    return buf.getvalue().encode(), status


def _verdict(text: bytes, status) -> str:
    try:
        report = json.loads(text)
    except ValueError:
        return "ERROR:no-json-report"
    if not isinstance(report, dict) or "error" in report:
        return "ERROR:error-report"
    if report.get("pass") is True and status == 0:
        return "PASS"
    if report.get("pass") is False and status == 1:
        return "FAIL"
    return f"ERROR:verdict-{report.get('pass')}-status-{status}"


def _reference_op(lam_text: dict) -> tuple[bytes, int, float]:
    """Triangle chart {e3, e4} at unit weights against its closed form.

    Returns the report bytes, a CLI-style exit status and the relative error
    of the estimate.
    """
    from dirichlet_flows import integrals
    from dirichlet_flows.builtin_graphs import builtin_graph
    from dirichlet_flows.combinatorics import SpanningTree

    from workloads import reference_integral

    g = builtin_graph("triangle")
    lam = {k: Fraction(v) for k, v in lam_text.items()}
    tree = SpanningTree(frozenset({"e3", "e4"}), True)
    spec = integrals.IntegrandSpec(g, {eid: Fraction(1) for eid in g.edge_ids}, lam, tree)
    est = integrals.integrate_quadrature(spec)
    exact = reference_integral(lam)
    ok = abs(est.value - exact) <= max(3.0 * est.error, 1e-10 * exact)
    report = {"closed_form": exact, "estimate": est.as_dict(), "pass": ok}
    text = json.dumps(report, sort_keys=True).encode()
    return text, 0 if ok else 1, abs(est.value - exact) / exact


def _expected_counts(op_id: str) -> dict | None:
    """Known sizes of the scale graphs, checked against the enumerate reports."""
    return {
        "enumerate/K3": {"spanning_trees": 49, "cycles": 29, "paths": 13},
        "enumerate/K4": {"spanning_trees": 729, "cycles": 242, "paths": 79},
    }.get(op_id)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    out = sys.stdout

    t_import = time.monotonic()
    import dirichlet_flows.cli as cli
    import_s = time.monotonic() - t_import
    src = (ROOT / "src").resolve()
    if Path(cli.__file__).resolve().parent.parent != src:
        print(f"dirichlet_flows imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    from workloads import SCRIPTS, WORK_DIR, write_scale_graphs

    graphs = write_scale_graphs(Path(WORK_DIR))
    for path in graphs.values():
        if cli.validate(cli.load_graph(path)):
            print(f"{path}: invalid graph", file=sys.stderr)
            return 2
    script = SCRIPTS[args.workload](args.seed)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    setup_s = time.monotonic() - args.t0
    _emit(out, {"setup_s": setup_s, "import_s": import_s})
    if args.setup_only:
        return 0

    rel_err = 0.0
    first_op = time.perf_counter()
    for op in script:
        exc_type = ""
        if op["kind"] == "cli":
            argv_op = [a.format(**graphs) for a in op["argv"]]
            fn, fn_args = _run_cli, (cli.main, argv_op)
        else:
            fn, fn_args = _reference_op, (op["lam"],)
        if tracer is not None:
            fn = tracer.root(f"{op['kind']}.main", op["id"], fn)
        start = time.perf_counter()
        try:
            result = fn(*fn_args)
        except Exception as exc:  # an uncaught exception is a recorded outcome
            result, exc_type = None, type(exc).__name__
        latency = time.perf_counter() - start
        if exc_type:
            text, verdict = b"", f"EXCEPTION:{exc_type}"
        else:
            text, verdict = result[0], _verdict(result[0], result[1])
            if op["kind"] == "reference":
                rel_err = result[2]
        if latency > op["budget_s"]:
            verdict = "TIMEOUT"
        record = {"op": op["id"], "latency_s": latency, "verdict": verdict,
                  "digest": hashlib.sha256(text).hexdigest()}
        expected = _expected_counts(op["id"])
        if expected is not None and verdict == "PASS":
            res = json.loads(text)["results"]
            record["counts_ok"] = all(res[k]["count"] == v for k, v in expected.items())
        _emit(out, record)

    final = {"wall_s": time.perf_counter() - first_op,
             "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
             "done": True}
    if tracer is not None:
        from tracing import layer_metrics
        layers = layer_metrics(tracer.spans)
        layers["cli.import_s"] = import_s
        layers["integrals.ref_rel_err"] = rel_err
        final["layers"] = layers
        final["spans"] = len(tracer.spans)
    _emit(out, final)
    return 0


if __name__ == "__main__":
    sys.exit(main())
