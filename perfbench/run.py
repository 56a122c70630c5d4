"""Benchmark runner for the dirichlet-flows verification CLI.

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 25 --trace 0

Workloads are ``algebra``, ``sampling`` and ``quadrature`` (see
``workloads.py``), or ``all`` to run the three in turn.  Each pass runs in a
fresh interpreter (``worker.py``) with the BLAS thread pools pinned to one
thread, replaying the workload's seeded op script from one caller in a
closed loop, with no warm-up op.  Passes repeat until ``--seconds`` have
elapsed, and every pass must give the same report bytes for every op.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced pass, the
untraced pass it is compared with, and the tracing overhead between them.
The lines before it list every op with its verdict, latency and report
digest.  The exit status is 0 when a result was printed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import SCRIPTS, WORK_DIR  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5          # setup_s is the median of this many fresh interpreters
RUN_DEADLINE_S = 165.0     # one workload's run, so that it ends within 180 s
SETUP_BUDGET_S = 60.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "slowest_op_s": "s",
    "peak_rss_mb": "MB",
    "ops_completed_share": "ratio",
}

# verdicts of ops that ran and produced a well-formed, deterministic report
COMPLETED = ("PASS", "FAIL")


class SetupFailed(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _spawn(workload: str, seed: int, timeout: float, trace=False, setup_only=False):
    """Run worker.py once; returns (records, killed, seconds since t0)."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--t0", repr(t0)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    killed = False
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        killed = True
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    elapsed = time.monotonic() - t0
    records = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    if not records or "setup_s" not in records[0]:
        raise SetupFailed(f"worker exited with {proc.returncode} before the first op:\n{err}")
    return records, killed, elapsed


def run_pass(workload: str, seed: int, timeout: float, trace=False) -> dict:
    """One fresh-interpreter pass; ops that never reported are timeouts or crashes."""
    records, killed, elapsed = _spawn(workload, seed, timeout, trace=trace)
    ops = {r["op"]: r for r in records if "op" in r}
    final = next((r for r in records if r.get("done")), None)
    for op in SCRIPTS[workload](seed):
        if op["id"] not in ops:
            ops[op["id"]] = {"op": op["id"], "latency_s": None, "digest": "",
                             "verdict": "TIMEOUT" if killed else "CRASH"}
    # a killed worker's pass lasted from its first op until it was stopped
    wall = final["wall_s"] if final else elapsed - records[0]["setup_s"]
    return {"setup_s": records[0]["setup_s"], "wall_s": wall, "ops": ops, "final": final}


def _median(values):
    return statistics.median(values) if values else 0.0


def _check(passes: list[dict]) -> tuple[int, int, int, bool, list[str]]:
    """(attempted, failed, passed, correct, problems) over the passes of one workload.

    An op fails when it does not end in a well-formed report (error report,
    uncaught exception, crash, timeout) or when its report bytes differ
    between passes.  A FAIL verdict is a completed op: it is the program's
    answer, listed per op and counted in the layer metric
    cli.ops_failed_share.  ``correct`` is false when an op gave no report,
    when reports differ between passes, or when an enumeration of a scale
    graph has the wrong size; a timeout alone leaves it true.
    """
    problems = []
    attempted = failed = passed = 0
    correct = True
    for op_id in passes[0]["ops"]:
        recs = [p["ops"][op_id] for p in passes]
        same = len({(r["digest"], r["verdict"]) for r in recs}) == 1
        if not same:
            problems.append(f"{op_id}: report differs between passes")
            correct = False
        for r in recs:
            attempted += 1
            if r["verdict"] in COMPLETED and same:
                passed += r["verdict"] == "PASS"
            else:
                failed += 1
                problems.append(f"{op_id}: {r['verdict']}")
                correct = correct and r["verdict"] in COMPLETED + ("TIMEOUT",)
            if r.get("counts_ok") is False:
                problems.append(f"{op_id}: enumeration sizes differ from the known counts")
                correct = False
    return attempted, failed, passed, correct, problems


def _print_ops(workload: str, passes: list[dict]) -> None:
    for k, p in enumerate(passes):
        print(f"# {workload} pass {k}: setup {p['setup_s']:.3f} s, wall {p['wall_s']:.3f} s")
        for r in p["ops"].values():
            lat = "-" if r["latency_s"] is None else f"{r['latency_s']:.4f}"
            print(f"  {r['op']:<44} {r['verdict']:<24} {lat:>9} s  {r['digest'][:16]}")


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    budget = sum(op["budget_s"] for op in SCRIPTS[workload](seed)) + SETUP_BUDGET_S
    passes = []
    start = time.monotonic()
    while True:
        remaining = deadline - time.monotonic()
        passes.append(run_pass(workload, seed, min(budget, remaining)))
        elapsed = time.monotonic() - start
        last = elapsed / len(passes)
        if elapsed >= seconds or time.monotonic() + last > deadline:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES and time.monotonic() + SETUP_BUDGET_S < deadline:
        records, _, _ = _spawn(workload, seed, SETUP_BUDGET_S, setup_only=True)
        setups.append(records[0]["setup_s"])

    attempted, failed, passed, correct, problems = _check(passes)
    # Printed, not a metric: on algebra and sampling the median op is a
    # 5-20 ms call whose latency jumps by up to 40% between fresh
    # interpreters, wider than any bound the benchmark may set.
    op_p50 = _median([r["latency_s"] for p in passes for r in p["ops"].values()
                      if r["latency_s"] is not None])
    slowest = [max(p["ops"].values(), key=lambda r: r["latency_s"] or 0.0) for p in passes]
    metrics = {
        "setup_s": _median(setups),
        "wall_s": _median([p["wall_s"] for p in passes]),
        "slowest_op_s": _median([r["latency_s"] or 0.0 for r in slowest]),
        "peak_rss_mb": _median([p["final"]["peak_rss_mb"] for p in passes if p["final"]]),
        "ops_completed_share": (attempted - failed) / attempted,
    }
    _print_ops(workload, passes)
    print(f"# {workload}: {attempted} ops in {len(passes)} passes, {failed} failed, "
          f"{attempted - failed - passed} FAIL verdicts, "
          f"ops_failed_share {(attempted - passed) / attempted:.4f}; "
          f"median op latency {op_p50:.4f} s over {len(passes[0]['ops'])} ops a pass; "
          f"slowest op {', '.join(sorted({r['op'] for r in slowest}))}; "
          f"setup samples {len(setups)}")
    for p in problems:
        print(f"# problem: {p}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}}


def measure_traced(workload: str, seed: int, deadline: float) -> dict:
    """An untraced and a traced pass at the same seed; layer metrics from the traced one."""
    budget = sum(op["budget_s"] for op in SCRIPTS[workload](seed)) + SETUP_BUDGET_S
    plain = run_pass(workload, seed, min(budget, (deadline - time.monotonic()) / 2))
    traced = run_pass(workload, seed, min(budget, deadline - time.monotonic()), trace=True)
    attempted, failed, _, correct, problems = _check([plain, traced])
    _print_ops(workload, [plain, traced])
    for p in problems:
        print(f"# problem: {p}")
    layers = dict(traced["final"]["layers"]) if traced["final"] else {}
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    verdicts = [r["verdict"] for r in traced["ops"].values()]
    layers["cli.ops_failed_share"] = sum(v != "PASS" for v in verdicts) / len(verdicts)
    print(f"# {workload}: traced wall {traced['wall_s']:.3f} s, untraced wall {plain['wall_s']:.3f} s, "
          f"tracing overhead {layers['trace.overhead_s']:.3f} s over "
          f"{traced['final']['spans'] if traced['final'] else 0} spans")
    units = _layer_units()
    missing = sorted(set(units) - set(layers))
    if missing:
        print(f"# problem: layer metrics not measured: {missing}")
    return {"correct": correct and not missing, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": layers.get(k, 0.0), "unit": u} for k, u in units.items()}}


def _layer_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SCRIPTS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated runner still stops and waits for its worker (see _spawn)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if not (ROOT / "src" / "dirichlet_flows" / "cli.py").is_file():
        print(f"no dirichlet_flows sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    workloads = sorted(SCRIPTS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for w in workloads:
            deadline = time.monotonic() + RUN_DEADLINE_S
            if args.trace:
                results[w] = measure_traced(w, args.seed, deadline)
            else:
                results[w] = measure(w, args.seed, args.seconds, deadline)
            for name, m in results[w]["metrics"].items():
                print(f"{w:<11} {name:<40} {m['value']:>14.6g} {m['unit']}")
    except SetupFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ROOT / WORK_DIR, ignore_errors=True)
    if len(results) == 1:
        out = results[workloads[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}.{k}": m for w, r in results.items()
                           for k, m in r["metrics"].items()}}
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
