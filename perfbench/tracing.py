"""Spans around the package's public functions, installed at run time.

Each wrapper is installed on the module that defines the function and on
every package module that imported the name, so calls between modules are
seen too (``connection.genus``, ``integrals.mc_estimate_rhs``).  Nothing in
the package source changes.  Spans are kept in memory and reduced to the
per-layer metrics when the pass ends.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str          # "<module>.<function>"
    start: float
    end: float
    parent: int        # index of the enclosing span, -1 for an op's root
    op: str            # id of the op that caused it
    count: int = 0     # work done, as the function's counter defines it
    error: str = ""    # type of the exception that left the call, if any


def _len_result(args, kwargs, result):
    return len(result)


def _terms(args, kwargs, result):
    return len(result.path_terms) + len(result.cycle_terms)


def _items(args, kwargs, result):
    return len(result["items"])


def _samples(args, kwargs, result):
    return len(args[1]) if len(args) > 1 else len(kwargs["lambda_samples"])


def _steps(args, kwargs, result):
    return sum(len(traj) for traj in result)


def _mc_samples(args, kwargs, result):
    return result.n_samples


def _evals(args, kwargs, result):
    return result.n_evals


def _nfev(args, kwargs, result):
    return int(result.nfev)


# sp_set is left out: it is the per-entry setter under every other sp_* call
# and under connection building, and a span per matrix entry costs more than
# the entry.
_SPARSE = ("sp_scale", "sp_add", "sp_matmul", "sp_commutator", "sp_is_zero",
           "sp_transpose", "sp_max_abs", "sp_to_dense")
_DENSE = ("mat_rank", "mat_solve", "mat_det")
_SINGLE_ENV = ("edge_occupation", "green_function", "survival_determinant", "tree_probability")

# (defining module, function, counter)
WRAPPED = (
    [("graphs", f, None) for f in ("validate", "split_graph", "load_graph")]
    + [("combinatorics", f, _len_result)
       for f in ("enumerate_spanning_trees", "enumerate_cycles", "enumerate_paths")]
    + [("combinatorics", "genus", None), ("combinatorics", "tree_coordinate_map", None)]
    + [("rationals", f, None) for f in _SPARSE + _DENSE]
    + [("connection", "build_connection", _terms),
       ("connection", "connection_coefficients", None),
       ("connection", "check_commutation", _items),
       ("connection", "check_flatness", _samples),
       ("connection", "transport", None)]
    + [("environment", "wilson_sample_trees", _len_result),
       ("environment", "simulate_chains", _steps),
       ("environment", "loop_erase", None),
       ("environment", "mc_estimate_rhs", _mc_samples),
       ("environment", "mc_laplace", _mc_samples),
       ("environment", "sample_environment", None)]
    + [("environment", f, None) for f in _SINGLE_ENV]
    + [("integrals", "integrate_quadrature", _evals),
       ("integrals", "integrate_mc", _evals),
       ("integrals", "cohomology_identity_check", None)]
)
# solve_ivp is scipy's; only the name bound in connection is wrapped.
WRAPPED_FOREIGN = (("connection", "solve_ivp", "connection.ode", _nfev),)

PACKAGE = "dirichlet_flows"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = ""

    def _wrap(self, name: str, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.op)
            spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.count = counter(args, kwargs, result)
            return result

        return wrapper

    def root(self, name: str, op: str, fn):
        """fn wrapped as the root span of an op; later spans carry the op's id."""
        self.op = op
        return self._wrap(name, fn, None)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, fn_name, counter in WRAPPED:
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            original = getattr(home, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, counter)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)
        for mod_name, fn_name, span_name, counter in WRAPPED_FOREIGN:
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            setattr(home, fn_name, self._wrap(span_name, getattr(home, fn_name), counter))


def _group_totals(spans: list[Span], names) -> tuple[float, int, int]:
    """(time, calls, count) over the spans in the group that no group member encloses."""
    names = set(names)
    total, calls, count = 0.0, 0, 0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p >= 0:
            continue
        total += s.end - s.start
        calls += 1
        count += s.count
    return total, calls, count


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-module metrics, each named "<module>.<metric>"."""
    def group(*names):
        return _group_totals(spans, names)

    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    cli_self = sum(s.end - s.start - child_time[i]
                   for i, s in enumerate(spans) if s.name == "cli.main")

    m: dict[str, float] = {"cli.self_s": cli_self}

    enumerations = [s for s in spans if s.name.startswith("combinatorics.enumerate_")]
    m["combinatorics.enumerate_calls"] = len(enumerations)
    m["combinatorics.enumerate_s"] = group("combinatorics.enumerate_spanning_trees",
                                           "combinatorics.enumerate_cycles",
                                           "combinatorics.enumerate_paths")[0]
    m["combinatorics.enumerated_items"] = sum(s.count for s in enumerations)
    genus_s, genus_calls, _ = group("combinatorics.genus")
    m["combinatorics.genus_calls"] = genus_calls
    m["combinatorics.genus_s"] = genus_s
    m["combinatorics.coord_map_s"] = group("combinatorics.tree_coordinate_map")[0]

    sparse_s, sparse_calls, _ = group(*(f"rationals.{f}" for f in _SPARSE))
    m["rationals.sparse_calls"] = sparse_calls
    m["rationals.sparse_s"] = sparse_s
    m["rationals.dense_s"] = group(*(f"rationals.{f}" for f in _DENSE))[0]

    build_s, build_calls, terms = group("connection.build_connection")
    m["connection.build_s"] = build_s
    m["connection.build_calls"] = build_calls
    m["connection.terms"] = terms
    m["connection.coefficients_s"] = group("connection.connection_coefficients")[0]
    comm_s, _, comm_items = group("connection.check_commutation")
    m["connection.commutation_s"] = comm_s
    m["connection.commutation_items"] = comm_items
    flat_s, _, flat_samples = group("connection.check_flatness")
    m["connection.flatness_s"] = flat_s
    m["connection.flatness_samples_per_s"] = _rate(flat_samples, flat_s)
    m["connection.transport_s"] = group("connection.transport")[0]
    m["connection.ode_nfev"] = group("connection.ode")[2]

    wil_s, _, wil_trees = group("environment.wilson_sample_trees")
    m["environment.wilson_s"] = wil_s
    m["environment.wilson_trees_per_s"] = _rate(wil_trees, wil_s)
    chain_s, _, steps = group("environment.simulate_chains")
    m["environment.chain_s"] = chain_s
    m["environment.chain_steps_per_s"] = _rate(steps, chain_s)
    m["environment.loop_erase_s"] = group("environment.loop_erase")[0]
    mc_s, _, envs = group("environment.mc_estimate_rhs", "environment.mc_laplace")
    m["environment.mc_s"] = mc_s
    m["environment.mc_envs_per_s"] = _rate(envs, mc_s)
    m["environment.exact_s"] = group(*(f"environment.{f}" for f in _SINGLE_ENV))[0]
    m["environment.sample_env_s"] = group("environment.sample_environment")[0]

    quad_s, quad_calls, evals = group("integrals.integrate_quadrature")
    m["integrals.quad_calls"] = quad_calls
    m["integrals.quad_s"] = quad_s
    m["integrals.quad_evals"] = evals
    m["integrals.quad_evals_per_s"] = _rate(evals, quad_s)
    m["integrals.quad_nonconverged"] = sum(
        1 for s in spans
        if s.name == "integrals.integrate_quadrature" and s.error == "QuadratureNonConvergence")
    mc_int_s, _, mc_samples = group("integrals.integrate_mc")
    m["integrals.mc_samples"] = mc_samples
    m["integrals.mc_s"] = mc_int_s
    m["integrals.exchange_s"] = group("integrals.cohomology_identity_check")[0]

    m["graphs.s"] = group("graphs.validate", "graphs.split_graph", "graphs.load_graph")[0]
    return m
