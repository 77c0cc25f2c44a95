"""Spans around the calls into each layer, recorded from outside the
program.

install() replaces public functions with wrappers under the names their
callers look up (``kernels.neumaier_sum`` on the backend module,
``lfun.integrate_finite``, ``polya.completed_lambda_zeta``, the sampler's
``CriticalLineFn.__call__``, ...), so the program itself is unchanged.
Each wrapped call appends one span (name, parent, start, end, counts);
counts come from arguments, return values and public properties only.
A layer's self time is its spans' durations minus the part covered by
their child spans.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from adelic_zeta import _backend, lfun, numkit, polya, satake, theta

GL_ORDER = numkit._GL_ORDER  # nodes per panel of integrate_finite


def _grid_size(args, kwargs) -> int:
    """Grid points of scan_zeros(F, t_from, t_to, step), as it builds them."""
    t_from, t_to = float(args[1]), float(args[2])
    step = float(args[3] if len(args) > 3 else kwargs.get("step", 0.05))
    return int(math.ceil((t_to - t_from) / step - 1e-12)) + 1


def _quad_counts(_a, _k, out, _pre):
    return {"nodes": out.nodes, "levels": out.refinements}


def _finite_counts(_a, _k, out, _pre):
    return {"nodes": out.nodes, "levels": out.refinements,
            "final_nodes": GL_ORDER * 2 ** out.refinements}


# (owner, attribute, span name, counts(args, kwargs, result, pre), pre(args, kwargs))
def _targets():
    k = _backend.kernels
    return [
        (k, "neumaier_sum", "kernels.neumaier_sum",
         lambda a, kw, out, pre: {"terms": len(a[0])}, None),
        (k, "gauss_poly_lattice_sum", "kernels.lattice_sum",
         lambda a, kw, out, pre: {"terms": out[1]}, None),
        (k, "euler_product", "kernels.euler_product",
         lambda a, kw, out, pre: {"primes": len(a[0])}, None),
        (k, "eta24_coefficients", "kernels.eta24",
         lambda a, kw, out, pre: {"coeffs": a[0]}, None),
        (lfun, "integrate_finite", "numkit.integrate_finite", _finite_counts, None),
        (theta, "integrate_finite", "numkit.integrate_finite", _finite_counts, None),
        (theta, "integrate_halfline", "numkit.integrate_halfline", _quad_counts, None),
        (polya, "gamma", "numkit.gamma", None, None),
        (lfun, "gamma", "numkit.gamma", None, None),
        (lfun, "completed_lambda_zeta", "lfun.completed_lambda", None, None),
        (lfun, "completed_lambda_delta", "lfun.completed_lambda", None, None),
        (polya, "completed_lambda_zeta", "lfun.completed_lambda", None, None),
        (polya, "completed_lambda_delta", "lfun.completed_lambda", None, None),
        (lfun, "zeta_em", "lfun.zeta_em", None, None),
        (lfun, "euler_product_eval", "lfun.euler_product_eval", None, None),
        (lfun, "tau_coefficients", "lfun.tau_coefficients", None, None),
        (theta, "E_eval", "theta.E_eval", None, None),
        (theta, "mellin_E", "theta.mellin_E", None, None),
        (satake, "enumerate_cosets", "satake.enumerate_cosets",
         lambda a, kw, out, pre: {"representatives": len(out.representatives)}, None),
        (satake, "convolve", "satake.convolve", None, None),
        (satake, "satake_transform", "satake.satake_transform", None, None),
        (satake, "satake_truncated_radial", "satake.satake_truncated_radial", None, None),
        (satake, "trace_truncated", "satake.trace_truncated", None, None),
        (polya.CriticalLineFn, "__call__", "polya.sampler",
         lambda a, kw, out, pre: {"hits": int(a[0].cache_size == pre)},
         lambda a, kw: a[0].cache_size),
        (polya, "scan_zeros", "polya.scan",
         lambda a, kw, out, pre: {"grid": _grid_size(a, kw), "zeros": len(out)}, None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent, start, end, counts]
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, owner, attr, name, counts, pre):
        orig = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            state = pre(args, kwargs) if pre else None
            idx = tracer._open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counts:
                tracer.spans[idx][4] = counts(args, kwargs, out, state)
            return out

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def install(self) -> None:
        for target in _targets():
            self._wrap(*target)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


def summarize(spans: list[list], into: dict | None = None) -> dict:
    """Add, per span name, calls, self time and summed counts to ``into``;
    a scan also counts the sampler calls it made directly."""
    out = into if into is not None else defaultdict(lambda: defaultdict(float))
    child_time = defaultdict(float)
    for _name, parent, start, end, _c in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for idx, (name, parent, start, end, counts) in enumerate(spans):
        agg = out[name]
        agg["calls"] += 1
        agg["self_s"] += (end - start) - child_time[idx]
        for key, val in (counts or {}).items():
            agg[key] += val
        if name == "polya.sampler" and parent >= 0 and spans[parent][0] == "polya.scan":
            out["polya.scan"]["samples"] += 1
    return out


def layer_metrics(agg: dict, rounds: int, cli_import_s: list[float],
                  cli_bytes: int, overhead: float) -> dict:
    """The per-layer metrics of BENCHMARK.json, per round of the workload.
    A layer the workload never reaches reads 0."""
    def get(name, key="calls"):
        return agg[name][key] if name in agg and key in agg[name] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    sat = [n for n in agg if n.startswith("satake.")]
    scan_samples = get("polya.scan", "samples")
    grid = get("polya.scan", "grid")
    rows = [
        ("kernels.neumaier_sum.calls", get("kernels.neumaier_sum"), "count"),
        ("kernels.neumaier_sum.terms", get("kernels.neumaier_sum", "terms"), "count"),
        ("kernels.neumaier_sum.self_s", get("kernels.neumaier_sum", "self_s"), "s"),
        ("kernels.lattice_sum.calls", get("kernels.lattice_sum"), "count"),
        ("kernels.lattice_sum.terms", get("kernels.lattice_sum", "terms"), "count"),
        ("kernels.lattice_sum.self_s", get("kernels.lattice_sum", "self_s"), "s"),
        ("kernels.euler_product.primes", get("kernels.euler_product", "primes"), "count"),
        ("kernels.euler_product.self_s", get("kernels.euler_product", "self_s"), "s"),
        ("kernels.eta24.coeffs", get("kernels.eta24", "coeffs"), "count"),
        ("kernels.eta24.self_s", get("kernels.eta24", "self_s"), "s"),
        ("numkit.integrate_finite.calls", get("numkit.integrate_finite"), "count"),
        ("numkit.integrate_finite.nodes", get("numkit.integrate_finite", "nodes"), "count"),
        ("numkit.integrate_finite.levels", get("numkit.integrate_finite", "levels"), "count"),
        ("numkit.integrate_finite.self_s", get("numkit.integrate_finite", "self_s"), "s"),
        ("numkit.integrate_halfline.calls", get("numkit.integrate_halfline"), "count"),
        ("numkit.integrate_halfline.nodes", get("numkit.integrate_halfline", "nodes"), "count"),
        ("numkit.integrate_halfline.levels", get("numkit.integrate_halfline", "levels"), "count"),
        ("numkit.integrate_halfline.self_s", get("numkit.integrate_halfline", "self_s"), "s"),
        ("numkit.gamma.calls", get("numkit.gamma"), "count"),
        ("numkit.gamma.self_s", get("numkit.gamma", "self_s"), "s"),
        ("lfun.completed_lambda.calls", get("lfun.completed_lambda"), "count"),
        ("lfun.completed_lambda.self_s", get("lfun.completed_lambda", "self_s"), "s"),
        ("lfun.zeta_em.self_s", get("lfun.zeta_em", "self_s"), "s"),
        ("lfun.euler_product_eval.self_s", get("lfun.euler_product_eval", "self_s"), "s"),
        ("lfun.tau_coefficients.self_s", get("lfun.tau_coefficients", "self_s"), "s"),
        ("theta.E_eval.calls", get("theta.E_eval"), "count"),
        ("theta.E_eval.self_s", get("theta.E_eval", "self_s"), "s"),
        ("theta.mellin_E.calls", get("theta.mellin_E"), "count"),
        ("theta.mellin_E.self_s", get("theta.mellin_E", "self_s"), "s"),
        ("satake.calls", sum(get(n) for n in sat), "count"),
        ("satake.self_s", sum(get(n, "self_s") for n in sat), "s"),
        ("satake.cosets.representatives",
         get("satake.enumerate_cosets", "representatives"), "count"),
        ("polya.sampler.calls", get("polya.sampler"), "count"),
        ("polya.sampler.self_s", get("polya.sampler", "self_s"), "s"),
        ("polya.scan.grid_evals", grid, "count"),
        ("polya.scan.bisect_evals", scan_samples - grid, "count"),
        ("polya.scan.self_s", get("polya.scan", "self_s"), "s"),
        ("cli.main.self_s", get("cli.main", "self_s"), "s"),
        ("cli.report_bytes", cli_bytes, "bytes"),
    ]
    out = {name: {"value": value / rounds, "unit": unit} for name, value, unit in rows}
    out["numkit.integrate_finite.useful_node_ratio"] = {
        "value": ratio(get("numkit.integrate_finite", "final_nodes"),
                       get("numkit.integrate_finite", "nodes")), "unit": "ratio"}
    out["polya.sampler.cache_hit_ratio"] = {
        "value": ratio(get("polya.sampler", "hits"), get("polya.sampler")), "unit": "ratio"}
    out["polya.scan.evals_per_zero"] = {
        "value": ratio(scan_samples, get("polya.scan", "zeros")), "unit": "ratio"}
    out["cli.import_s"] = {
        "value": statistics.median(cli_import_s) if cli_import_s else 0.0, "unit": "s"}
    out["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    return out
