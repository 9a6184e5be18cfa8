"""Span tracing around icfcluster's module boundaries, installed from outside.

The program has no tracing of its own, so the benchmark wraps the public
functions at each module boundary for the length of one traced operation and
restores the originals afterwards.  A function is usually reachable under
several names (``icfcluster.icf.icf_factorize`` is also bound in
``icfcluster.cli``, ``icfcluster.cluster``, ``icfcluster.evaluate`` and the
package itself), so every binding of the same function object in any loaded
``icfcluster`` module is replaced, and internal calls through module globals
are caught too.

Each wrapper records a span: name, start, end and the index of the span that
was open when it started.  A layer's self time is its spans' durations minus
the time their direct children cover.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field

# (module, function) pairs wrapped in a traced run; the span name is the
# module's last component and the function name
TARGETS = (
    ("icfcluster.cli", "main"),
    ("icfcluster.data", "parse_libsvm"),
    ("icfcluster.data", "to_libsvm"),
    ("icfcluster.data", "gen_synthetic"),
    ("icfcluster.kernel", "kernel_column"),
    ("icfcluster.kernel", "full_gram"),
    ("icfcluster.icf", "icf_factorize"),
    ("icfcluster.icf", "dump_factor"),
    ("icfcluster.icf", "parse_factor_dump"),
    ("icfcluster.cluster", "lloyd"),
    ("icfcluster.cluster", "kmeans_pp_init"),
    ("icfcluster.cluster", "oracle_embedding"),
    ("icfcluster.baselines", "chol_embedding"),
    ("icfcluster.baselines", "nystrom_embedding"),
    ("icfcluster.baselines", "rff_embedding"),
    ("icfcluster.baselines", "_approx_blocks"),
    ("icfcluster.baselines", "_approx_solve"),
    ("icfcluster.evaluate", "run_benchmark"),
    ("icfcluster.evaluate", "_run_cell"),
    ("icfcluster.evaluate", "accuracy"),
)

# span names whose layer is not simply the prefix before the first dot
_LAYER_OVERRIDES = {
    "icf.dump_factor": "icf.dump",
    "icf.parse_factor_dump": "icf.dump",
}

# the benchmark's own root span around one operation; its self time is what
# the benchmark does as the user (such as writing a LIBSVM file)
ROOT = "bench.op"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def layer_of(name: str) -> str:
    return _LAYER_OVERRIDES.get(name, name.split(".", 1)[0])


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread with strict nesting, so a span's children do
    not overlap one another and lie inside it.
    """
    out = [s.seconds for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.seconds
    return out


def describe(result) -> dict:
    """Counts worth keeping from a wrapped function's return value."""
    if isinstance(result, str):
        return {"chars": len(result)}
    if hasattr(result, "kernel_evals") and hasattr(result, "P"):
        n, s = result.P.shape
        return {"n": n, "s": s, "kernel_evals": int(result.kernel_evals)}
    if hasattr(result, "iterations") and hasattr(result, "assignments"):
        k, dim = result.centers.shape
        return {"n": int(result.assignments.size), "k": k, "dim": dim,
                "iterations": int(result.iterations), "converged": bool(result.converged)}
    return {}


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "icfcluster" or name.startswith("icfcluster."))]


class Tracer:
    """Records spans while installed; install() and uninstall() bracket one run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.spans = []
        self._stack = []
        modules = _package_modules()
        for module_name, func_name in TARGETS:
            original = getattr(sys.modules[module_name], func_name)
            wrapper = self._wrap(f"{module_name.rsplit('.', 1)[-1]}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), parent=self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            span.info = describe(result)
            return result
        wrapper.__perfbench_wrapper__ = True
        return wrapper


def installed_wrappers() -> list[str]:
    """Names under which a tracing wrapper is still bound in icfcluster modules."""
    return [f"{module.__name__}.{attr}" for module in _package_modules()
            for attr, value in list(vars(module).items())
            if getattr(value, "__perfbench_wrapper__", False)]


def layer_metrics(spans: list[Span], input_bytes: int) -> dict[str, float]:
    """Per-layer numbers for one traced operation.

    Flop counts follow the paper's cost model: step t of a factorization
    costs a 2 n t flop matvec, n s^2 over s steps; a Lloyd iteration costs
    the 2 n s k flops of its distance block.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def total(name):
        return sum(spans[i].seconds for i in by_name.get(name, ()))

    def self_of(*names):
        return sum(selfs[i] for name in names for i in by_name.get(name, ()))

    def infos(name):
        return [spans[i].info for i in by_name.get(name, ())]

    parse_s = total("data.parse_libsvm")
    to_libsvm_s = total("data.to_libsvm")
    written = sum(info.get("chars", 0) for info in infos("data.to_libsvm"))

    factorize_s = total("icf.icf_factorize")
    factors = infos("icf.icf_factorize")
    rank = sum(f["s"] for f in factors)
    evals = sum(f["kernel_evals"] for f in factors)
    evals_bound = sum(f["n"] * (f["s"] + 1) for f in factors)
    icf_flops = sum(f["n"] * f["s"] ** 2 for f in factors)

    lloyd_s = total("cluster.lloyd")
    init_s = total("cluster.kmeans_pp_init")
    models = infos("cluster.lloyd")
    iterations = sum(m["iterations"] for m in models)
    lloyd_flops = sum(2 * m["n"] * m["dim"] * m["k"] * m["iterations"] for m in models)
    iter_s = lloyd_s - init_s

    return {
        "cli.self_s": self_of("cli.main"),
        "data.parse_libsvm_s": parse_s,
        "data.parse_mb_per_s": input_bytes / 1e6 / parse_s if parse_s > 0 else 0.0,
        "data.to_libsvm_s": to_libsvm_s,
        "data.write_mb_per_s": written / 1e6 / to_libsvm_s if to_libsvm_s > 0 else 0.0,
        "kernel.column_calls": len(by_name.get("kernel.kernel_column", ())),
        "kernel.column_s": total("kernel.kernel_column"),
        "icf.factorize_s": factorize_s,
        "icf.self_s": self_of("icf.icf_factorize"),
        "icf.step_ms": factorize_s / rank * 1e3 if rank else 0.0,
        "icf.rank": rank,
        "icf.kernel_evals": evals,
        "icf.evals_bound_ratio": evals / evals_bound if evals_bound else 0.0,
        "icf.gflop_per_s": icf_flops / factorize_s / 1e9 if factorize_s > 0 else 0.0,
        "icf.dump_s": total("icf.dump_factor"),
        "icf.dump_mb": sum(info.get("chars", 0) for info in infos("icf.dump_factor")) / 1e6,
        "icf.parse_dump_s": total("icf.parse_factor_dump"),
        "cluster.lloyd_s": lloyd_s,
        "cluster.init_s": init_s,
        "cluster.iter_ms": iter_s / iterations * 1e3 if iterations else 0.0,
        "cluster.iterations": iterations,
        "cluster.converged": sum(m["converged"] for m in models),
        "cluster.gflop_per_s": lloyd_flops / iter_s / 1e9 if iter_s > 0 and iterations else 0.0,
        "cluster.oracle_embedding_s": total("cluster.oracle_embedding"),
        "baselines.chol_embedding_s": total("baselines.chol_embedding"),
        "baselines.nystrom_embedding_s": total("baselines.nystrom_embedding"),
        "baselines.rff_embedding_s": total("baselines.rff_embedding"),
        "baselines.approx_s": total("baselines._approx_blocks") + total("baselines._approx_solve"),
        "evaluate.cells": len(by_name.get("evaluate._run_cell", ())),
        "evaluate.harness_s": self_of("evaluate.run_benchmark", "evaluate._run_cell", "evaluate.accuracy"),
    }


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed by layer, including the benchmark's own root span."""
    out: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        layer = layer_of(span.name)
        out[layer] = out.get(layer, 0.0) + own
    return out
