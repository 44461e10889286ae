"""Per-layer trace of in-process ``cli.main`` calls, recorded from outside the package.

``Tracer.installed()`` replaces the module-level functions listed in
``TARGETS`` (in every ``groupoidlab`` module that imported them), the
``SymbolSpec.evaluate`` method and, through ``load_config``, the chart's
``product`` / ``product_solver`` callables with wrappers that record a span:
name, parent, start, end and counts.  Leaving the context restores the
originals.  Spans stay in memory; ``Tracer.write`` dumps them as JSON lines.

A span's self time is its duration minus the durations of its child spans.
Every ``_s`` metric below is a sum of self times, so the metrics of a pass
add up to the traced wall time (``trace.coverage``).  Calls are assumed to
come from one thread: every item runs at ``workers`` = 1.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import json
import math
import os
import sys
import time
from pathlib import Path

# (module, attribute, span name); the span name's prefix is the layer.
TARGETS = (
    ("config", "load_config", "config.load"),
    ("charts", "validate_axioms", "charts.validate"),
    ("algebroid", "extract_algebroid", "algebroid.extract"),
    ("symbols", "eval_symbol", "symbols.eval"),
    ("poisson", "_convolve_values", "poisson.convolve"),
    ("poisson", "fourier_transform", "poisson.fourier"),
    ("poisson", "inverse_fourier", "poisson.fourier"),
    ("poisson", "poisson_bracket", "poisson.bracket"),
    ("deformation", "deformed_product", "deformation.product"),
    ("deformation", "solve_product", "deformation.solve"),
    ("deformation", "haar_density", "deformation.haar"),
    ("normfield", "power_iteration_sigma", "normfield.power"),
    ("normfield", "group_regular_norm", "normfield.assembly"),
    ("normfield", "_interp_scatter", "normfield.assembly"),
    ("normfield", "_pair_weighted_matrix", "normfield.kernel"),
    ("normfield", "zero_fiber_norm", "normfield.zero"),
    ("reports", "write_json", "reports.write"),
    ("reports", "write_csv", "reports.write"),
)

# span name -> the metric that sums its self times
TIME_METRICS = {
    "cli.main": "cli.self_s",
    "config.load": "config.load_s",
    "charts.validate": "charts.validate_s",
    "charts.solver": "charts.solver_s",
    "charts.product": "charts.product_s",
    "expressions.eval": "expressions.eval_s",
    "algebroid.extract": "algebroid.extract_s",
    "symbols.eval": "symbols.eval_s",
    "poisson.convolve": "poisson.convolve_s",
    "poisson.fourier": "poisson.fourier_s",
    "poisson.bracket": "poisson.bracket_self_s",
    "deformation.product": "deformation.product_self_s",
    "deformation.solve": "deformation.solve_s",
    "deformation.haar": "deformation.haar_s",
    "normfield.power": "normfield.power_s",
    "normfield.assembly": "normfield.assembly_s",
    "normfield.kernel": "normfield.kernel_s",
    "normfield.zero": "normfield.zero_s",
    "reports.write": "reports.write_s",
}

COUNT_METRICS = (
    "charts.solver_points",
    "charts.product_points",
    "charts.contract_points",
    "symbols.eval_points",
    "poisson.convolve_calls",
    "poisson.convolve_macs",
    "poisson.fourier_calls",
    "deformation.solve_calls",
    "deformation.solve_points",
    "normfield.power_iterations",
    "reports.bytes",
)


def _batch(*arrays) -> int:
    import numpy as np

    shape = np.broadcast_shapes(*(np.shape(a)[:-1] for a in arrays))
    return math.prod(shape)


def _counts(name: str, args, result) -> dict:
    if name == "deformation.solve":
        return {"deformation.solve_calls": 1, "deformation.solve_points": _batch(*args[1:4])}
    if name == "charts.solver":
        return {"charts.solver_points": _batch(*args[:3])}
    if name in ("charts.product", "expressions.eval") and len(args) == 3:
        return {"charts.product_points": _batch(*args)}
    if name == "symbols.eval" and len(args) == 3:  # SymbolSpec.evaluate(self, base, fiber)
        return {"symbols.eval_points": _batch(args[1], args[2])}
    if name == "poisson.convolve":
        fv, grid = args[0], args[2]
        return {"poisson.convolve_calls": 1, "poisson.convolve_macs": math.prod(grid.fiber_shape) * fv.size}
    if name == "poisson.fourier":
        return {"poisson.fourier_calls": 1}
    if name == "normfield.power":
        return {"normfield.power_iterations": int(result[2])}
    if name == "reports.write":
        return {"reports.bytes": os.path.getsize(args[0])}
    return {}


def _closed_form(args) -> dict:
    return {"closed_form": args[0].product_solver is not None}


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def span(self, name: str, fn, attrs_of=None, **attrs):
        """Wrap ``fn`` so that each call records a span called ``name``.

        ``attrs_of(args)`` adds attributes that depend on the call.
        """
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = {"id": len(spans), "name": name, "parent": parent and parent["id"], "child_s": 0.0, **attrs}
            if attrs_of is not None:
                span.update(attrs_of(args))
            spans.append(span)
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span["counts"] = _counts(name, args, result)
                return result
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent["child_s"] += span["end"] - span["start"]
                    # a product evaluated inside a closed-form solve re-checks the solver's contract
                    span["contract"] = name == "charts.product" and parent.get("closed_form", False)

        return wrapper

    def _wrap_chart(self, chart):
        product_span = "expressions.eval" if chart.params.get("spec") == "custom" else "charts.product"
        changes = {"product": self.span(product_span, chart.product)}
        if product_span == "expressions.eval":
            changes["source_map"] = self.span("expressions.eval", chart.source_map)
        if chart.product_solver is not None:
            changes["product_solver"] = self.span("charts.solver", chart.product_solver)
        return dataclasses.replace(chart, **changes)

    @contextlib.contextmanager
    def installed(self):
        """Patch the package for the duration of the context."""
        from groupoidlab.symbols import SymbolSpec

        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "groupoidlab"]
        saved = []
        for module_name, attr, span_name in TARGETS:
            original = getattr(importlib.import_module(f"groupoidlab.{module_name}"), attr)
            if span_name == "deformation.solve":
                wrapped = self.span(span_name, original, _closed_form)
            elif span_name == "config.load":
                wrapped = self._load_wrapper(original)
            else:
                wrapped = self.span(span_name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    saved.append((module, attr, original))
                    setattr(module, attr, wrapped)
        evaluate = SymbolSpec.evaluate
        SymbolSpec.evaluate = self.span("symbols.eval", evaluate)
        try:
            yield self
        finally:
            SymbolSpec.evaluate = evaluate
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _load_wrapper(self, fn):
        load = self.span("config.load", fn)

        def wrapper(*args, **kwargs):
            config = load(*args, **kwargs)
            return dataclasses.replace(config, chart=self._wrap_chart(config.chart))

        return wrapper

    def root(self, item: str, fn, pass_no: int):
        """Wrap one item's ``cli.main`` call as the root span of its tree."""
        return self.span("cli.main", fn, item=item, pass_no=pass_no)

    def metrics(self, first: int, last: int, wall_s: float) -> dict:
        """Per-layer metrics of the spans ``first:last`` (one traced pass)."""
        times = dict.fromkeys(TIME_METRICS.values(), 0.0)
        counts = dict.fromkeys(COUNT_METRICS, 0)
        total_self = 0.0
        for span in self.spans[first:last]:
            self_s = span["end"] - span["start"] - span["child_s"]
            total_self += self_s
            times[TIME_METRICS[span["name"]]] += self_s
            span_counts = span.get("counts", {})
            for key, value in span_counts.items():
                counts[key] += value
            if span.get("contract"):
                counts["charts.contract_points"] += span_counts.get("charts.product_points", 0)
        out = {**times, **counts}
        solver = counts["charts.solver_points"]
        out["charts.contract_ratio"] = counts["charts.contract_points"] / solver if solver else 0.0
        out["trace.coverage"] = total_self / wall_s if wall_s > 0 else 0.0
        return out

    def write(self, path: Path, first: int = 0):
        """Dump the spans from index ``first`` on as JSON lines."""
        with Path(path).open("w", encoding="utf-8") as handle:
            for span in self.spans[first:]:
                handle.write(json.dumps(span, sort_keys=True) + "\n")
