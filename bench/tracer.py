"""Span tracing around twoshock's public functions, from outside the package.

A Tracer replaces module attributes with wrappers that record one span per
call: name, start, end, parent span and workload id.  Attributes are wrapped
at the names the package's own modules call them by (``integrate_decaying``
as imported into ``catastrophic`` and ``cumulative``, ``damage_cdf`` as looked
up by ``model2_fptf_mean``, ``montecarlo.simulate_*`` as called by ``cli``),
so nested calls appear as child spans.  Spans stay in memory until the
session writes them out.

``distributions`` and ``gamma_convolution`` are reached only through private
names inside other layers, so their time is part of their callers' self time
here; the layer microcases measure them directly.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import statistics
import threading
import time

# (module, attribute, layer): every binding the traced run wraps.
TARGETS = (
    ("catastrophic", "survival_probability", "catastrophic"),
    ("catastrophic", "fptf_cdf", "catastrophic"),
    ("catastrophic", "mean_fptf", "catastrophic"),
    ("catastrophic", "mean_fptf_quadrature", "catastrophic"),
    ("cumulative", "damage_cdf", "cumulative"),
    ("cumulative", "damage_mean", "cumulative"),
    ("cumulative", "model2_fptf_cdf", "cumulative"),
    ("cumulative", "model2_fptf_mean", "cumulative"),
    ("cumulative", "general_damage_cdf", "cumulative"),
    ("cumulative", "general_damage_mean", "cumulative"),
    ("numerics", "integrate_decaying", "numerics"),
    ("catastrophic", "integrate_decaying", "numerics"),
    ("cumulative", "integrate_decaying", "numerics"),
    ("gamma_convolution", "convolution_cdf", "gamma_convolution"),
    ("montecarlo", "simulate_catastrophic", "montecarlo"),
    ("montecarlo", "simulate_cumulative", "montecarlo"),
    ("montecarlo", "simulate_fptf_cumulative", "montecarlo"),
    ("montecarlo", "simulate_general_cumulative", "montecarlo"),
    ("cli", "main", "cli"),
)

# Layers whose self time the traced run reports.
SELF_TIME_LAYERS = ("catastrophic", "cumulative", "numerics", "montecarlo", "cli")


class Tracer:
    """Records spans of wrapped calls; install() patches, uninstall() restores."""

    def __init__(self, workload_id: str):
        self.workload_id = workload_id
        self.spans = []  # [id, name, layer, start, end, parent]
        self.levels = {}  # (model, level x) -> damage_cdf calls
        self._local = threading.local()
        self._patched = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, layer: str, fn):
        count_levels = name == "cumulative.damage_cdf"
        signature = inspect.signature(fn) if count_levels else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_levels:
                bound = signature.bind(*args, **kwargs)
                key = (bound.arguments["model"], float(bound.arguments["x"]))
                self.levels[key] = self.levels.get(key, 0) + 1
            stack = self._stack()
            span = [len(self.spans), name, layer, 0.0, 0.0, stack[-1] if stack else None]
            self.spans.append(span)
            stack.append(span[0])
            span[3] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()

        return traced

    def install(self, package) -> None:
        for module_name, attr, layer in TARGETS:
            module = getattr(package, module_name)
            original = getattr(module, attr)
            name = f"{getattr(original, '__module__', module_name).split('.')[-1]}.{attr}"
            setattr(module, attr, self._wrap(name, layer, original))
            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _self_seconds(self) -> list:
        """Per span: its duration minus the time its child spans cover."""
        own = [end - start for _, _, _, start, end, _ in self.spans]
        for _, _, _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def self_times(self) -> dict:
        """Self seconds summed per layer."""
        totals = dict.fromkeys(SELF_TIME_LAYERS, 0.0)
        for span, own in zip(self.spans, self._self_seconds()):
            totals[span[2]] = totals.get(span[2], 0.0) + own
        return totals

    def cli_self_ms(self) -> float:
        """Median self time of one cli.main call, in ms (0 when cli was not called)."""
        own = [seconds * 1e3 for span, seconds in zip(self.spans, self._self_seconds())
               if span[1] == "cli.main"]
        return float(statistics.median(own)) if own else 0.0

    def calls_per_level(self) -> float:
        """Median damage_cdf calls per distinct (model, level); 0 when never called."""
        if not self.levels:
            return 0.0
        return float(statistics.median(self.levels.values()))

    def write(self, path: str) -> None:
        """Spans as gzip-compressed JSON lines (a traced run makes ~10^5 of them)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, name, _, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "workload": self.workload_id}) + "\n")
