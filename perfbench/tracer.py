"""Per-layer tracing from outside the package.

The tracer replaces the package's public functions, at every module attribute
that holds them, with wrappers that record a span per call and count work.
Nothing under ``src/`` is edited: ``restore()`` puts every original object
back. A span's self time is its duration minus the durations of its direct
children, so the self times of one traced pass sum to at most its wall time.
"""
from __future__ import annotations

import functools
import importlib
import time
import types
from collections import Counter
from typing import Callable, Optional

import numpy as np

MODULES = ("lapbounds", "lapbounds.bounds", "lapbounds.cli",
           "lapbounds.families", "lapbounds.graphs", "lapbounds.majorization",
           "lapbounds.spectra")

# (defining module, function name, span name)
TRACED = (
    ("lapbounds.families", "generate", "families.generate"),
    ("lapbounds.families", "gnp_connected", "families.generate"),
    ("lapbounds.families", "random_tree", "families.generate"),
    ("lapbounds.graphs", "classify", "graphs.classify"),
    ("lapbounds.graphs", "complement", "graphs.complement"),
    ("lapbounds.spectra", "laplacian", "spectra.laplacian"),
    ("lapbounds.spectra", "jacobi_eigenvalues", "spectra.jacobi"),
    ("lapbounds.spectra", "spectrum", "spectra.spectrum"),
    ("lapbounds.spectra", "spanning_trees_exact", "spectra.bareiss"),
    ("lapbounds.bounds", "evaluate_catalog", "bounds.catalog"),
    ("lapbounds.majorization", "check_grone", "majorization.grone"),
    ("lapbounds.majorization", "check_grone_merris", "majorization.grone"),
    ("lapbounds.cli", "_rows_to_csv", "cli.serialize"),
)

Hook = Callable[["Tracer", tuple, object], None]


def _count_trivial(tracer: "Tracer", args: tuple, result: object) -> None:
    if not np.any(args[0]):
        tracer.counts["spectra.jacobi_trivial_calls"] += 1


def _count_rows(tracer: "Tracer", args: tuple, result: object) -> None:
    tracer.counts["bounds.rows"] += len(result)


def _count_gnp_graph(tracer: "Tracer", args: tuple, result: object) -> None:
    tracer.counts["families.gnp_graphs"] += 1


def _count_gnp_draw(tracer: "Tracer", args: tuple, result: object) -> None:
    if tracer.active["gnp_connected"]:
        tracer.counts["families.gnp_draws"] += 1


HOOKS: dict[str, Hook] = {
    "jacobi_eigenvalues": _count_trivial,
    "evaluate_catalog": _count_rows,
    "gnp_connected": _count_gnp_graph,
}


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.active: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, original: Callable, key: str, span: Optional[str],
              hook: Optional[Hook]) -> Callable:
        tracer = self
        spans, stack, active = self.spans, self._stack, self.active
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            active[key] += 1
            if span is None:
                try:
                    result = original(*args, **kwargs)
                finally:
                    active[key] -= 1
            else:
                index = len(spans)
                record = [span, 0.0, 0.0, stack[-1] if stack else -1]
                spans.append(record)
                stack.append(index)
                record[1] = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    record[2] = clock()
                    stack.pop()
                    active[key] -= 1
                tracer.counts[span + "_calls"] += 1
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def _replace(self, owner: object, attr: str, new: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every traced function at every package attribute naming it."""
        modules = [importlib.import_module(name) for name in MODULES]
        targets = {}
        for module_name, func_name, span in TRACED:
            original = getattr(importlib.import_module(module_name), func_name)
            targets[id(original)] = self._wrap(original, func_name, span,
                                               HOOKS.get(func_name))
        build_graph = importlib.import_module("lapbounds.graphs").build_graph
        draw_counter = self._wrap(build_graph, "build_graph", None,
                                  _count_gnp_draw)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in targets:
                    self._replace(module, attr, targets[id(value)])
        # only draws made inside gnp_connected are counted
        self._replace(importlib.import_module("lapbounds.families"),
                      "build_graph", draw_counter)
        cli = importlib.import_module("lapbounds.cli")
        json_proxy = types.SimpleNamespace(**vars(cli.json))
        json_proxy.dumps = self._wrap(cli.json.dumps, "dumps",
                                      "cli.serialize", None)
        self._replace(cli, "json", json_proxy)

    def restore(self) -> None:
        """Put back every replaced attribute, last replacement first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, child spans subtracted."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, parent), inner in zip(self.spans, child):
            out[name] += (end - start) - inner
        return dict(out)

    def top_level_seconds(self) -> float:
        """Summed duration of spans that no other span encloses."""
        return sum(end - start for name, start, end, parent in self.spans
                   if parent < 0)
