"""Instrumentation from outside the program.

ordshift's public functions are swapped, at every ordshift module attribute
that refers to them, for wrappers: a fit log that records each fit attempt
and ladder (every run), and a tracer that records timed spans (traced runs).
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# Public functions timed by the traced run, as "module.function".
TRACED = (
    "cli.main",
    "data.load_csv",
    "formula.parse_formula",
    "report.render_report",
    "svgplot.render_star_svg",
    "svgplot.render_smooth_svg",
    "inference.model_ladder",
    "inference.smooth_term_tests",
    "inference.wald_table",
    "inference.star_data",
    "design.expand_design",
    "design.build_design_tensor",
    "splines.knot_sequence",
    "splines.bspline_basis",
    "fit.fit",
    "links.category_probs",
)
FIT = "fit.fit"
LADDER = "inference.model_ladder"
PROBS = "links.category_probs"


def _original(qualname: str):
    module, name = qualname.split(".")
    return getattr(sys.modules[f"ordshift.{module}"], name)


def _sites(fn) -> list:
    """(module, attribute) pairs of every ordshift module that refers to fn."""
    modules = [m for name, m in sys.modules.items() if name == "ordshift" or name.startswith("ordshift.")]
    return [(m, attr) for m in modules for attr, value in vars(m).items() if value is fn]


class FitLog:
    """Every fit attempt (spec, data, result or None if it raised) and every
    ladder table of the current operation."""

    def __init__(self):
        self.fits = []
        self.ladders = []
        self._fit_signature = inspect.signature(_original(FIT))

    def reset(self):
        self.fits, self.ladders = [], []

    def wrap_fit(self, inner):
        signature, log = self._fit_signature, self

        def fit(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            entry = [bound.arguments["spec"], bound.arguments["data"], None]
            log.fits.append(entry)
            entry[2] = inner(*args, **kwargs)
            return entry[2]

        return fit

    def wrap_ladder(self, inner):
        log = self

        def model_ladder(*args, **kwargs):
            table = inner(*args, **kwargs)
            log.ladders.append(table)
            return table

        return model_ladder


class Tracer:
    """Spans (op, name, start, end, parent index) of the traced operations."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []

    def wrap(self, name: str, inner):
        spans, stack, tracer = self.spans, self._stack, self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (tracer.op, name, start, end, parent)

        return traced

    def summarize(self) -> dict:
        """Per traced op: self seconds and calls per span name, calls by
        (parent name, name), and the seconds covered by top-level spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for op, name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        ops = defaultdict(lambda: {"self": defaultdict(float), "calls": defaultdict(int),
                                   "under": defaultdict(int), "covered": 0.0})
        for i, (op, name, start, end, parent) in enumerate(spans):
            rec = ops[op]
            rec["self"][name] += end - start - child[i]
            rec["calls"][name] += 1
            if parent >= 0:
                rec["under"][(spans[parent][1], name)] += 1
            else:
                rec["covered"] += end - start
        return ops

    def write(self, path) -> None:
        origin = self.spans[0][2] if self.spans else 0.0
        rows = [
            {"op": op, "name": name, "start": start - origin, "end": end - origin, "parent": parent}
            for op, name, start, end, parent in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)


class Instrument:
    """Swaps the wrappers in for one operation; ``with instrument(traced):``."""

    def __init__(self, log: FitLog, tracer: Tracer | None):
        originals = {name: _original(name) for name in TRACED}
        modes = {False: {}, True: {}}
        if tracer is not None:
            modes[True] = {name: tracer.wrap(name, fn) for name, fn in originals.items()}
        for wrappers in modes.values():
            wrappers[FIT] = log.wrap_fit(wrappers.get(FIT, originals[FIT]))
            wrappers[LADDER] = log.wrap_ladder(wrappers.get(LADDER, originals[LADDER]))
        self._changes = {
            traced: [(module, attr, originals[name], wrapper)
                     for name, wrapper in wrappers.items()
                     for module, attr in _sites(originals[name])]
            for traced, wrappers in modes.items()
        }
        self._active = None

    def __call__(self, traced: bool):
        self._active = self._changes[traced]
        return self

    def __enter__(self):
        for module, attr, _, wrapper in self._active:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original, _ in self._active:
            setattr(module, attr, original)
        return False


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
