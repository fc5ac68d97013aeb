"""Outside-in layer tracer for the daqc benchmark.

The tracer replaces the public functions of each daqc layer with timing
wrappers, from outside the package: nothing under ``src/`` knows about it.
A function is patched in every ``daqc`` namespace that holds it, because a
caller that did ``from .blocks import build_sign_matrix`` looks the name up in
its own module, not in the defining one.  Each call records one span (name,
start, end, parent span, trial id) plus counts taken from its arguments and
return value.  Spans stay in memory; the benchmark writes them out once, at
the end of a run.

``daqc.pauli`` is not wrapped: its methods run thousands of times per trial,
so wrapping them would distort the timings; their cost shows up as self time
of the callers.
"""

import functools
import importlib
import json
import sys
import time
import types
from dataclasses import dataclass, field

#: wrapped public functions, by the layer (module of ``daqc``) defining them
LAYERS = {
    "harness": ("run_trial", "generate_problem", "write_records"),
    "blocks": ("generate_candidate_patterns", "build_sign_matrix"),
    "lp": ("solve",),
    "schedule": ("synthesize", "error_vector", "effective_couplings"),
    "bounds": ("sample_defect", "evaluate_bounds"),
    "dense": (
        "build_dense",
        "operator_norm",
        "frobenius_norm",
        "commutator_norm",
        "replay_unitary",
        "evolution_unitary",
        "expectation_deviation",
    ),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

#: per-call counts read off the arguments, also of calls that raise
ARG_COUNTERS = {
    "lp.solve": lambda args: {"lp.rows": args[0].n_rows, "lp.cols": args[0].n_cols},
}

#: per-call counts read off the return value
RESULT_COUNTERS = {
    "blocks.generate_candidate_patterns": lambda out: {"blocks.patterns_offered": len(out)},
    "blocks.build_sign_matrix": lambda out: {"blocks.sign_entries": out.entries.size},
    "lp.solve": lambda out: {"lp.optimal": int(out.is_optimal)},
    "schedule.synthesize": lambda out: {"schedule.blocks_kept": out.n_blocks},
    "dense.build_dense": lambda out: {"dense.matrix_bytes": out.matrix.nbytes},
}


@dataclass(slots=True)
class Span:
    name: str
    trial: int | None
    parent: int | None
    start: int = 0
    end: int = 0
    raised: bool = False
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans while installed; ``with tracer:`` installs and restores.

    ``trial`` is set by the caller before each trial and tagged onto every
    span opened until it changes.  Spans accumulate across installs.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.trial: int | None = None
        self._open: list[int] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.restore()

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer, fns in LAYERS.items():
            module = importlib.import_module(f"daqc.{layer}")
            for fn in fns:
                original = getattr(module, fn)
                wrappers[original] = self._wrap(f"{layer}.{fn}", original)
        for module in _daqc_modules():
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn):
        arg_counter = ARG_COUNTERS.get(name)
        result_counter = RESULT_COUNTERS.get(name)
        spans, open_stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.trial, open_stack[-1] if open_stack else None)
            if arg_counter is not None:
                span.counts = arg_counter(args)
            open_stack.append(len(spans))
            spans.append(span)
            returned = False
            span.start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                returned = True
            finally:
                span.end = time.perf_counter_ns()
                span.raised = not returned
                open_stack.pop()
            if result_counter is not None:
                span.counts.update(result_counter(out))
            return out

        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span.name,
                    "trial": span.trial,
                    "parent": span.parent,
                    "start_ns": span.start,
                    "end_ns": span.end,
                    "raised": span.raised,
                    "counts": span.counts,
                }) + "\n")


def _daqc_modules():
    return [m for name, m in list(sys.modules.items()) if name == "daqc" or name.startswith("daqc.")]


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for span, intervals in zip(spans, children):
        covered = 0
        reach = span.start
        for start, end in sorted(intervals):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric ``layer_metrics`` reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update({
        "blocks.patterns_offered": "count",
        "blocks.sign_entries": "count",
        "lp.rows_mean": "rows",
        "lp.cols_mean": "cols",
        "lp.optimal_frac": "frac",
        "lp.raised": "count",
        "schedule.blocks_kept": "count",
        "dense.matrix_bytes": "bytes",
    })
    return units


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-layer figures for one pass, averaged over ``passes`` traced passes.

    ``calls``, ``busy_s`` (total span time) and ``self_s`` are given for every
    wrapped function, zero where it was not called.  Counts are totals per
    pass; the LP shape is a mean over solves.
    """
    selfs = self_times(spans)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    busy = dict.fromkeys(SPAN_NAMES, 0)
    own = dict.fromkeys(SPAN_NAMES, 0)
    counts: dict[str, int] = {}
    lp_raised = 0
    for span, self_ns in zip(spans, selfs):
        calls[span.name] += 1
        busy[span.name] += span.end - span.start
        own[span.name] += self_ns
        for key, value in span.counts.items():
            counts[key] = counts.get(key, 0) + value
        if span.raised and span.name == "lp.solve":
            lp_raised += 1
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name] / passes
        metrics[f"{name}.busy_s"] = busy[name] / 1e9 / passes
        metrics[f"{name}.self_s"] = own[name] / 1e9 / passes
    solves = calls["lp.solve"]
    metrics.update({
        "blocks.patterns_offered": counts.get("blocks.patterns_offered", 0) / passes,
        "blocks.sign_entries": counts.get("blocks.sign_entries", 0) / passes,
        "lp.rows_mean": counts.get("lp.rows", 0) / solves if solves else 0.0,
        "lp.cols_mean": counts.get("lp.cols", 0) / solves if solves else 0.0,
        "lp.optimal_frac": counts.get("lp.optimal", 0) / solves if solves else 0.0,
        "lp.raised": lp_raised / passes,
        "schedule.blocks_kept": counts.get("schedule.blocks_kept", 0) / passes,
        "dense.matrix_bytes": counts.get("dense.matrix_bytes", 0) / passes,
    })
    return metrics
