"""Spans around the package's layers, recorded from outside the package.

Each public function is wrapped at the module attribute its callers look it
up by (``ontomap.optimizer.hill_climb`` for ``optimize``, ``ontomap.cli.
read_model`` for the CLI, ...), so no file of the package changes. Spans are
kept in memory and written out when the run ends. Per-call hot paths
(``_total``, ``_kl_columns_raw``) are not wrapped: their counts are derived
from the iterations ``hill_climb`` returns and from the oracle's grid size.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

# span name -> the (module, attribute) sites callers look the function up by
SITES = {
    "cli.main": [("ontomap.cli", "main")],
    "model.read_model": [("ontomap.cli", "read_model"), ("ontomap.model", "read_model")],
    "model.validate_model": [("ontomap.model", "validate_model"), ("ontomap.objective", "validate_model")],
    "divergence.kl_columns": [("ontomap.objective", "kl_columns")],
    "objective.evaluate": [
        ("ontomap.cli", "evaluate"),
        ("ontomap.optimizer", "evaluate"),
        ("ontomap.objective", "evaluate"),
    ],
    "optimizer.optimize": [("ontomap.cli", "optimize"), ("ontomap.optimizer", "optimize")],
    "optimizer.hill_climb": [("ontomap.optimizer", "hill_climb")],
    "oracle.oracle_search": [("ontomap.oracle", "oracle_search")],
    "oracle.grid_step_variation": [("ontomap.oracle", "grid_step_variation")],
    "utility.translate": [("ontomap.cli", "translate"), ("ontomap.utility", "translate")],
}

CLI_COMMANDS = ("validate", "objective", "translate", "corridor", "map", "oracle")
WIDE_LABELS = ("p16x32", "p16x64", "p32x64")
# Metrics that depend on the state count, reported once more per
# random-wide size pair.
SPLIT = (
    ("optimizer.restart_s", "s"),
    ("optimizer.iters_per_s", "1/s"),
    ("objective.evaluate_us", "us"),
    ("objective.evals_per_s", "1/s"),
    ("divergence.kl_columns_us", "us"),
    ("model.read_model_ms", "ms"),
    ("model.validate_model_ms", "ms"),
    ("model.read_mb_per_s", "MB/s"),
    ("utility.translate_us", "us"),
)
METRICS = (
    [
        ("optimizer.restart_s", "s"),
        ("optimizer.iters_per_restart", "count"),
        ("optimizer.iters_per_s", "1/s"),
        ("optimizer.restarts_at_max_iters", "count"),
        ("objective.evaluate_us", "us"),
        ("objective.evaluate_calls", "count"),
        ("objective.evals_per_s", "1/s"),
        ("divergence.kl_columns_us", "us"),
        ("divergence.kl_columns_calls", "count"),
        ("oracle.search_s", "s"),
        ("oracle.grid_points", "count"),
        ("oracle.points_per_s", "1/s"),
        ("oracle.step_variation_ms", "ms"),
        ("model.read_model_ms", "ms"),
        ("model.validate_model_ms", "ms"),
        ("model.read_mb_per_s", "MB/s"),
        ("utility.translate_us", "us"),
    ]
    + [(f"cli.main_ms.{c}", "ms") for c in CLI_COMMANDS]
    + [(f"{name}.{label}", unit) for label in WIDE_LABELS for name, unit in SPLIT]
    + [("trace.op_ms_p50", "ms"), ("trace.calibration_ms", "ms")]
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


def _attrs(name: str, args: tuple, kwargs: dict, result) -> dict:
    """Counts recorded at the boundary, from arguments and results."""
    if name == "optimizer.hill_climb":
        return {"iters": result[2], "max_iters": args[3].max_iters}
    if name == "model.read_model" and isinstance(args[0], (bytes, str)):
        return {"bytes": len(args[0])}
    if name == "oracle.oracle_search":
        steps = round(1.0 / kwargs.get("resolution", 0.05))
        n0, n1 = args[0].n, args[1].n
        return {"grid_points": comb(steps + n0 - 1, n0 - 1) ** n1 * comb(steps + n1 - 1, n1 - 1) ** n0}
    return {}


class Tracer:
    """Wraps every site in SITES while active; records one span per call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = f"{name}.{args[0][0]}" if name == "cli.main" else name
            idx = len(self.spans)
            self.spans.append(Span(span_name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op))
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx].start, self.spans[idx].end = start, end
            self.spans[idx].attrs = _attrs(name, args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        for name, sites in SITES.items():
            wrappers = {}
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(name, fn)
                self._saved.append((module, attr, fn))
                setattr(module, attr, wrappers[id(fn)])
        return self

    def __exit__(self, *exc):
        self.op = None
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def self_times(self) -> list[float]:
        own = [s.dur for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.dur
        return own

    def write(self, path: Path) -> None:
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                    "parent": s.parent, "op": s.op, **s.attrs}) + "\n")


def _layer_metrics(timed: list[tuple[Span, float, float]], n_ops: int) -> dict:
    """Metrics from (span, duration, self time) triples of ``n_ops`` operations."""
    by = {}
    for x in timed:
        by.setdefault(x[0].name, []).append(x)

    def mean_dur(name, scale):
        got = by.get(name, [])
        return scale * statistics.fmean(d for _, d, _ in got) if got else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    # A call that raised has no counts; it is timed but not counted.
    climbs = [x for x in by.get("optimizer.hill_climb", []) if x[0].attrs]
    iters = sum(s.attrs["iters"] for s, _, _ in climbs)
    climb_self = sum(t for _, _, t in climbs)
    evals = iters + len(climbs)
    searches = [x for x in by.get("oracle.oracle_search", []) if x[0].attrs]
    points = sum(s.attrs["grid_points"] for s, _, _ in searches)
    reads = by.get("model.read_model", [])
    m = {
        "optimizer.restart_s": mean_dur("optimizer.hill_climb", 1.0),
        "optimizer.iters_per_restart": ratio(iters, len(climbs)),
        "optimizer.iters_per_s": ratio(iters, climb_self),
        "optimizer.restarts_at_max_iters": ratio(
            sum(s.attrs["iters"] == s.attrs["max_iters"] for s, _, _ in climbs), n_ops),
        "objective.evaluate_us": mean_dur("objective.evaluate", 1e6),
        "objective.evaluate_calls": ratio(evals + len(by.get("objective.evaluate", [])), n_ops),
        "objective.evals_per_s": ratio(evals, climb_self),
        "divergence.kl_columns_us": mean_dur("divergence.kl_columns", 1e6),
        "divergence.kl_columns_calls": ratio(len(by.get("divergence.kl_columns", [])), n_ops),
        "oracle.search_s": ratio(sum(d for _, d, _ in searches), len(searches)),
        "oracle.grid_points": ratio(points, len(searches)),
        "oracle.points_per_s": ratio(points, sum(t for _, _, t in searches)),
        "oracle.step_variation_ms": mean_dur("oracle.grid_step_variation", 1e3),
        "model.read_model_ms": mean_dur("model.read_model", 1e3),
        "model.validate_model_ms": mean_dur("model.validate_model", 1e3),
        "model.read_mb_per_s": ratio(sum(s.attrs.get("bytes", 0) for s, _, _ in reads) / 1e6,
                                     sum(d for _, d, _ in reads)),
        "utility.translate_us": mean_dur("utility.translate", 1e6),
    }
    for c in CLI_COMMANDS:
        got = by.get(f"cli.main.{c}", [])
        m[f"cli.main_ms.{c}"] = 1e3 * statistics.fmean(t for _, _, t in got) if got else 0.0
    return m


def layer_metrics(tracer: Tracer, op_labels: dict[int, str], factors: dict[int, float],
                  op_ms_p50: float, calibration_ms: float) -> dict:
    """Per-layer metrics of the timed operations, as {name: {value, unit}}.

    ``op_labels`` maps each timed operation id to its label; random-wide
    labels name the size pair the split metrics are reported for. Span
    times are scaled by their operation's calibration factor.
    """
    own = tracer.self_times()
    timed = [(s, s.dur * factors[s.op], t * factors[s.op])
             for s, t in zip(tracer.spans, own) if s.op in op_labels]
    values = _layer_metrics(timed, len(op_labels))
    for label in WIDE_LABELS:
        ids = {i for i, lab in op_labels.items() if lab == label}
        sub = _layer_metrics([x for x in timed if x[0].op in ids], len(ids))
        for name, _ in SPLIT:
            values[f"{name}.{label}"] = sub[name]
    values["trace.op_ms_p50"] = op_ms_p50
    values["trace.calibration_ms"] = calibration_ms
    units = dict(METRICS)
    return {name: {"value": values[name], "unit": units[name]} for name, _ in METRICS}
