"""Per-layer spans recorded from outside the package.

``Tracer.installed()`` swaps timing wrappers in for the public functions each
layer exposes, in every ``opentrend`` module that holds a reference to them,
and puts the originals back on exit; nothing under ``src/`` changes.  Spans
live in memory.  A span's self time is its duration minus the part of its
interval that its child spans cover; children on two pool threads may
overlap, so the covered part is the length of the union of their intervals.

Pool threads start with an empty span stack, so their spans take the open
root span (the traced ``cmd_run``) as parent.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

#: percentile ladder for the tail, in percent, highest last
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10

#: wrapped function -> span name; the preset is appended for learners
_TARGETS = (
    ("opentrend.ohlc", "parse_csv", "ohlc.parse"),
    ("opentrend.indicators", "channel_arrays", "indicators.channel"),
    ("opentrend.features", "assemble", "features.assemble"),
    ("opentrend.features", "select", "features.select"),
    ("opentrend.labeling", "make_labels", "labeling.make_labels"),
    ("opentrend.dataset", "bind", "dataset.bind_split"),
    ("opentrend.dataset", "split", "dataset.bind_split"),
    ("opentrend.dataset", "rolling_predict", "dataset.rolling_predict"),
    ("opentrend.learners.base", "fit", "learners.fit"),
    ("opentrend.learners.base", "predict", "learners.predict"),
    ("opentrend.metrics", "confusion", "metrics.confusion"),
    ("opentrend.explain", "global_importance", "explain.attribution"),
    ("opentrend.explain", "background_sample", "explain.attribution"),
    ("opentrend.explain", "row_subsample", "explain.attribution"),
    ("opentrend.report", "results_csv", "report.render"),
    ("opentrend.report", "results_json", "report.render"),
    ("opentrend.report", "shap_csv", "report.render"),
    # the run layer exposes no per-cell function; its cell bodies are the boundary
    ("opentrend.run", "_evaluate_cell", "run.cell"),
    ("opentrend.run", "_shapley_cell", "run.shap_cell"),
)

#: span name -> the per-layer metric its self time adds to
_SELF_METRIC = {
    "ohlc.parse": "ohlc.parse_s",
    "indicators.channel": "indicators.channel_s",
    "features.assemble": "features.assemble_s",
    "features.select": "features.select_s",
    "labeling.make_labels": "labeling.make_labels_s",
    "dataset.bind_split": "dataset.bind_split_s",
    "dataset.rolling_predict": "dataset.rolling_predict.self_s",
    "metrics.confusion": "metrics.confusion_s",
    "explain.attribution": "explain.self_s",
    "explain.score": "explain.score_s",
    "report.render": "report.render_s",
    "run.cmd_run": "run.self_s",
    "run.cell": "run.self_s",
    "run.shap_cell": "run.self_s",
}


#: presets the workloads fit; each gets its own learners.* metrics
PRESETS = ("dt", "gnb", "knn", "logreg", "xgb")

#: every per-layer metric a traced run reports: (name, unit, better)
PER_LAYER = tuple(
    (f"learners.{kind}.{p}", unit, "lower")
    for p in PRESETS
    for kind, unit in (
        ("fit_s", "s"), ("fit_calls", "count"), ("model_nodes", "count"),
        ("predict_s", "s"), ("predict_calls", "count"),
    )
) + (
    ("dataset.rolling_predict.self_s", "s", "lower"),
    ("dataset.bind_split_s", "s", "lower"),
    ("run.cell_s.p50", "s", "lower"),
    ("run.cell_s.tail", "s", "lower"),
    ("run.cell_busy_s", "s", "lower"),
    ("run.parallel_eff", "ratio", "higher"),
    ("run.self_s", "s", "lower"),
    ("explain.attribution_s", "s", "lower"),
    ("explain.score_s", "s", "lower"),
    ("explain.self_s", "s", "lower"),
    ("explain.score_calls", "count", "lower"),
    ("explain.score_rows", "count", "lower"),
    ("ohlc.parse_s", "s", "lower"),
    ("indicators.channel_s", "s", "lower"),
    ("features.assemble_s", "s", "lower"),
    ("features.select_s", "s", "lower"),
    ("labeling.make_labels_s", "s", "lower"),
    ("metrics.confusion_s", "s", "lower"),
    ("report.render_s", "s", "lower"),
    ("config.load_s", "s", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "rows", "nodes")

    def __init__(self, name: str, parent: int | None) -> None:
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.rows = 0
        self.nodes = 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._root: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else self._root)
        self.spans.append(span)
        stack.append(len(self.spans) - 1)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()

    @contextmanager
    def root(self, name: str = "run.cmd_run"):
        """The span every other span descends from, on whichever thread."""
        span = self._open(name)
        self._root = len(self.spans) - 1
        try:
            yield span
        finally:
            self._close(span)
            self._root = None

    def _in_explain(self) -> bool:
        stack = self._stack()
        return bool(stack) and self.spans[stack[-1]].name == "explain.attribution"

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, fn, name_of, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name_of(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(span, args, result)
            return result

        return traced

    def _wrap_score(self, score):
        """TrainedModel.score, recorded only when explain calls it."""
        traced = self._wrap(score, lambda args: "explain.score", _count_rows)

        @functools.wraps(score)
        def dispatch(model, X):
            return (traced if self._in_explain() else score)(model, X)

        return dispatch

    @contextmanager
    def installed(self):
        from opentrend.learners import PRESET_NAMES, TrainedModel, preset

        presets = {_spec_key(preset(name)): name for name in PRESET_NAMES}

        def preset_of(spec) -> str:
            return presets.get(_spec_key(spec), "other")

        namers = {
            "learners.fit": lambda args: "learners.fit." + preset_of(args[0]),
            "learners.predict": lambda args: "learners.predict." + preset_of(args[0].spec),
        }
        try:
            for module_name, attr, span_name in _TARGETS:
                original = getattr(sys.modules[module_name], attr)
                name_of = namers.get(span_name, lambda args, n=span_name: n)
                after = _count_nodes if span_name == "learners.fit" else None
                self._replace(original, self._wrap(original, name_of, after))
            self._patches.append((TrainedModel, "score", TrainedModel.__dict__["score"]))
            TrainedModel.score = self._wrap_score(TrainedModel.score)
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def _replace(self, original, wrapper) -> None:
        """Point every opentrend module's reference to ``original`` at ``wrapper``."""
        for name, module in list(sys.modules.items()):
            if name != "opentrend" and not name.startswith("opentrend."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    # -- results ---------------------------------------------------------------

    def layer_metrics(self, workers: int) -> dict[str, float]:
        """Per-layer times and counts of one traced cmd_run."""
        spans = self.spans
        selfs = self_times([(s.start, s.end, s.parent) for s in spans])
        out: dict[str, float] = defaultdict(float)
        cells = []
        for span, own in zip(spans, selfs):
            name = span.name
            if name.startswith("learners."):
                _, kind, preset_name = name.split(".", 2)
                out[f"learners.{kind}_s.{preset_name}"] += own
                out[f"learners.{kind}_calls.{preset_name}"] += 1
                if kind == "fit":
                    out[f"learners.model_nodes.{preset_name}"] += span.nodes
                continue
            out[_SELF_METRIC[name]] += own
            if name == "explain.attribution":
                out["explain.attribution_s"] += span.end - span.start
            elif name == "explain.score":
                out["explain.score_calls"] += 1
                out["explain.score_rows"] += span.rows
            elif name == "run.cell":
                cells.append((span.start, span.end))
        busy = sum(end - start for start, end in cells)
        out["run.cell_busy_s"] = busy
        out["run.parallel_eff"] = parallel_efficiency(cells, workers)
        return dict(out)

    def self_time_total(self) -> float:
        """Sum of the self-time metrics; equals the root span on one thread."""
        layer = self.layer_metrics(workers=1)
        return sum(
            value
            for name, value in layer.items()
            if name in _SELF_METRIC.values() or name.startswith(("learners.fit_s.", "learners.predict_s."))
        )

    def cell_durations(self) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == "run.cell"]

    def root_duration(self) -> float:
        top = [s for s in self.spans if s.parent is None]
        return sum(s.end - s.start for s in top)


def _spec_key(spec) -> tuple:
    return (spec.family, tuple(sorted(dict(spec.hyperparams).items())), spec.standardize)


def _count_rows(span: Span, args, result) -> None:
    span.rows = len(args[1])


def _count_nodes(span: Span, args, result) -> None:
    span.nodes = model_nodes(result)


def model_nodes(model) -> int:
    """Tree nodes in a fitted model (0 for models that are not trees)."""
    state = model.state
    trees = getattr(state, "trees", None)
    if trees is None:
        tree = getattr(state, "tree", None)
        trees = [] if tree is None else [tree]
    return sum(len(t.feature) for t in trees)


# ---------------------------------------------------------------------------
# arithmetic (tested in test_tracing.py)
# ---------------------------------------------------------------------------


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Self time of each (start, end, parent_index) span."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [
        (end - start) - covered_length(children.get(i, ()), start, end)
        for i, (start, end, _) in enumerate(spans)
    ]


def parallel_efficiency(cells, workers: int) -> float:
    """Busy cell time over workers x the wall time from first start to last end."""
    if not cells:
        return 0.0
    wall = max(end for _, end in cells) - min(start for start, _ in cells)
    busy = sum(end - start for start, end in cells)
    return busy / (workers * wall) if wall > 0 else 0.0


def nearest_rank(sorted_values, percent: float) -> tuple[int, float]:
    """(1-based rank, value) of a percentile by the nearest-rank rule."""
    rank = max(1, math.ceil(Fraction(str(percent)) / 100 * len(sorted_values)))
    return rank, sorted_values[rank - 1]


def tail(values, ladder=TAIL_LADDER, min_beyond: int = TAIL_MIN_BEYOND) -> tuple[float, float, bool]:
    """(percent, value, qualified) of the highest percentile with min_beyond samples above its rank.

    With too few samples for any rung, the median (the first rung) is
    returned with ``qualified`` false.
    """
    ordered = sorted(values)
    best = None
    for percent in ladder:
        rank, value = nearest_rank(ordered, percent)
        if len(ordered) - rank >= min_beyond:
            best = (percent, value, True)
    if best is None:
        percent = ladder[0]
        best = (percent, nearest_rank(ordered, percent)[1], False)
    return best
