"""Deterministic result files: CSV, JSON, the reliability table, and SVG charts.

Every emitted file embeds a provenance line (tool, version, seed, config
hash) so a result can always be traced to the exact configuration that
produced it.  All numeric formatting is fixed, so re-running a configuration
yields byte-identical files.

``results.csv`` has one column per ``EvalRecord`` field, in field order;
``#`` comment lines may come only before its header, so a record whose
market starts with ``#`` is still a record.  It is read back only as written:
a cell the writer would not write (``True``, ``nan``, ``0.8``) is refused.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from typing import get_type_hints

import numpy as np

from opentrend import __version__
from opentrend.explain import ShapleyReport
from opentrend.labeling import ALL_TASKS
from opentrend.metrics import EvalRecord

#: plain-language reading of each task's question
TASK_IMPLICATIONS = {task.value: f"open(t+1) > {task.reference_field}(t)" for task in ALL_TASKS}


@dataclass(frozen=True)
class Provenance:
    seed: int
    config_hash: str
    tool: str = "opentrend"
    version: str = __version__

    @property
    def comment(self) -> str:
        return f"# provenance: tool={self.tool} version={self.version} seed={self.seed} config={self.config_hash}"

    @classmethod
    def from_comment(cls, line: str) -> "Provenance":
        """The provenance a ``comment`` line records; a line ``comment`` would not write back unchanged is refused."""
        parts = dict(item.partition("=")[::2] for item in line.removeprefix("# provenance:").split())
        provenance = cls(
            seed=int(parts.get("seed", "0")),
            config_hash=parts.get("config", ""),
            tool=parts.get("tool", ""),
            version=parts.get("version", ""),
        )
        if provenance.comment != line:
            raise ValueError(f"{line!r} is not a provenance line opentrend writes")
        return provenance


def _metric(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite metric {x!r}")
    return f"{x:.6f}"


# ---------------------------------------------------------------------------
# results.csv / results.json
# ---------------------------------------------------------------------------

#: results.csv cells are written and read by their field's type, not their value's (an int accuracy is 1.000000)
_CODECS = {
    str: (str, str),
    int: (str, int),
    float: (_metric, float),
    bool: (lambda v: "true" if v else "false", lambda text: text == "true"),
}
#: the columns are EvalRecord's fields, in field order: the one place the file's layout is decided
_COLUMNS = {f.name: _CODECS[get_type_hints(EvalRecord)[f.name]] for f in fields(EvalRecord)}
RESULTS_HEADER = ",".join(_COLUMNS)


def results_csv(records: list[EvalRecord], provenance: Provenance) -> str:
    lines = [provenance.comment, RESULTS_HEADER]
    for r in records:
        lines.append(",".join(render(getattr(r, name)) for name, (render, _) in _COLUMNS.items()))
    return "\n".join(lines) + "\n"


def parse_results_csv(text: str) -> tuple[list[EvalRecord], Provenance]:
    """Read a results.csv back: ``#`` comment lines, the header, then one record per non-blank line."""
    provenance = Provenance(seed=0, config_hash="")
    lines = ((lineno, line.strip()) for lineno, line in enumerate(text.splitlines(), start=1))
    for lineno, line in lines:
        if line.startswith("#"):
            if "provenance:" in line:
                provenance = _at_line(lineno, Provenance.from_comment, line)
        elif line:
            if line != RESULTS_HEADER:
                raise ValueError(f"line {lineno}: expected header {RESULTS_HEADER!r}, got {line!r}")
            break
    else:
        raise ValueError("no results header found")
    records = [_at_line(lineno, _record, line) for lineno, line in lines if line]  # the lines after the header
    return records, provenance


def _at_line(lineno: int, read, line: str):
    """read(line), with a ValueError it raises prefixed by the line number."""
    try:
        return read(line)
    except ValueError as err:
        raise ValueError(f"line {lineno}: {err}") from None


def _record(line: str) -> EvalRecord:
    """One record line; a cell is accepted only if its column's codec writes the value it reads as the same text."""
    parts = line.split(",")
    if len(parts) != len(_COLUMNS):
        raise ValueError(f"expected {len(_COLUMNS)} fields, got {len(parts)}")
    values = {}
    for (name, (render, parse)), cell in zip(_COLUMNS.items(), parts):
        try:
            values[name] = parse(cell)
            if render(values[name]) != cell:
                raise ValueError(f"{cell!r} is not a cell results_csv writes")
        except ValueError as err:
            raise ValueError(f"{err} (column {name!r})") from None
    return EvalRecord(**values)


def results_json(
    records: list[EvalRecord],
    shapley: dict[tuple[str, str], ShapleyReport],
    shap_model: str,
    errors: list[tuple[str, str]],
    provenance: Provenance,
    config_text: str,
) -> str:
    blob = {
        "provenance": {**asdict(provenance), "config": config_text},
        "records": [asdict(r) for r in records],
        "shapley": {
            f"{market}/{task}": {
                "model": shap_model,
                "mode": rep.mode,
                "background_size": rep.background_size,
                "n_rows": len(rep.rows),
                "features": list(rep.feature_names),
                "global_importance": [float(v) for v in rep.global_importance],
            }
            for (market, task), rep in sorted(shapley.items())
        },
        "errors": [{"cell": cell, "message": message} for cell, message in errors],
    }
    return json.dumps(blob, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# shap CSV
# ---------------------------------------------------------------------------


def shap_csv(report: ShapleyReport, provenance: Provenance) -> str:
    lines = [provenance.comment, "feature,importance"]
    for name, value in zip(report.feature_names, report.global_importance):
        lines.append(f"{name},{float(value)!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# reliability table (which market/task pairs have an effective cell)
# ---------------------------------------------------------------------------


def table3_text(
    records: list[EvalRecord],
    acc_threshold: float,
    mcc_threshold: float,
    provenance: Provenance,
) -> str:
    """Per (market, task): does any classifier/feature-set cell clear each bar?

    ``acc_ok`` / ``mcc_ok`` report the per-metric bars on their own;
    ``effective`` requires one single cell to clear both at once.
    """
    pairs = sorted({(r.market, r.task) for r in records})
    lines = [
        provenance.comment,
        f"# thresholds: accuracy>={_metric(acc_threshold)} mcc>={_metric(mcc_threshold)}",
        "market,task,implication,acc_ok,mcc_ok,effective",
    ]
    for market, task in pairs:
        cell = [r for r in records if r.market == market and r.task == task]
        acc_ok = any(r.accuracy >= acc_threshold for r in cell)
        mcc_ok = any(r.mcc >= mcc_threshold for r in cell)
        eff = any(r.accuracy >= acc_threshold and r.mcc >= mcc_threshold for r in cell)
        implication = TASK_IMPLICATIONS.get(task, "")
        lines.append(
            f"{market},{task},{implication},"
            f"{'yes' if acc_ok else 'no'},{'yes' if mcc_ok else 'no'},{'yes' if eff else 'no'}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SVG charts
# ---------------------------------------------------------------------------

_R_MIN = 3.0
_R_MAX = 18.0
_CELL = 46.0
_LEFT = 130.0
_TOP = 60.0
_LIGHT = (222, 235, 247)
_DARK = (8, 48, 107)


def _norm(metric: str, value: float) -> float:
    x = value if metric == "accuracy" else (value + 1.0) / 2.0
    return min(max(x, 0.0), 1.0)


def _color(t: float) -> str:
    rgb = tuple(round(l + (d - l) * t) for l, d in zip(_LIGHT, _DARK))
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _svg_open(width: float, height: float, provenance: Provenance) -> list[str]:
    """The lines every chart opens with: the <svg> tag, the provenance comment and a white background."""
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f"<!-- {_esc(provenance.comment.lstrip('# '))} -->",
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]


def bubble_chart_svg(
    records: list[EvalRecord],
    market: str,
    task: str,
    metric: str,
    provenance: Provenance,
) -> str:
    """Classifier x feature-set bubble grid; radius and darkness grow with the metric."""
    if metric not in ("accuracy", "mcc"):
        raise ValueError(f"unknown chart metric {metric!r}")
    cell = [r for r in records if r.market == market and r.task == task]
    xs = sorted({r.classifier for r in cell})
    ys = sorted({r.feature_set for r in cell})
    by_key = {(r.classifier, r.feature_set): r for r in cell}
    width = _LEFT + _CELL * len(xs) + 40.0
    height = _TOP + _CELL * len(ys) + 110.0
    parts = [
        *_svg_open(width, height, provenance),
        f'<text x="{_LEFT:.1f}" y="24" font-family="sans-serif" font-size="15" font-weight="bold">'
        f"{_esc(market)} / {_esc(task)} — {metric}</text>",
    ]
    for i, name in enumerate(xs):
        x = _LEFT + _CELL * (i + 0.5)
        parts.append(
            f'<text x="{x:.1f}" y="{_TOP - 10:.1f}" font-family="sans-serif" font-size="11" '
            f'text-anchor="middle">{_esc(name)}</text>'
        )
    for j, name in enumerate(ys):
        y = _TOP + _CELL * (j + 0.5)
        parts.append(
            f'<text x="{_LEFT - 8:.1f}" y="{y + 4:.1f}" font-family="sans-serif" font-size="11" '
            f'text-anchor="end">{_esc(name)}</text>'
        )
    for j, fs in enumerate(ys):
        for i, clf in enumerate(xs):
            record = by_key.get((clf, fs))
            if record is None:
                continue  # empty grid position stays blank
            value = record.accuracy if metric == "accuracy" else record.mcc
            t = _norm(metric, value)
            radius = _R_MIN + (_R_MAX - _R_MIN) * t
            x = _LEFT + _CELL * (i + 0.5)
            y = _TOP + _CELL * (j + 0.5)
            parts.append(
                f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{radius:.2f}" fill="{_color(t)}" '
                f'stroke="#333" stroke-width="0.5"><title>{_esc(clf)} / {_esc(fs)}: '
                f"{value:.6f}</title></circle>"
            )
    legend_y = _TOP + _CELL * len(ys) + 40.0
    lo_label = "0.0" if metric == "accuracy" else "-1.0"
    hi_label = "1.0"
    parts.append(
        f'<text x="{_LEFT:.1f}" y="{legend_y - 14:.1f}" font-family="sans-serif" font-size="11">'
        f"{metric}: radius and darkness grow from {lo_label} to {hi_label}</text>"
    )
    for idx, t in enumerate((0.0, 0.5, 1.0)):
        radius = _R_MIN + (_R_MAX - _R_MIN) * t
        x = _LEFT + 30.0 + 70.0 * idx
        label = lo_label if idx == 0 else ("0.5" if metric == "accuracy" else "0.0") if idx == 1 else hi_label
        parts.append(
            f'<circle cx="{x:.1f}" cy="{legend_y + 10:.1f}" r="{radius:.2f}" fill="{_color(t)}" '
            f'stroke="#333" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{legend_y + 42:.1f}" font-family="sans-serif" font-size="10" '
            f'text-anchor="middle">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def shap_bar_svg(report: ShapleyReport, title: str, provenance: Provenance) -> str:
    """Horizontal bar chart of mean |phi| per feature, largest on top."""
    order = sorted(range(len(report.feature_names)), key=lambda j: (-report.global_importance[j], j))
    peak = float(max(np.max(report.global_importance), 1e-12))
    bar_h = 18.0
    width = 560.0
    height = 70.0 + bar_h * 1.4 * len(order)
    parts = [
        *_svg_open(width, height, provenance),
        f'<text x="20" y="26" font-family="sans-serif" font-size="14" font-weight="bold">'
        f"{_esc(title)} — mean |phi| ({_esc(report.mode)}, background {report.background_size})</text>",
    ]
    for row, j in enumerate(order):
        value = float(report.global_importance[j])
        y = 50.0 + bar_h * 1.4 * row
        bar = 360.0 * value / peak
        parts.append(
            f'<text x="110" y="{y + bar_h - 5:.1f}" font-family="sans-serif" font-size="11" '
            f'text-anchor="end">{_esc(report.feature_names[j])}</text>'
        )
        parts.append(
            f'<rect x="120" y="{y:.1f}" width="{bar:.2f}" height="{bar_h:.0f}" fill="{_color(0.75)}"/>'
        )
        parts.append(
            f'<text x="{126 + bar:.1f}" y="{y + bar_h - 5:.1f}" font-family="sans-serif" '
            f'font-size="10">{value:.6g}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
