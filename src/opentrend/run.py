"""The full evaluation grid: markets x tasks x feature sets x classifiers.

Cells are independent, each fitted with a seed derived from (run seed, cell
key), and results are ordered by the configured grid key order, so a run is
byte-identical wherever and however often it is repeated.  A failed cell is
recorded and skipped — one bad fit must not sink the run.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, fields
from pathlib import Path

from opentrend.config import RunConfig, safe_name
from opentrend.dataset import EvalMode, bind, rolling_predict, split
from opentrend.explain import ShapleyReport, background_sample, global_importance, row_subsample
from opentrend.features import FeatureMatrix, FeatureSetMask, assemble, select
from opentrend.indicators import IndicatorParams
from opentrend.labeling import ALL_TASKS, TaskKind, make_labels
from opentrend.learners import REPORT_LABELS, fit, preset
from opentrend.metrics import EvalRecord, confusion
from opentrend.ohlc import OhlcSeries, parse_csv
from opentrend.report import Provenance, results_csv, results_json, shap_csv


@dataclass(frozen=True, eq=False)
class RunOutcome:
    records: list[EvalRecord]
    shapley: dict[tuple[str, str], ShapleyReport]
    errors: list[tuple[str, str]]
    provenance: Provenance
    written: list[str]


@dataclass(frozen=True, eq=False)
class _MarketData:
    """Per-market intermediates shared by all of its cells."""

    market: str
    matrices: dict[str, FeatureMatrix]
    labels: dict[str, object]


def cell_seed(run_seed: int, *key: str) -> int:
    """Stable per-cell seed: hash of the run seed and the cell's grid key."""
    digest = hashlib.sha256("|".join((str(run_seed),) + key).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _prepare_market(market: str, series: OhlcSeries, config: RunConfig) -> _MarketData:
    params = IndicatorParams(**{f.name: getattr(config, f.name) for f in fields(IndicatorParams)})
    full = assemble(series, params)
    first_index = len(series) - full.n_rows  # rows run to the final bar
    names = dict.fromkeys((*config.feature_sets, config.shap_feature_set))  # each distinct set once, in order
    matrices = {name: select(full, FeatureSetMask.from_name(name)) for name in names}
    labels = {
        code: make_labels(series, TaskKind.from_code(code), first_index) for code in config.tasks
    }
    return _MarketData(market=market, matrices=matrices, labels=labels)


def _evaluate_cell(data: _MarketData, task: str, feature_set: str, classifier: str, config: RunConfig) -> EvalRecord:
    ds = bind(data.matrices[feature_set], data.labels[task], data.market)
    sp = split(ds, config.split_ratio)
    mode = EvalMode(kind=config.eval_mode, refit_every=config.refit_every, freeze_window=config.freeze_window)
    spec = preset(classifier, seed=cell_seed(config.seed, data.market, task, feature_set, classifier))
    predictions = rolling_predict(ds, sp, spec, mode)
    cm = confusion(ds.labels[sp.n_train :], predictions)
    return EvalRecord.from_confusion(
        cm,
        market=data.market,
        task=task,
        feature_set=feature_set,
        classifier=REPORT_LABELS[classifier],
        n_train=sp.n_train,
        acc_threshold=config.acc_threshold,
        mcc_threshold=config.mcc_threshold,
    )


def _shapley_cell(data: _MarketData, task: str, config: RunConfig) -> ShapleyReport:
    ds = bind(data.matrices[config.shap_feature_set], data.labels[task], data.market)
    sp = split(ds, config.split_ratio)
    seed = cell_seed(config.seed, data.market, task, "shap", config.shap_model)
    spec = preset(config.shap_model, seed=seed)
    model = fit(spec, ds.matrix.values[: sp.n_train], ds.labels[: sp.n_train], feature_names=ds.matrix.columns)
    background = background_sample(ds.matrix.values[: sp.n_train], config.shap_background, seed=seed)
    test_rows = ds.matrix.values[sp.n_train :]
    picked = row_subsample(test_rows, config.shap_rows, seed=seed)
    return global_importance(
        model,
        test_rows[picked],
        background,
        ds.matrix.columns,
        mode=config.shap_mode,
        n_permutations=config.shap_permutations,
        seed=seed,
    )


def _remove_stale(out_dir: Path) -> None:
    """Delete the optional artifacts an earlier run may have left in out_dir."""
    stale = [out_dir / "errors.log"]
    for task in ALL_TASKS:
        stale.extend(out_dir.glob(f"shap_*_{task.value}.csv"))
    for path in stale:
        path.unlink(missing_ok=True)


def cmd_run(config: RunConfig) -> RunOutcome:
    """Evaluate the whole grid and write the bundle into config.out_dir."""
    config = config.validate()
    if not config.inputs:
        raise ValueError("no inputs configured: add at least one 'input = MARKET:path' line")

    prepared = {
        market: _prepare_market(market, parse_csv(Path(path).read_text(encoding="utf-8"), market=market), config)
        for market, path in config.inputs
    }
    markets = list(prepared)

    records: list[EvalRecord] = []
    errors: list[tuple[str, str]] = []
    grid = itertools.product(markets, config.tasks, config.feature_sets, config.classifiers)
    for market, task, feature_set, classifier in grid:
        try:
            records.append(_evaluate_cell(prepared[market], task, feature_set, classifier, config))
        except Exception as exc:  # cell failures are reported, not fatal
            errors.append((f"{market}/{task}/{feature_set}/{classifier}", str(exc)))

    shapley: dict[tuple[str, str], ShapleyReport] = {}
    if config.shap_model:
        for market in markets:
            for task in config.tasks:
                try:
                    shapley[(market, task)] = _shapley_cell(prepared[market], task, config)
                except Exception as exc:
                    errors.append((f"{market}/{task}/shap/{config.shap_model}", str(exc)))

    provenance = Provenance(seed=config.seed, config_hash=config.config_hash)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _remove_stale(out_dir)
    written: list[str] = []

    def emit(name: str, text: str) -> None:
        path = out_dir / name
        path.write_text(text, encoding="utf-8", newline="\n")
        written.append(str(path))

    emit("results.csv", results_csv(records, provenance))
    emit(
        "results.json",
        results_json(records, shapley, config.shap_model, errors, provenance, config.canonical_text()),
    )
    for (market, task), rep in sorted(shapley.items()):
        emit(f"shap_{safe_name(market)}_{task}.csv", shap_csv(rep, provenance))
    if errors:
        lines = [provenance.comment] + [f"{cell}: {message}" for cell, message in errors]
        emit("errors.log", "\n".join(lines) + "\n")
    return RunOutcome(records=records, shapley=shapley, errors=errors, provenance=provenance, written=written)
