"""Command-line interface.

Subcommands::

    ingest     validate an OHLC CSV and print a summary
    synth      generate a synthetic OHLC CSV
    featurize  export the feature matrix (+ label columns) for one series
    run        evaluate the full grid from a run configuration
    table3     reliability table (which market/task pairs have an effective cell)
    chart      bubble-grid and attribution SVGs from a results directory
    explain    Shapley attribution for one fitted model

Exit codes: 0 success, 1 when some grid cells failed (see errors.log),
2 for invalid configuration or malformed input.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

from opentrend import __version__
from opentrend.config import ConfigError, RunConfig, load_config
from opentrend.features import export_csv
from opentrend.ohlc import OhlcError, parse_csv, serialize_csv, volatility
from opentrend.report import Provenance, bubble_chart_svg, parse_results_csv, shap_bar_svg, shap_csv, table3_text
from opentrend.run import _prepare_market, _shapley_cell, cmd_run, safe_name
from opentrend.synth import GENERATOR_KINDS, GenSpec, generate


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (OhlcError, ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    """Every flag whose dest is a RunConfig field is a config key: it keeps its raw text for ``_config``."""
    parser = argparse.ArgumentParser(prog="opentrend", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"opentrend {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate an OHLC CSV")
    p.add_argument("--input", required=True, help="path to the CSV file")
    p.add_argument("--market", default=None, help="market tag (default: file stem)")
    p.set_defaults(handler=_cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic OHLC CSV")
    p.add_argument("--kind", required=True, choices=GENERATOR_KINDS)
    p.add_argument("--days", required=True, type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--market", default="synthetic")
    p.add_argument("--param", action="append", default=[], metavar="K=V", help="generator parameter, repeatable")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("featurize", help="export features and labels as CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--market", default=None)
    p.add_argument("--feature-set", dest="shap_feature_set")
    _add_band_flags(p)
    p.add_argument("--no-labels", action="store_true", help="keep the final row, omit label columns")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_featurize)

    p = sub.add_parser("run", help="evaluate the full grid")
    p.add_argument("--config", default=None, help="path to a key = value config file")
    p.add_argument("--input", action="append", default=[], metavar="MARKET:PATH", help="repeatable")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="config override, repeatable")
    p.add_argument("--out-dir")
    p.add_argument("--seed")
    p.add_argument("--workers", help="accepted for existing scripts; the grid runs serially")
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("table3", help="reliability table from a results.csv")
    p.add_argument("--results", required=True, help="path to results.csv")
    p.add_argument("--acc-threshold")
    p.add_argument("--mcc-threshold")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(handler=_cmd_table3)

    p = sub.add_parser("chart", help="SVG charts from a results directory")
    p.add_argument("--results", required=True, help="path to results.csv")
    p.add_argument("--out-dir", default=None, help="default: directory of results.csv")
    p.set_defaults(handler=_cmd_chart)

    p = sub.add_parser("explain", help="Shapley attribution for one model")
    p.add_argument("--input", required=True)
    p.add_argument("--market", default=None)
    p.add_argument("--classifier", dest="shap_model", required=True)
    p.add_argument("--task", dest="tasks", default="op", help="one task code")
    p.add_argument("--feature-set", dest="shap_feature_set")
    p.add_argument("--mode", dest="shap_mode")
    p.add_argument("--background", dest="shap_background")
    p.add_argument("--rows", dest="shap_rows")
    p.add_argument("--permutations", dest="shap_permutations")
    p.add_argument("--split-ratio")
    _add_band_flags(p)
    p.add_argument("--seed")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=_cmd_explain)
    return parser


def _add_band_flags(p: argparse.ArgumentParser) -> None:
    """The band indicator flags that featurize and explain share."""
    p.add_argument("--window", dest="window_n")
    p.add_argument("--bollinger-k")
    p.add_argument("--keltner-k")
    p.add_argument("--bollinger-paper-literal", action="store_const", const="true")


def _config(args, pairs=(), text: str = "", source: str = "config") -> RunConfig:
    """The validated run configuration: config text, then ``pairs``, then every config-key flag given."""
    flags = [(f.name, getattr(args, f.name)) for f in fields(RunConfig) if getattr(args, f.name, None) is not None]
    return load_config(text, list(pairs), source, flags)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write_out(text: str, out: str | Path | None) -> None:
    """Write text to the ``--out`` path, or to stdout when there is none."""
    if out:
        Path(out).write_text(text, encoding="utf-8", newline="\n")
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def _market_tag(args) -> str:
    return args.market if args.market else Path(args.input).stem


def _cmd_ingest(args) -> int:
    series = parse_csv(_read(args.input), market=_market_tag(args))
    stats = volatility(series) if len(series) >= 3 else None
    print(
        f"ok: {len(series)} bars for {series.market!r} "
        f"from {series.dates[0].isoformat()} to {series.dates[-1].isoformat()}"
    )
    if stats is not None:
        print(
            f"close volatility: daily {stats.daily_volatility:.6f}, "
            f"annualized({stats.period_days}) {stats.periodized_volatility:.6f}"
        )
    return 0


def _cmd_synth(args) -> int:
    params = {}
    for raw in args.param:
        key, sep, value = raw.partition("=")
        if not sep:
            raise ValueError(f"expected K=V for --param, got {raw!r}")
        params[key.strip()] = float(value)
    spec = GenSpec(kind=args.kind, days=args.days, seed=args.seed, params=params, market=args.market)
    _write_out(serialize_csv(generate(spec)), args.out)
    return 0


def _cmd_featurize(args) -> int:
    config = _config(args)
    series = parse_csv(_read(args.input), market=_market_tag(args))
    data = _prepare_market(series.market, series, replace(config, tasks=()) if args.no_labels else config)
    labels = {vec.task.label_column: vec.labels for vec in data.labels.values()}
    _write_out(export_csv(data.matrices[config.shap_feature_set], labels or None), args.out)
    return 0


def _cmd_run(args) -> int:
    pairs = [("input", raw) for raw in args.input]
    for raw in args.set:
        key, sep, value = raw.partition("=")
        if not sep:
            raise ConfigError(f"expected KEY=VALUE for --set, got {raw!r}")
        pairs.append((key.strip(), value.strip()))
    config = _config(args, pairs, _read(args.config) if args.config else "", args.config or "config")

    outcome = cmd_run(config)
    for path in outcome.written:
        print(f"wrote {path}")
    if outcome.errors:
        for cell, message in outcome.errors:
            print(f"cell failed: {cell}: {message}", file=sys.stderr)
        return 1
    return 0


def _cmd_table3(args) -> int:
    config = _config(args)
    records, provenance = parse_results_csv(_read(args.results))
    _write_out(table3_text(records, config.acc_threshold, config.mcc_threshold, provenance), args.out)
    return 0


def _cmd_chart(args) -> int:
    results_path = Path(args.results)
    records, provenance = parse_results_csv(results_path.read_text(encoding="utf-8"))
    out_dir = Path(args.out_dir) if args.out_dir else results_path.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    pairs = sorted({(r.market, r.task) for r in records})
    for market, task in pairs:
        for metric in ("accuracy", "mcc"):
            svg = bubble_chart_svg(records, market, task, metric, provenance)
            _write_out(svg, out_dir / f"chart_{safe_name(market)}_{task}_{metric}.svg")
    return 0


def _cmd_explain(args) -> int:
    config = _config(args)
    if len(config.tasks) != 1:
        raise ConfigError(f"invalid config key 'tasks': --task takes one task code, got {args.tasks!r}")
    if not config.shap_model:
        raise ConfigError("invalid config key 'shap_model': --classifier names a preset, got ''")
    (task,) = config.tasks
    series = parse_csv(_read(args.input), market=_market_tag(args))
    report = _shapley_cell(_prepare_market(series.market, series, config), task, config)
    provenance = Provenance(seed=config.seed, config_hash="-")
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = f"shap_{safe_name(series.market)}_{task}"
    _write_out(shap_csv(report, provenance), out_dir / f"{base}.csv")
    title = f"{series.market} / {task} / {config.shap_model}"
    _write_out(shap_bar_svg(report, title, provenance), out_dir / f"{base}.svg")
    top = report.ranking()[0]
    print(f"top feature: {top}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
