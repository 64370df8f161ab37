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
from pathlib import Path

from opentrend import __version__
from opentrend.config import ConfigError, RunConfig, apply_assignments, parse_assignments
from opentrend.features import export_csv
from opentrend.labeling import ALL_TASKS
from opentrend.learners import PRESET_NAMES
from opentrend.metrics import ACC_THRESHOLD, MCC_THRESHOLD
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
    defaults = RunConfig()
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
    p.add_argument("--feature-set", default="INT+HIST+NOW")
    p.add_argument("--window", type=int, default=defaults.window_n)
    p.add_argument("--bollinger-k", type=float, default=defaults.bollinger_k)
    p.add_argument("--keltner-k", type=float, default=defaults.keltner_k)
    p.add_argument("--bollinger-paper-literal", action="store_true")
    p.add_argument("--no-labels", action="store_true", help="keep the final row, omit label columns")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_featurize)

    p = sub.add_parser("run", help="evaluate the full grid")
    p.add_argument("--config", default=None, help="path to a key = value config file")
    p.add_argument("--input", action="append", default=[], metavar="MARKET:PATH", help="repeatable")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="config override, repeatable")
    p.add_argument("--out-dir", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=None, help="accepted for existing scripts; the grid runs serially")
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("table3", help="reliability table from a results.csv")
    p.add_argument("--results", required=True, help="path to results.csv")
    p.add_argument("--acc-threshold", type=float, default=ACC_THRESHOLD)
    p.add_argument("--mcc-threshold", type=float, default=MCC_THRESHOLD)
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(handler=_cmd_table3)

    p = sub.add_parser("chart", help="SVG charts from a results directory")
    p.add_argument("--results", required=True, help="path to results.csv")
    p.add_argument("--out-dir", default=None, help="default: directory of results.csv")
    p.set_defaults(handler=_cmd_chart)

    p = sub.add_parser("explain", help="Shapley attribution for one model")
    p.add_argument("--input", required=True)
    p.add_argument("--market", default=None)
    p.add_argument("--classifier", required=True, choices=PRESET_NAMES)
    p.add_argument("--task", default="op", choices=[t.value for t in ALL_TASKS])
    p.add_argument("--feature-set", default=defaults.shap_feature_set)
    p.add_argument("--mode", default=defaults.shap_mode, choices=["exact", "sampled"])
    p.add_argument("--background", type=int, default=defaults.shap_background)
    p.add_argument("--rows", type=int, default=defaults.shap_rows)
    p.add_argument("--permutations", type=int, default=defaults.shap_permutations)
    p.add_argument("--split-ratio", type=float, default=defaults.split_ratio)
    p.add_argument("--window", type=int, default=defaults.window_n)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=_cmd_explain)
    return parser


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


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
    text = serialize_csv(generate(spec))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8", newline="\n")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_featurize(args) -> int:
    series = parse_csv(_read(args.input), market=_market_tag(args))
    config = RunConfig(
        window_n=args.window,
        bollinger_k=args.bollinger_k,
        keltner_k=args.keltner_k,
        bollinger_paper_literal=args.bollinger_paper_literal,
        feature_sets=(args.feature_set,),
        tasks=() if args.no_labels else tuple(task.value for task in ALL_TASKS),
    )
    data = _prepare_market(series.market, series, config)
    labels = {vec.task.label_column: vec.labels for vec in data.labels.values()}
    text = export_csv(data.matrices[args.feature_set], labels or None)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8", newline="\n")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_run(args) -> int:
    config = RunConfig()
    if args.config:
        config = apply_assignments(config, parse_assignments(_read(args.config), source=args.config))
    overrides: list[tuple[str, str]] = []
    for raw in args.input:
        overrides.append(("input", raw))
    for raw in args.set:
        key, sep, value = raw.partition("=")
        if not sep:
            raise ConfigError(f"expected KEY=VALUE for --set, got {raw!r}")
        overrides.append((key.strip(), value.strip()))
    if args.out_dir is not None:
        overrides.append(("out_dir", args.out_dir))
    if args.seed is not None:
        overrides.append(("seed", str(args.seed)))
    if args.workers is not None:
        overrides.append(("workers", str(args.workers)))
    config = apply_assignments(config, overrides, source="override").validate()

    outcome = cmd_run(config)
    for path in outcome.written:
        print(f"wrote {path}")
    if outcome.errors:
        for cell, message in outcome.errors:
            print(f"cell failed: {cell}: {message}", file=sys.stderr)
        return 1
    return 0


def _cmd_table3(args) -> int:
    records, provenance = parse_results_csv(_read(args.results))
    text = table3_text(records, args.acc_threshold, args.mcc_threshold, provenance)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8", newline="\n")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
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
            path = out_dir / f"chart_{safe_name(market)}_{task}_{metric}.svg"
            path.write_text(svg, encoding="utf-8", newline="\n")
            print(f"wrote {path}")
    return 0


def _cmd_explain(args) -> int:
    series = parse_csv(_read(args.input), market=_market_tag(args))
    config = RunConfig(
        window_n=args.window,
        split_ratio=args.split_ratio,
        tasks=(args.task,),
        feature_sets=(args.feature_set,),
        seed=args.seed,
        shap_model=args.classifier,
        shap_mode=args.mode,
        shap_feature_set=args.feature_set,
        shap_background=args.background,
        shap_rows=args.rows,
        shap_permutations=args.permutations,
    ).validate()
    report = _shapley_cell(_prepare_market(series.market, series, config), args.task, config)
    provenance = Provenance(seed=args.seed, config_hash="-", version=__version__)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = f"shap_{safe_name(series.market)}_{args.task}"
    csv_path = out_dir / f"{base}.csv"
    csv_path.write_text(shap_csv(report, provenance), encoding="utf-8", newline="\n")
    print(f"wrote {csv_path}")
    svg_path = out_dir / f"{base}.svg"
    title = f"{series.market} / {args.task} / {args.classifier}"
    svg_path.write_text(shap_bar_svg(report, title, provenance), encoding="utf-8", newline="\n")
    print(f"wrote {svg_path}")
    top = report.ranking()[0]
    print(f"top feature: {top}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
