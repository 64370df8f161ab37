"""Regenerate the benchmark's committed reference files.

    python3 perfbench/record.py digests   # bundle sha256 per workload and market class
    python3 perfbench/record.py presets   # one fit of each of the 8 presets, timed once

``digests.json`` is the correctness reference every benchmark run checks its
bundles against; re-record it only when a change is meant to alter the
result bytes.  ``preset_table.json`` holds one-shot fit times and model sizes
for all eight presets on the 989 x 16 training span of market class 0 (the
slow presets cost too much to repeat inside the timed runs); it is recorded,
not gated.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from time import perf_counter

import workloads as wl
from tracing import model_nodes


def record_digests() -> None:
    from opentrend.config import load_config
    from opentrend.run import cmd_run

    table: dict[str, dict[str, dict[str, str]]] = {}
    for workload in wl.WORKLOADS.values():
        table[workload.name] = {}
        for klass in range(wl.MARKET_CLASSES):
            wl.write_market(klass)
            config = load_config(workload.config_text(klass, (wl.WORK / "record").as_posix()))
            outcome = cmd_run(config)
            if outcome.errors or wl.efficiency_failures(outcome):
                raise SystemExit(f"{workload.name} market {klass}: refusing to record a failing run")
            table[workload.name][str(klass)] = wl.bundle_digests(outcome.written)
            print(f"{workload.name} market {klass}: {len(outcome.written)} artifacts", flush=True)
    wl.write_json(
        wl.DIGESTS_PATH,
        {"environment": wl.environment(), "market_classes": wl.MARKET_CLASSES, "workloads": table},
    )


def record_presets() -> None:
    from opentrend.dataset import bind, split
    from opentrend.features import FeatureSetMask, assemble, select
    from opentrend.labeling import TaskKind, make_labels
    from opentrend.learners import PRESET_NAMES, fit, model_to_json, preset
    from opentrend.ohlc import parse_csv

    wl.write_market(0)
    series = parse_csv(wl.MARKET_CSV.read_text(encoding="utf-8"), market=wl.MARKET_TAG)
    rows = assemble(series)
    ds = bind(
        select(rows, FeatureSetMask.from_name("INT+HIST+NOW")),
        make_labels(series, TaskKind.from_code("op"), len(series) - len(rows)),
        wl.MARKET_TAG,
    )
    n_train = split(ds, 0.8).n_train
    X, y = ds.matrix.values[:n_train], ds.labels[:n_train]
    table = {}
    for name in PRESET_NAMES:
        start = perf_counter()
        model = fit(preset(name, seed=0), X, y, feature_names=ds.matrix.columns)
        fit_s = perf_counter() - start
        table[name] = {
            "fit_s": fit_s,
            "model_nodes": model_nodes(model),
            "model_json_sha256": hashlib.sha256(model_to_json(model).encode("utf-8")).hexdigest(),
        }
        print(f"{name}: fit {fit_s:.3f} s, {table[name]['model_nodes']} nodes", flush=True)
    wl.write_json(
        wl.PRESET_TABLE_PATH,
        {
            "environment": wl.environment(),
            "training_span": {"rows": int(X.shape[0]), "columns": int(X.shape[1]), "market_class": 0, "task": "op"},
            "presets": table,
        },
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("what", choices=("digests", "presets"))
    args = parser.parse_args(argv)
    try:
        wl.use_checkout_source()
    except wl.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    (record_digests if args.what == "digests" else record_presets)()
    return 0


if __name__ == "__main__":
    sys.exit(main())
