"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload grid-static --seed 3 --seconds 30 --trace 0

Each run measures set-up in fresh interpreters, does one cheap warm-up
``cmd_run``, then repeats the workload's ``cmd_run`` closed-loop, one at a
time and one generated market per repetition (the seed picks the first, see
workloads.py), for about ``--seconds`` seconds.  Every repetition's bundle
must match the committed sha256 digests and every attributed row must pass
the Shapley efficiency check; a miss counts as a failed operation.

``--trace 0`` reports the end-to-end metrics: medians over repetitions, with
times scaled to a reference machine speed by a calibration kernel timed
around each repetition (see ``calibrate``).
``--trace 1`` runs each market untraced and then traced, and reports the
per-layer metrics of the traced repetitions plus the tracing overhead.  The
last line of stdout is the result object; the lines before it state medians,
quartiles, sample counts, the error ratio and the environment.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

import workloads as wl
from tracing import PER_LAYER, Tracer, nearest_rank, tail

SETUP_REPEATS = 7
KERNEL_ROUNDS = 80
#: what the calibration kernel takes on the machine the benchmark was defined
#: on (2 cores, numpy 2.4 with OpenBLAS); end-to-end times are scaled to it
REFERENCE_KERNEL_S = 0.2
OUT_DIR = (wl.WORK / "out").as_posix()

#: set-up as a user pays it: a fresh interpreter imports opentrend, then
#: loads and validates the config
_SETUP_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import opentrend
from opentrend.config import load_config
from opentrend.run import cmd_run
t1 = time.perf_counter()
load_config(sys.argv[2])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1}))
"""


@dataclass
class Rep:
    run_s: float
    attempted: int
    failed: int
    traced: Tracer | None = None
    notes: list[str] = field(default_factory=list)
    kernel_s: float = REFERENCE_KERNEL_S  # calibration kernel time around this repetition

    @property
    def scaled_s(self) -> float:
        return self.run_s * REFERENCE_KERNEL_S / self.kernel_s


def calibrate() -> float:
    """Time a fixed kernel of interpreter work and small numpy calls.

    The shared machine's speed drifts by up to 50% over minutes, for every
    process alike.  The kernel shares no code with opentrend, so a
    repetition's time over the kernel's time around it tracks the program,
    not the machine's speed at that minute.
    """
    rng = np.random.default_rng(0)
    X = rng.random((1000, 16))
    y = (rng.random(1000) < 0.5).astype(np.float64)
    n = np.arange(1, 1001)
    start = perf_counter()
    total = 0.0
    for _ in range(KERNEL_ROUNDS):
        for j in range(16):
            ones = np.cumsum(y[np.argsort(X[:, j], kind="stable")])
            total += float(np.max(ones * ones / n))
        total += sum(i % 7 for i in range(20000))
    return perf_counter() - start


def measure_setup(config_text: str) -> list[dict]:
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(wl.SRC), config_text],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def run_once(config, expected: dict[str, str], tracer: Tracer | None) -> Rep:
    from opentrend.run import cmd_run

    shutil.rmtree(config.out_dir, ignore_errors=True)
    if tracer is None:
        start = perf_counter()
        outcome = cmd_run(config)
        run_s = perf_counter() - start
    else:
        with tracer.installed():
            start = perf_counter()
            with tracer.root():
                outcome = cmd_run(config)
            run_s = perf_counter() - start

    cells, shap_cells = wl.grid_size(config)
    notes = [f"cell failed: {cell}: {message}" for cell, message in outcome.errors]
    bad_rows = wl.efficiency_failures(outcome)
    if bad_rows:
        notes.append(f"{bad_rows} Shapley cell(s) miss efficiency by more than {wl.EFFICIENCY_TOLERANCE}")
    digests = wl.bundle_digests(outcome.written)
    if digests != expected:
        differing = sorted(n for n in set(digests) | set(expected) if digests.get(n) != expected.get(n))
        notes.append(f"bundle bytes differ from the committed digests: {', '.join(differing)}")
    attempted = cells + shap_cells
    failed = len(outcome.errors) + bad_rows + (digests != expected)
    return Rep(run_s=run_s, attempted=attempted, failed=min(failed, attempted), traced=tracer, notes=notes)


def run_market(workload, klass: int, expected: dict[str, str], traced: bool) -> list[Rep]:
    """One market: an untraced repetition and, when ``traced``, a traced one right after it."""
    from opentrend.config import load_config

    wl.write_market(klass)
    config = load_config(workload.config_text(klass, OUT_DIR))
    reps = [run_once(config, expected, None)]
    if traced:
        reps.append(run_once(config, expected, Tracer()))
    return reps


def repeat(step, seconds: float) -> list:
    """Closed loop: start another step while at least half of one still fits.

    The calibration kernel runs before the first step and after each one.
    """
    steps, durations = [], []
    start = perf_counter()
    before = calibrate()
    while True:
        began = perf_counter()
        reps = step()
        after = calibrate()
        for r in reps:
            r.kernel_s = (before + after) / 2
        before = after
        steps.append(reps)
        durations.append(perf_counter() - began)
        if perf_counter() - start + statistics.median(durations) / 2 > seconds:
            return steps


def summary(name: str, values: list[float], unit: str) -> str:
    values = sorted(values)
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    else:
        q1 = med = q3 = values[0]
    return f"{name}: median={med:.6g} q1={q1:.6g} q3={q3:.6g} n={len(values)} {unit}"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(reps: list[Rep], setup: list[float], setup_kernel_s: float, cells: int, shap_rows: int) -> dict:
    """Medians of times scaled to the reference kernel speed; wall times are printed too."""
    print(summary("wall setup_s", setup, "s"))
    print(summary("wall run_s", [r.run_s for r in reps], "s"))
    print(summary("kernel_s", [r.kernel_s for r in reps] + [setup_kernel_s], "s"))
    setup = [s * REFERENCE_KERNEL_S / setup_kernel_s for s in setup]
    run_s = [r.scaled_s for r in reps]
    rates = [cells / s for s in run_s]
    print(summary("setup_s", setup, "s"))
    print(summary("run_s", run_s, "s"))
    print(summary("cells_per_s", rates, "1/s"))
    if shap_rows:
        print(summary("shap_rows_per_s", [shap_rows / s for s in run_s], "1/s"))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"peak_rss_mb: {peak:.6g} MB")
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "run_s": metric(statistics.median(run_s), "s"),
        "cells_per_s": metric(statistics.median(rates), "1/s"),
        "peak_rss_mb": metric(peak, "MB"),
    }


def per_layer(pairs: list[list[Rep]], load_s: list[float], workers: int, serial: bool) -> dict:
    traced = [t for _, t in pairs]
    layers = [r.traced.layer_metrics(workers) for r in traced]
    values = {name: statistics.median(layer.get(name, 0.0) for layer in layers) for name, _, _ in PER_LAYER}

    cell_s = sorted(d for r in traced for d in r.traced.cell_durations())
    percent, tail_s, qualified = tail(cell_s)
    values["run.cell_s.p50"] = nearest_rank(cell_s, 50.0)[1]
    values["run.cell_s.tail"] = tail_s
    print(
        f"run.cell_s: p50={values['run.cell_s.p50']:.6g} tail=p{percent:g} {tail_s:.6g} s n={len(cell_s)}"
        + ("" if qualified else " (no percentile has 10 cells beyond it: tail is the median)")
    )
    traced_s = [r.run_s for r in traced]
    overheads = [t.run_s - u.run_s for u, t in pairs]
    print(summary("traced run_s", traced_s, "s"))
    print(summary("traced minus untraced run_s, same market", overheads, "s"))
    values["trace.run_s"] = statistics.median(traced_s)
    values["trace.overhead_s"] = statistics.median(overheads)
    values["config.load_s"] = statistics.median(load_s)
    if serial:
        sums = ", ".join(f"{r.traced.self_time_total():.6f}/{r.traced.root_duration():.6f}" for r in traced)
        print(f"layer self times / traced cmd_run span, per repetition: {sums} s")

    for name, unit, _ in PER_LAYER:
        print(f"{name}: {values[name]:.6g} {unit}")
    return {name: metric(values[name], unit) for name, unit, _ in PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    try:
        wl.use_checkout_source()
    except wl.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from opentrend.config import load_config

    workload = wl.WORKLOADS[args.workload]
    committed = wl.load_json(wl.DIGESTS_PATH)
    digests = committed["workloads"].get(workload.name, {})
    if len(digests) != wl.MARKET_CLASSES:
        print(f"error: {wl.DIGESTS_PATH.name} lacks digests for {workload.name}", file=sys.stderr)
        return 2
    env = wl.environment()
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    if env != committed["environment"]:
        print(f"warning: digests were recorded on {json.dumps(committed['environment'], sort_keys=True)}", file=sys.stderr)

    classes = wl.market_classes(args.seed)
    first = next(classes)
    text = workload.config_text(first, OUT_DIR)
    kernel_before = calibrate()
    setup = measure_setup(text)
    setup_kernel_s = (kernel_before + calibrate()) / 2
    wl.write_market(first)
    config = load_config(text)
    warmup = replace(config, feature_sets=("INT",), classifiers=("gnb",), shap_model="", out_dir=OUT_DIR + "-warmup")
    run_once(warmup, {}, None)  # only loads code paths; its bundle is not checked

    markets = []

    def step():
        klass = first if not markets else next(classes)
        markets.append(klass)
        return run_market(workload, klass, digests[str(klass)], traced=bool(args.trace))

    steps = repeat(step, args.seconds)
    reps = [r for pair in steps for r in pair]
    cells, shap_cells = wl.grid_size(config)
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    for r in reps:
        for note in r.notes:
            print(f"failure: {note}", file=sys.stderr)
    print(f"workload={workload.name} markets={markets} repetitions={len(reps)} cells={cells} shapley_cells={shap_cells}")
    print(f"error_ratio: {failed}/{attempted} = {failed / attempted:.6g}")

    if args.trace:
        load_s = [s["load_s"] for s in setup]
        metrics = per_layer(steps, load_s, config.workers, serial=config.workers == 1)
        wl.write_json(wl.WORK / f"trace-{workload.name}.json", {k: v["value"] for k, v in metrics.items()})
    else:
        setup_s = [s["import_s"] + s["load_s"] for s in setup]
        metrics = end_to_end(reps, setup_s, setup_kernel_s, cells, config.shap_rows * shap_cells)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
