"""Self-test of the benchmark's own arithmetic and of its tracing wrappers.

    python3 -m pytest -q perfbench/test_tracing.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from tracing import PER_LAYER, Tracer, covered_length, parallel_efficiency, self_times, tail  # noqa: E402


# -- percentile rule: highest rung with at least ten samples beyond it --------


@pytest.mark.parametrize(
    "n, percent",
    [(20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_picks_highest_percentile_with_ten_beyond(n, percent):
    values = [float(v) for v in range(1, n + 1)]
    got_percent, value, qualified = tail(values)
    assert qualified
    assert got_percent == percent
    assert sum(v > value for v in values) >= 10


def test_tail_rung_is_the_last_one_with_ten_beyond():
    values = [float(v) for v in range(1, 41)]
    percent, value, _ = tail(values)
    assert (percent, value) == (75.0, 30.0)  # rank 30 of 40 leaves exactly 10 beyond


def test_tail_with_too_few_samples_falls_back_to_median():
    assert tail([3.0, 1.0, 2.0]) == (50.0, 2.0, False)
    assert tail([float(v) for v in range(19)]) == (50.0, 9.0, False)  # rank 10 of 19 leaves 9 beyond


# -- self time: span minus the union of its children's intervals ---------------


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 4), (2, 6), (8, 9)], 0, 10) == 6
    assert covered_length([(-2, 1), (9, 12)], 0, 10) == 2
    assert covered_length([], 0, 10) == 0
    assert covered_length([(3, 3), (5, 4)], 0, 10) == 0


def test_self_time_of_nested_serial_spans():
    spans = [(0.0, 10.0, None), (1.0, 4.0, 0), (2.0, 3.0, 1), (5.0, 9.0, 0)]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == 10.0  # one thread: self times add up to the root


def test_self_time_with_children_on_two_threads():
    # two pool threads: cells overlap in [2, 4] and [6, 7]; the root covers [1, 8] once
    spans = [(0.0, 10.0, None), (1.0, 4.0, 0), (2.0, 7.0, 0), (6.0, 8.0, 0)]
    selfs = self_times(spans)
    assert selfs[0] == 3.0
    assert selfs[1:] == [3.0, 5.0, 2.0]
    assert sum(selfs) > 10.0  # overlapping threads: busy time exceeds wall time


# -- pool efficiency: busy / (workers x wall) ---------------------------------


def test_parallel_efficiency():
    assert parallel_efficiency([(0, 4), (0, 4)], 2) == 1.0
    assert parallel_efficiency([(0, 4), (4, 8)], 2) == 0.5  # serialized on two workers
    assert parallel_efficiency([(0, 2), (1, 3), (2, 4)], 2) == 0.75
    assert parallel_efficiency([(0, 1), (1, 3)], 1) == 1.0
    assert parallel_efficiency([], 2) == 0.0


# -- the contract between this package and BENCHMARK.json -----------------------


def test_benchmark_json_lists_the_workloads_and_per_layer_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)


# -- tracing a real run: same bytes, restored functions, self times add up -------


def test_traced_run_keeps_bundle_and_restores_functions(tmp_path):
    wl.use_checkout_source()
    from opentrend import dataset, learners, run
    from opentrend.config import load_config
    from opentrend.learners import TrainedModel
    from opentrend.ohlc import serialize_csv
    from opentrend.synth import GenSpec, generate

    market = tmp_path / "m.csv"
    market.write_text(serialize_csv(generate(GenSpec(kind="separable", days=90, seed=3))), encoding="utf-8")
    settings = (
        f"input = m:{market}\ntasks = op\nfeature_sets = INT,INT+NOW\nclassifiers = dt,gnb\n"
        "eval_mode = rolling\nrefit_every = 5\nshap_model = dt\nshap_feature_set = INT\nshap_rows = 2\n"
    )
    originals = (dataset.rolling_predict, run.rolling_predict, learners.fit, TrainedModel.__dict__["score"])

    plain = run.cmd_run(load_config(settings + f"out_dir = {tmp_path / 'plain'}\n"))
    tracer = Tracer()
    with tracer.installed():
        assert run.rolling_predict is not originals[1]
        with tracer.root():
            traced = run.cmd_run(load_config(settings + f"out_dir = {tmp_path / 'traced'}\n"))

    assert (dataset.rolling_predict, run.rolling_predict, learners.fit, TrainedModel.__dict__["score"]) == originals
    assert wl.bundle_digests(traced.written) == wl.bundle_digests(plain.written)
    layer = tracer.layer_metrics(workers=1)
    # 90 days -> 70 points, 56 train / 14 test: refits at test steps 0, 5, 10
    assert layer["learners.fit_calls.dt"] == 2 * 3 + 1  # two rolling cells, one Shapley fit
    assert layer["learners.predict_calls.dt"] == 2 * 14
    # 4 features: 16 coalitions in one chunk over all 56 training rows, then f(x), per row
    assert layer["explain.score_calls"] == 2 * 2
    assert layer["explain.score_rows"] == 2 * (16 * 56 + 1)
    assert tracer.self_time_total() == pytest.approx(tracer.root_duration(), abs=1e-9)
