"""Acceptance checklist: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one printed
``ACCEPTANCE n: PASS/FAIL`` line per criterion, with elapsed time.
Criteria with a runtime budget fail if they blow it.
"""

from __future__ import annotations

import functools
import json
import math
import time
from pathlib import Path

import numpy as np

from opentrend.cli import main
from opentrend.dataset import bind, split
from opentrend.explain import shapley_exact
from opentrend.features import FeatureSetMask, select, assemble
from opentrend.indicators import IndicatorParams, channel_arrays
from opentrend.labeling import ALL_TASKS, TaskKind, make_labels
from opentrend.learners import ClassifierSpec, family_names, fit, predict, preset
from opentrend.learners.linear import loss_and_gradient
from opentrend.learners.mlp import loss_and_gradients
from opentrend.metrics import ConfusionMatrix, EvalRecord, accuracy, mcc
from opentrend.ohlc import OhlcSeries, serialize_csv
from opentrend.report import Provenance, parse_results_csv, results_csv
from opentrend.synth import GenSpec, generate, trading_dates


def criterion(number: int, title: str, budget: float | None = None):
    """Print one checklist line per criterion and enforce its time budget."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            ok = False
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                if budget is not None and elapsed >= budget:
                    raise AssertionError(f"runtime {elapsed:.1f}s exceeds the {budget:.0f}s budget")
                ok = True
            finally:
                elapsed = time.perf_counter() - start
                verdict = "PASS" if ok else "FAIL"
                print(f"\nACCEPTANCE {number}: {verdict} ({elapsed:.1f}s) - {title}")

        return wrapper

    return decorate


def random_series(seed: int, min_days: int, max_days: int) -> OhlcSeries:
    """A seeded random-walk OHLC series with valid bars, length sampled uniformly."""
    rng = np.random.default_rng(seed)
    days = int(rng.integers(min_days, max_days + 1))
    close = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.02, size=days)))
    open_ = close * np.exp(rng.normal(0.0, 0.01, size=days))
    high = np.maximum(open_, close) * np.exp(np.abs(rng.normal(0.0, 0.01, size=days)))
    low = np.minimum(open_, close) * np.exp(-np.abs(rng.normal(0.0, 0.01, size=days)))
    return OhlcSeries("acc", tuple(trading_dates(days)), open_, high, low, close)


@criterion(1, "chronological split arithmetic on 1256- and 1237-day series", budget=1.0)
def test_criterion_1_split_arithmetic():
    for days, want_points, want_train, want_test in ((1256, 1236, 989, 247), (1237, 1217, 974, 243)):
        series = generate(GenSpec("grw", days, seed=7))
        full = assemble(series)
        assert full.n_rows == days - 19
        matrix = select(full, FeatureSetMask.from_name("INT+HIST+NOW"))
        labels = make_labels(series, TaskKind.OP_VS_OP, first_index=19)
        ds = bind(matrix, labels, "acc")
        assert ds.n_points == want_points
        sp = split(ds, 0.8)
        assert (sp.n_train, sp.n_test) == (want_train, want_test)
    # the ceiling is exact, not floating: 0.8 of 10 points is exactly 8
    tiny = split(bind(select(assemble(generate(GenSpec("grw", 30, seed=7))),
                             FeatureSetMask.from_name("INT")),
                      make_labels(generate(GenSpec("grw", 30, seed=7)), TaskKind.OP_VS_OP, 19),
                      "acc"), 0.8)
    assert (tiny.n_train, tiny.n_test) == (8, 2)


@criterion(2, "channel indicators match brute-force recomputation on 1000 series", budget=30.0)
def test_criterion_2_indicator_oracle():
    params = IndicatorParams()
    n, k = params.window_n, params.bollinger_k
    alpha = 2.0 / (n + 1)
    for i in range(1000):
        series = random_series(10_000 + i, 100, 500)
        hi, lo, cl = (series.prices(name) for name in ("high", "low", "close"))
        days = len(series)

        # scalar re-derivations, independent of the vectorized library code
        ema = np.full(days, np.nan)
        ema[n - 1] = cl[:n].mean()
        for t in range(n, days):
            ema[t] = alpha * cl[t] + (1.0 - alpha) * ema[t - 1]
        tr = np.empty(days)
        tr[0] = hi[0] - lo[0]
        for t in range(1, days):
            tr[t] = max(hi[t] - lo[t], abs(hi[t] - cl[t - 1]), abs(lo[t] - cl[t - 1]))

        want = {key: np.full(days, np.nan) for key in
                ("dc_u", "dc_l", "dc_m", "bb_u", "bb_l", "bb_m", "kc_u", "kc_l", "kc_m")}
        for t in range(n - 1, days):
            w = slice(t - n + 1, t + 1)
            want["dc_u"][t] = hi[w].max()
            want["dc_l"][t] = lo[w].min()
            want["dc_m"][t] = (want["dc_u"][t] + want["dc_l"][t]) / 2.0
            mean = cl[w].mean()
            sd = cl[w].std()
            want["bb_m"][t] = mean
            want["bb_u"][t] = mean + k * sd
            want["bb_l"][t] = mean - k * sd
            atr_t = tr[w].mean()
            want["kc_m"][t] = ema[t]
            want["kc_u"][t] = ema[t] + params.keltner_k * atr_t
            want["kc_l"][t] = ema[t] - params.keltner_k * atr_t

        got = channel_arrays(series, params)
        for key, expected in want.items():
            np.testing.assert_allclose(got[key][n - 1:], expected[n - 1:], rtol=1e-9, atol=0.0,
                                       err_msg=f"{key} diverges on series seed {10_000 + i}")
            assert np.all(np.isnan(got[key][: n - 1]))


@criterion(3, "direction labels match a brute-force loop on 1000 series", budget=10.0)
def test_criterion_3_label_oracle():
    for i in range(1000):
        series = random_series(20_000 + i, 60, 260)
        opens = series.prices("open")
        refs = {
            "op": opens,
            "hi": series.prices("high"),
            "lo": series.prices("low"),
            "cl": series.prices("close"),
        }
        got = {}
        for task in ALL_TASKS:
            vector = make_labels(series, task, first_index=0)
            expected = (opens[1:] > refs[task.value][:-1]).astype(np.int64)
            assert np.array_equal(vector.labels, expected), f"{task.value} labels diverge on seed {20_000 + i}"
            got[task.value] = vector.labels
        # clearing the day's high clears every bar; failing the low clears none
        assert np.all(got["op"][got["hi"] == 1] == 1)
        assert np.all(got["lo"][got["hi"] == 1] == 1)
        assert np.all(got["cl"][got["hi"] == 1] == 1)
        assert np.all(got["op"][got["lo"] == 0] == 0)
        assert np.all(got["hi"][got["lo"] == 0] == 0)
        assert np.all(got["cl"][got["lo"] == 0] == 0)


@criterion(4, "confusion-matrix metrics: exact values, zero rule, bounds")
def test_criterion_4_metrics():
    assert mcc(ConfusionMatrix(1, 1, 0, 0)) == 1.0
    assert mcc(ConfusionMatrix(0, 0, 1, 1)) == -1.0
    # a degenerate prediction (always 1, always 0) scores zero by convention
    assert mcc(ConfusionMatrix(3, 0, 2, 0)) == 0.0
    assert mcc(ConfusionMatrix(0, 4, 0, 1)) == 0.0
    assert abs(mcc(ConfusionMatrix(4, 5, 1, 2)) - 18.0 / math.sqrt(1260.0)) < 1e-12
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 10_000:
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 50, size=4))
        if tp + tn + fp + fn == 0:
            continue
        cm = ConfusionMatrix(tp, tn, fp, fn)
        assert accuracy(cm) == (tp + tn) / cm.total
        assert -1.0 <= mcc(cm) <= 1.0
        checked += 1


@criterion(5, "every learner family separates seeded blobs; analytic gradients check out")
def test_criterion_5_learners():
    rng = np.random.default_rng(42)
    X = np.vstack([rng.normal([-2.0, 0.0], 1.0, size=(100, 2)),
                   rng.normal([2.0, 0.0], 1.0, size=(100, 2))])
    y = np.array([0] * 100 + [1] * 100, dtype=np.int64)
    shuffle = rng.permutation(200)
    X, y = X[shuffle], y[shuffle]

    names = family_names()
    assert len(names) == 7
    for name in names:
        model = fit(ClassifierSpec(family=name, seed=1), X, y)
        train_acc = float(np.mean(predict(model, X) == y))
        assert train_acc >= 0.95, f"{name} reached only {train_acc:.3f} on the training blob"

    # logistic loss gradient vs central differences
    rng = np.random.default_rng(7)
    Xg = rng.normal(size=(12, 4))
    yg = rng.integers(0, 2, size=12).astype(np.int64)
    w, b, l2 = rng.normal(size=4), 0.3, 0.1
    _, grad_w, grad_b = loss_and_gradient(w, b, Xg, yg, l2)
    h = 1e-6
    for j in range(4):
        bump = np.zeros(4)
        bump[j] = h
        numeric = (loss_and_gradient(w + bump, b, Xg, yg, l2)[0]
                   - loss_and_gradient(w - bump, b, Xg, yg, l2)[0]) / (2 * h)
        assert abs(numeric - grad_w[j]) <= 1e-5 * max(1.0, abs(numeric))
    numeric_b = (loss_and_gradient(w, b + h, Xg, yg, l2)[0]
                 - loss_and_gradient(w, b - h, Xg, yg, l2)[0]) / (2 * h)
    assert abs(numeric_b - grad_b) <= 1e-5 * max(1.0, abs(numeric_b))

    # network gradients vs central differences on a small 3->4->1 net
    rng = np.random.default_rng(11)
    Xn = rng.normal(size=(10, 3))
    yn = rng.integers(0, 2, size=10).astype(np.int64)
    weights = [rng.normal(scale=0.5, size=(3, 4)), rng.normal(scale=0.5, size=(4, 1))]
    biases = [rng.normal(scale=0.5, size=4), rng.normal(scale=0.5, size=1)]
    _, grads_w, grads_b = loss_and_gradients(weights, biases, Xn, yn)
    for layer, grad in enumerate(grads_w):
        for idx in np.ndindex(grad.shape):
            bumped_hi = [w.copy() for w in weights]
            bumped_lo = [w.copy() for w in weights]
            bumped_hi[layer][idx] += h
            bumped_lo[layer][idx] -= h
            numeric = (loss_and_gradients(bumped_hi, biases, Xn, yn)[0]
                       - loss_and_gradients(bumped_lo, biases, Xn, yn)[0]) / (2 * h)
            assert abs(numeric - grad[idx]) <= 1e-4 * max(1.0, abs(numeric))
    for layer, grad in enumerate(grads_b):
        for idx in np.ndindex(grad.shape):
            bumped_hi = [b_.copy() for b_ in biases]
            bumped_lo = [b_.copy() for b_ in biases]
            bumped_hi[layer][idx] += h
            bumped_lo[layer][idx] -= h
            numeric = (loss_and_gradients(weights, bumped_hi, Xn, yn)[0]
                       - loss_and_gradients(weights, bumped_lo, Xn, yn)[0]) / (2 * h)
            assert abs(numeric - grad[idx]) <= 1e-4 * max(1.0, abs(numeric))


class _LinearScore:
    """Hand-built scorer with known exact attributions."""

    def __init__(self, w: np.ndarray, b: float = 0.0):
        self.w = np.asarray(w, dtype=np.float64)
        self.b = b

    def score(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) @ self.w + self.b


@criterion(6, "exact attribution axioms: efficiency, dummy feature, linear closed form")
def test_criterion_6_shapley_axioms():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(160, 5))
    y = (X[:, 0] + 0.5 * X[:, 2] > 0).astype(np.int64)
    background = X[:64]
    attributed = X[100:120]
    for preset_name in ("dt", "logreg"):
        model = fit(preset(preset_name, seed=2), X, y)
        for x in attributed:
            row = shapley_exact(model, x, background)
            assert row.efficiency_residual < 1e-6

    # a feature with zero weight must get zero credit
    dummy = _LinearScore(np.array([0.7, 0.0, -0.3]), b=0.2)
    for x in rng.normal(size=(10, 3)):
        row = shapley_exact(dummy, x, rng.normal(size=(40, 3)))
        assert abs(row.phi[1]) < 1e-9

    # linear scorer: phi_j = w_j * (x_j - background mean_j), exactly
    w = np.array([1.5, -2.0, 0.25, 3.0])
    linear = _LinearScore(w, b=-1.0)
    bg = rng.normal(size=(50, 4))
    for x in rng.normal(size=(10, 4)):
        row = shapley_exact(linear, x, bg)
        np.testing.assert_allclose(row.phi, w * (x - bg.mean(axis=0)), atol=1e-9)


@criterion(7, "planted-signal run: a cell clears 0.95/0.9 and r_cl tops the importance ranking", budget=120.0)
def test_criterion_7_planted_signal(tmp_path):
    series = generate(GenSpec("separable", 500, seed=21, params={"signal_strength": 1.0}, market="sep"))
    csv_path = tmp_path / "sep.csv"
    csv_path.write_text(serialize_csv(series), encoding="utf-8")
    out_dir = tmp_path / "out"
    conf = tmp_path / "run.conf"
    conf.write_text(
        f"""
        input = sep:{csv_path}
        tasks = op
        feature_sets = INT+NOW
        seed = 0
        workers = 4
        shap_model = dt
        shap_feature_set = INT+NOW
        shap_rows = 20
        out_dir = {out_dir}
        """,
        encoding="utf-8",
    )
    assert main(["run", "--config", str(conf)]) == 0
    records, _ = parse_results_csv((out_dir / "results.csv").read_text(encoding="utf-8"))
    hits = [r for r in records
            if r.task == "op" and r.feature_set == "INT+NOW" and r.accuracy >= 0.95 and r.mcc >= 0.9]
    assert hits, "no classifier recovered the planted next-open signal"

    blob = json.loads((out_dir / "results.json").read_text(encoding="utf-8"))
    shap = blob["shapley"]["sep/op"]
    importance = dict(zip(shap["features"], shap["global_importance"]))
    assert max(importance, key=importance.get) == "r_cl"
    top_line = (out_dir / "shap_sep_op.csv").read_text(encoding="utf-8").splitlines()[2:]
    by_csv = {line.split(",")[0]: float(line.split(",")[1]) for line in top_line}
    assert max(by_csv, key=by_csv.get) == "r_cl"


@criterion(8, "byte-identical artifacts across reruns and 1-vs-8 worker threads")
def test_criterion_8_determinism(tmp_path):
    series = generate(GenSpec("grw", 150, seed=3, market="grw"))
    csv_path = tmp_path / "grw.csv"
    csv_path.write_text(serialize_csv(series), encoding="utf-8")
    conf = tmp_path / "run.conf"
    conf.write_text(
        f"""
        input = grw:{csv_path}
        tasks = op,cl
        feature_sets = INT,INT+NOW
        classifiers = dt,gnb,knn
        seed = 9
        shap_model = dt
        shap_feature_set = INT+NOW
        shap_rows = 10
        shap_background = 32
        """,
        encoding="utf-8",
    )

    def run_into(out_dir: Path, workers: int) -> dict[str, bytes]:
        assert main(["run", "--config", str(conf), "--out-dir", str(out_dir), "--workers", str(workers)]) == 0
        assert main(["chart", "--results", str(out_dir / "results.csv"), "--out-dir", str(out_dir)]) == 0
        return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

    first = run_into(tmp_path / "a", workers=1)
    again = run_into(tmp_path / "b", workers=1)
    parallel = run_into(tmp_path / "c", workers=8)

    assert set(first) == set(again) == set(parallel)
    assert "results.csv" in first and "results.json" in first
    assert any(name.endswith(".svg") for name in first)
    for name, payload in first.items():
        assert again[name] == payload, f"{name} differs between identical reruns"
        assert parallel[name] == payload, f"{name} differs between 1 and 8 workers"


@criterion(9, "reliability table renders for supplied results; README covers install/tests/CLI/data scope")
def test_criterion_9_reliability_and_docs(tmp_path):
    records = [
        EvalRecord("alpha", "op", "INT", "dt", 0.85, 0.70, 80, 20, True),
        EvalRecord("alpha", "op", "INT+NOW", "gnb", 0.55, 0.10, 80, 20, False),
        EvalRecord("alpha", "cl", "INT", "dt", 0.60, 0.20, 80, 20, False),
        EvalRecord("beta", "op", "INT", "dt", 0.82, 0.40, 80, 20, False),
        EvalRecord("beta", "cl", "INT", "knn", 0.90, 0.80, 80, 20, True),
    ]
    results_path = tmp_path / "results.csv"
    results_path.write_text(results_csv(records, Provenance(seed=0, config_hash="0" * 16)), encoding="utf-8")
    table_path = tmp_path / "table3.csv"
    assert main(["table3", "--results", str(results_path), "--out", str(table_path)]) == 0
    lines = table_path.read_text(encoding="utf-8").splitlines()
    assert any(line.startswith("# thresholds: accuracy>=0.800000 mcc>=0.650000") for line in lines)
    data = [line for line in lines if line and not line.startswith("#")]
    rows = {tuple(line.split(",")[:2]): line.split(",") for line in data[1:]}
    assert set(rows) == {("alpha", "op"), ("alpha", "cl"), ("beta", "op"), ("beta", "cl")}
    for fields in rows.values():
        assert len(fields) == 6
        assert all(flag in ("yes", "no") for flag in fields[3:])
    assert rows[("alpha", "op")][2] == "open(t+1) > open(t)"
    assert rows[("alpha", "op")][5] == "yes"  # one effective cell is enough
    assert rows[("beta", "op")][5] == "no"  # accuracy alone is not

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert "pip install" in readme
    assert "pytest" in readme
    for subcommand in ("ingest", "synth", "featurize", "run", "table3", "chart", "explain"):
        assert f"`{subcommand}`" in readme or f"opentrend {subcommand}" in readme
    assert "No real market data is bundled" in readme
