"""End-to-end command-line behavior: every subcommand plus exit codes."""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from opentrend.cli import main
from opentrend.metrics import EvalRecord
from opentrend.ohlc import parse_csv
from opentrend.report import Provenance, parse_results_csv, results_csv
from opentrend.run import cell_seed


@pytest.fixture
def grw_csv(tmp_path):
    """A 120-day random-walk CSV on disk."""
    path = tmp_path / "grw.csv"
    assert main(["synth", "--kind", "grw", "--days", "120", "--seed", "5", "--out", str(path)]) == 0
    return path


@pytest.fixture
def separable_csv(tmp_path):
    path = tmp_path / "sep.csv"
    code = main(
        ["synth", "--kind", "separable", "--days", "220", "--seed", "13", "--out", str(path)]
    )
    assert code == 0
    return path


def small_run_config(tmp_path, csv_path, **extra):
    """A fast grid: 2 tasks x 2 feature sets x 2 classifiers."""
    lines = [
        f"input = demo:{csv_path}",
        "tasks = op,cl",
        "feature_sets = INT,INT+NOW",
        "classifiers = dt,gnb",
        "seed = 3",
        f"out_dir = {tmp_path / 'results'}",
    ]
    for key, value in extra.items():
        lines.append(f"{key} = {value}")
    path = tmp_path / "run.conf"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestIngest:
    def test_valid_file(self, grw_csv, capsys):
        assert main(["ingest", "--input", str(grw_csv)]) == 0
        out = capsys.readouterr().out
        assert "ok: 120 bars" in out
        assert "'grw'" in out  # market defaults to the file stem
        assert "close volatility: daily" in out

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,open,high,low,close\n2019-04-01,10,9,8,10\n", encoding="utf-8")
        assert main(["ingest", "--input", str(bad)]) == 2
        assert "error: bar invariant violated at 2019-04-01" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["ingest", "--input", str(tmp_path / "nope.csv")]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestSynth:
    def test_stdout_output_parses(self, capsys):
        assert main(["synth", "--kind", "grw", "--days", "30", "--seed", "1"]) == 0
        series = parse_csv(capsys.readouterr().out)
        assert len(series) == 30

    def test_param_override(self, tmp_path, capsys):
        out = tmp_path / "flat.csv"
        code = main(
            ["synth", "--kind", "constant", "--days", "5", "--param", "level=55", "--out", str(out)]
        )
        assert code == 0
        assert f"wrote {out}" in capsys.readouterr().out
        series = parse_csv(out.read_text(encoding="utf-8"))
        assert (series.prices("close") == 55.0).all()

    def test_bad_param_format(self, capsys):
        assert main(["synth", "--kind", "grw", "--days", "5", "--param", "level"]) == 2
        assert "expected K=V" in capsys.readouterr().err

    def test_unknown_param_name(self, capsys):
        assert main(["synth", "--kind", "grw", "--days", "5", "--param", "sigma=2"]) == 2
        assert "unknown parameters for grw" in capsys.readouterr().err

    def test_round_trips_through_ingest(self, grw_csv):
        assert main(["ingest", "--input", str(grw_csv)]) == 0


class TestFeaturize:
    def test_with_labels(self, grw_csv, tmp_path, capsys):
        out = tmp_path / "features.csv"
        assert main(["featurize", "--input", str(grw_csv), "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "date"
        assert header[-4:] == ["y_op", "y_hi", "y_lo", "y_cl"]
        assert len(header) == 1 + 16 + 4
        # 120 bars -> 101 feature rows -> 100 labeled rows
        assert len(lines) == 1 + 100

    def test_no_labels_keeps_final_row(self, grw_csv, capsys):
        assert main(["featurize", "--input", str(grw_csv), "--no-labels"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 101
        assert "y_op" not in lines[0]

    def test_no_labels_on_a_series_one_window_long(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        assert main(["synth", "--kind", "grw", "--days", "20", "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["featurize", "--input", str(path), "--no-labels"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 1

    def test_feature_set_selection(self, grw_csv, capsys):
        assert main(
            ["featurize", "--input", str(grw_csv), "--feature-set", "INT", "--no-labels"]
        ) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "date,open,high,low,close"

    def test_unknown_feature_set(self, grw_csv, capsys):
        assert main(["featurize", "--input", str(grw_csv), "--feature-set", "INT+VWAP"]) == 2
        assert "unknown feature set part" in capsys.readouterr().err


class TestRun:
    def test_small_grid(self, grw_csv, tmp_path, capsys):
        conf = small_run_config(tmp_path, grw_csv)
        assert main(["run", "--config", str(conf)]) == 0
        out = capsys.readouterr().out
        results_dir = tmp_path / "results"
        assert f"wrote {results_dir / 'results.csv'}" in out
        assert f"wrote {results_dir / 'results.json'}" in out

        records, provenance = parse_results_csv(
            (results_dir / "results.csv").read_text(encoding="utf-8")
        )
        assert len(records) == 2 * 2 * 2
        assert provenance.seed == 3
        assert len(provenance.config_hash) == 16
        # submission order: tasks outermost, then feature sets, then classifiers
        assert [(r.task, r.feature_set, r.classifier) for r in records[:3]] == [
            ("op", "INT", "dt"),
            ("op", "INT", "gnb"),
            ("op", "INT+NOW", "dt"),
        ]
        for r in records:
            assert r.n_train == 80 and r.n_test == 20

        blob = json.loads((results_dir / "results.json").read_text(encoding="utf-8"))
        assert blob["provenance"]["seed"] == 3
        assert "input = demo:" in blob["provenance"]["config"]
        assert len(blob["records"]) == 8
        assert blob["errors"] == []

    def test_inputs_via_flags_without_config_file(self, grw_csv, tmp_path):
        out_dir = tmp_path / "flagrun"
        code = main(
            [
                "run",
                "--input",
                f"demo:{grw_csv}",
                "--set",
                "tasks=op",
                "--set",
                "feature_sets=INT",
                "--set",
                "classifiers=gnb",
                "--out-dir",
                str(out_dir),
                "--seed",
                "9",
            ]
        )
        assert code == 0
        records, provenance = parse_results_csv((out_dir / "results.csv").read_text(encoding="utf-8"))
        assert len(records) == 1
        assert provenance.seed == 9

    def test_unknown_config_key_names_it(self, grw_csv, tmp_path, capsys):
        conf = small_run_config(tmp_path, grw_csv)
        assert main(["run", "--config", str(conf), "--set", "bananas=3"]) == 2
        assert "unknown config key 'bananas'" in capsys.readouterr().err

    def test_invalid_config_value(self, grw_csv, tmp_path, capsys):
        conf = small_run_config(tmp_path, grw_csv)
        assert main(["run", "--config", str(conf), "--set", "split_ratio=1.5"]) == 2
        assert "invalid config key 'split_ratio'" in capsys.readouterr().err

    def test_unknown_classifier_rejected(self, grw_csv, tmp_path, capsys):
        conf = small_run_config(tmp_path, grw_csv)
        assert main(["run", "--config", str(conf), "--set", "classifiers=dt,svm"]) == 2
        assert "'classifiers'" in capsys.readouterr().err

    def test_no_inputs(self, tmp_path, capsys):
        assert main(["run", "--set", "tasks=op", "--out-dir", str(tmp_path / "r")]) == 2
        assert "no inputs configured" in capsys.readouterr().err

    def test_cell_failures_exit_one_and_log(self, tmp_path, capsys):
        # 22 days -> 2 labeled points -> every cell's split is degenerate
        short = tmp_path / "short.csv"
        assert main(["synth", "--kind", "grw", "--days", "22", "--seed", "2", "--out", str(short)]) == 0
        capsys.readouterr()
        conf = small_run_config(tmp_path, short)
        assert main(["run", "--config", str(conf)]) == 1
        captured = capsys.readouterr()
        assert "cell failed: demo/op/INT/dt" in captured.err
        log = (tmp_path / "results" / "errors.log").read_text(encoding="utf-8").splitlines()
        provenance = Provenance.from_comment(log[0])
        assert log[0] == provenance.comment and provenance.seed == 3
        assert len(log) == 1 + 8
        assert all(line.startswith("demo/") and "degenerate split" in line for line in log[1:])
        # results.csv still exists, holding the zero successful records
        records, _ = parse_results_csv((tmp_path / "results" / "results.csv").read_text(encoding="utf-8"))
        assert records == []

    def test_rerun_removes_stale_artifacts(self, grw_csv, tmp_path):
        out_dir = tmp_path / "results"
        out_dir.mkdir()
        stale = ("errors.log", "shap_demo_op.csv", "shap_old-market_cl.csv")
        kept = ("notes.txt", "shap_demo_op.svg", "shap_summary.csv", "chart_demo_op_mcc.svg")
        for name in stale + kept:
            (out_dir / name).write_text("left by an earlier run\n", encoding="utf-8")
        assert main(["run", "--config", str(small_run_config(tmp_path, grw_csv))]) == 0
        names = {p.name for p in out_dir.iterdir()}
        assert names == {"results.csv", "results.json"} | set(kept)
        for name in kept:
            assert (out_dir / name).read_text(encoding="utf-8") == "left by an earlier run\n"

    def test_shapley_outputs(self, separable_csv, tmp_path, capsys):
        conf = small_run_config(
            tmp_path,
            separable_csv,
            shap_model="dt",
            shap_feature_set="INT+NOW",
            shap_rows="10",
            shap_background="32",
        )
        assert main(["run", "--config", str(conf)]) == 0
        shap_path = tmp_path / "results" / "shap_demo_op.csv"
        assert shap_path.exists()
        lines = shap_path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0].startswith("# provenance: tool=opentrend")
        assert lines[1] == "feature,importance"
        assert len(lines) == 2 + 7  # INT+NOW has seven features
        blob = json.loads((tmp_path / "results" / "results.json").read_text(encoding="utf-8"))
        assert set(blob["shapley"]) == {"demo/op", "demo/cl"}
        assert blob["shapley"]["demo/op"]["model"] == "dt"
        assert blob["shapley"]["demo/op"]["n_rows"] == 10

    def test_byte_determinism_across_reruns_and_workers(self, grw_csv, tmp_path):
        """Neither rerunning nor parallelism may change a single output byte."""
        bundles = []
        for tag, workers in (("a", "1"), ("b", "1"), ("c", "4")):
            out_dir = tmp_path / f"det-{tag}"
            conf = small_run_config(tmp_path, grw_csv)
            code = main(
                ["run", "--config", str(conf), "--out-dir", str(out_dir), "--workers", workers]
            )
            assert code == 0
            bundles.append(
                (
                    (out_dir / "results.csv").read_bytes(),
                    (out_dir / "results.json").read_bytes(),
                )
            )
        assert bundles[0] == bundles[1]
        assert bundles[0] == bundles[2]

    def test_cell_seed_derivation_is_frozen(self):
        """Changing the seed recipe silently would break reproducibility of
        published results, so pin the exact values."""
        assert cell_seed(0, "m", "op", "INT", "dt") == 2958975297236910052
        assert cell_seed(7, "acme", "cl", "INT+NOW", "gnb") == 15275362909154539947


class TestTable3:
    def write_results(self, tmp_path, records):
        path = tmp_path / "results.csv"
        path.write_text(
            results_csv(records, Provenance(seed=1, config_hash="deadbeefdeadbeef")),
            encoding="utf-8",
        )
        return path

    def record(self, market, task, acc, mcc_value):
        return EvalRecord(
            market=market,
            task=task,
            feature_set="INT",
            classifier="dt",
            accuracy=acc,
            mcc=mcc_value,
            n_train=80,
            n_test=20,
            effective=acc >= 0.8 and mcc_value >= 0.65,
        )

    def test_joint_rule_needs_one_cell_clearing_both(self, tmp_path, capsys):
        records = [
            # market "split": accuracy bar cleared by one cell, mcc bar by
            # another, but no single cell clears both -> effective no
            self.record("split", "op", 0.85, 0.10),
            self.record("split", "op", 0.70, 0.90),
            # market "good": one cell clears both bars
            self.record("good", "op", 0.85, 0.80),
            # market "bad": nothing clears anything
            self.record("bad", "op", 0.55, 0.05),
        ]
        path = self.write_results(tmp_path, records)
        assert main(["table3", "--results", str(path)]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("# provenance:")
        assert lines[1] == "# thresholds: accuracy>=0.800000 mcc>=0.650000"
        assert lines[2] == "market,task,implication,acc_ok,mcc_ok,effective"
        rows = {line.split(",")[0]: line for line in lines[3:]}
        assert rows["split"] == "split,op,open(t+1) > open(t),yes,yes,no"
        assert rows["good"] == "good,op,open(t+1) > open(t),yes,yes,yes"
        assert rows["bad"] == "bad,op,open(t+1) > open(t),no,no,no"

    def test_threshold_flags(self, tmp_path, capsys):
        path = self.write_results(tmp_path, [self.record("m", "cl", 0.75, 0.5)])
        assert main(
            ["table3", "--results", str(path), "--acc-threshold", "0.7", "--mcc-threshold", "0.4"]
        ) == 0
        out = capsys.readouterr().out
        assert "m,cl,open(t+1) > close(t),yes,yes,yes" in out

    def test_output_file(self, tmp_path, capsys):
        path = self.write_results(tmp_path, [self.record("m", "op", 0.9, 0.9)])
        out_path = tmp_path / "table.txt"
        assert main(["table3", "--results", str(path), "--out", str(out_path)]) == 0
        assert out_path.exists()
        assert "m,op," in out_path.read_text(encoding="utf-8")

    def test_malformed_results(self, tmp_path, capsys):
        path = tmp_path / "results.csv"
        path.write_text("not,a,results,file\n", encoding="utf-8")
        assert main(["table3", "--results", str(path)]) == 2
        assert "expected header" in capsys.readouterr().err


class TestChart:
    def test_svgs_from_run(self, grw_csv, tmp_path, capsys):
        conf = small_run_config(tmp_path, grw_csv)
        assert main(["run", "--config", str(conf)]) == 0
        capsys.readouterr()
        results = tmp_path / "results" / "results.csv"
        charts = tmp_path / "charts"
        assert main(["chart", "--results", str(results), "--out-dir", str(charts)]) == 0
        out = capsys.readouterr().out
        files = sorted(p.name for p in charts.glob("*.svg"))
        assert files == [
            "chart_demo_cl_accuracy.svg",
            "chart_demo_cl_mcc.svg",
            "chart_demo_op_accuracy.svg",
            "chart_demo_op_mcc.svg",
        ]
        assert out.count("wrote ") == 4
        for name in files:
            root = ET.fromstring((charts / name).read_text(encoding="utf-8"))
            assert root.tag.endswith("svg")
            circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
            # 4 grid cells (2 feature sets x 2 classifiers) + 3 legend circles
            assert len(circles) == 4 + 3

    def test_radius_tracks_metric(self, tmp_path):
        from opentrend.report import bubble_chart_svg

        records = [
            EvalRecord("m", "op", "INT", "dt", 0.95, 0.9, 80, 20, True),
            EvalRecord("m", "op", "INT", "gnb", 0.55, 0.1, 80, 20, False),
        ]
        svg = bubble_chart_svg(records, "m", "op", "accuracy", Provenance(seed=0, config_hash="x"))
        root = ET.fromstring(svg)
        circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
        graded = {c.find("{http://www.w3.org/2000/svg}title").text: float(c.get("r"))
                  for c in circles if c.find("{http://www.w3.org/2000/svg}title") is not None}
        assert graded["dt / INT: 0.950000"] > graded["gnb / INT: 0.550000"]

    def test_empty_cells_stay_blank(self):
        from opentrend.report import bubble_chart_svg

        records = [
            EvalRecord("m", "op", "INT", "dt", 0.9, 0.8, 80, 20, True),
            EvalRecord("m", "op", "INT+NOW", "gnb", 0.6, 0.2, 80, 20, False),
        ]
        svg = bubble_chart_svg(records, "m", "op", "mcc", Provenance(seed=0, config_hash="x"))
        root = ET.fromstring(svg)
        circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
        titled = [c for c in circles if c.find("{http://www.w3.org/2000/svg}title") is not None]
        assert len(titled) == 2  # the 2 off-diagonal grid positions are blank

    def test_unknown_metric_rejected(self):
        from opentrend.report import bubble_chart_svg

        with pytest.raises(ValueError, match="unknown chart metric"):
            bubble_chart_svg([], "m", "op", "f1", Provenance(seed=0, config_hash="x"))


class TestExplain:
    def test_planted_signal_is_attributed(self, separable_csv, tmp_path, capsys):
        out_dir = tmp_path / "explain"
        code = main(
            [
                "explain",
                "--input",
                str(separable_csv),
                "--classifier",
                "dt",
                "--feature-set",
                "INT+NOW",
                "--rows",
                "12",
                "--background",
                "32",
                "--out-dir",
                str(out_dir),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "top feature: r_cl" in out
        csv_path = out_dir / "shap_sep_op.csv"
        svg_path = out_dir / "shap_sep_op.svg"
        assert csv_path.exists() and svg_path.exists()
        lines = csv_path.read_text(encoding="utf-8").strip().splitlines()
        importance = {
            line.split(",")[0]: float(line.split(",")[1]) for line in lines[2:]
        }
        assert max(importance, key=importance.get) == "r_cl"
        root = ET.fromstring(svg_path.read_text(encoding="utf-8"))
        bars = root.findall(".//{http://www.w3.org/2000/svg}rect")
        assert len(bars) == 1 + 7  # background + one bar per feature


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("opentrend ")

    def test_subcommand_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
