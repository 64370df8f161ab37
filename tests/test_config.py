"""Run-configuration grammar, validation, hashing, and provenance lines."""

from __future__ import annotations

import pytest

from opentrend.config import (
    ConfigError,
    RunConfig,
    apply_assignments,
    load_config,
    parse_assignments,
)
from opentrend.metrics import EvalRecord
from opentrend.report import Provenance, parse_results_csv, results_csv


class TestGrammar:
    def test_comments_and_blanks_skipped(self):
        pairs = parse_assignments("# a comment\n\nseed = 4\n  # indented comment\n")
        assert pairs == [("seed", "4")]

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match=r"config:2: expected 'key = value'"):
            parse_assignments("seed = 1\nworkers 4\n")

    def test_values_may_contain_equals(self):
        # only the first '=' separates; paths with '=' survive
        pairs = parse_assignments("out_dir = /tmp/a=b\n")
        assert pairs == [("out_dir", "/tmp/a=b")]

    def test_full_example(self):
        config = load_config(
            """
            # two markets, reduced grid
            input = alpha:data/alpha.csv
            input = beta:data/beta.csv
            tasks = op,cl
            feature_sets = INT,INT+NOW
            classifiers = dt,gnb
            window_n = 20
            split_ratio = 0.8
            eval_mode = rolling
            refit_every = 5
            freeze_window = true
            seed = 11
            """
        )
        assert config.inputs == (("alpha", "data/alpha.csv"), ("beta", "data/beta.csv"))
        assert config.tasks == ("op", "cl")
        assert config.eval_mode == "rolling"
        assert config.refit_every == 5
        assert config.freeze_window is True
        assert config.seed == 11


class TestApplyAssignments:
    def test_repeated_key_in_one_pass_rejected(self):
        with pytest.raises(ConfigError, match="assigned twice"):
            apply_assignments(RunConfig(), [("seed", "1"), ("seed", "2")])

    def test_later_pass_overrides(self):
        config = apply_assignments(RunConfig(), [("seed", "1")])
        config = apply_assignments(config, [("seed", "2")], source="override")
        assert config.seed == 2

    def test_inputs_append_across_passes(self):
        config = apply_assignments(RunConfig(), [("input", "a:x.csv")])
        config = apply_assignments(config, [("input", "b:y.csv")])
        assert config.inputs == (("a", "x.csv"), ("b", "y.csv"))

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key 'alpha'"):
            apply_assignments(RunConfig(), [("alpha", "1")])

    def test_unparseable_value_names_key(self):
        with pytest.raises(ConfigError, match="invalid config key 'seed'"):
            apply_assignments(RunConfig(), [("seed", "eleven")])

    def test_bad_input_shape(self):
        with pytest.raises(ConfigError, match="expected MARKET:path"):
            apply_assignments(RunConfig(), [("input", "just_a_path.csv")])

    def test_boolean_parsing(self):
        for raw, expected in (("true", True), ("no", False), ("1", True), ("off", False)):
            config = apply_assignments(RunConfig(), [("freeze_window", raw)])
            assert config.freeze_window is expected
        with pytest.raises(ConfigError, match="'freeze_window'"):
            apply_assignments(RunConfig(), [("freeze_window", "maybe")])


class TestValidate:
    def test_defaults_are_valid(self):
        RunConfig().validate()

    @pytest.mark.parametrize(
        "key,value",
        [
            ("window_n", "0"),
            ("split_ratio", "1.0"),
            ("eval_mode", "jackknife"),
            ("refit_every", "0"),
            ("workers", "0"),
            ("shap_mode", "kernel"),
            ("shap_background", "0"),
            ("shap_model", "resnet"),
            ("acc_threshold", "nan"),
            ("acc_threshold", "5"),
            ("acc_threshold", "-2"),
            ("mcc_threshold", "nan"),
            ("mcc_threshold", "5"),
            ("mcc_threshold", "-2"),
        ],
    )
    def test_out_of_range_values_name_the_key(self, key, value):
        config = apply_assignments(RunConfig(), [(key, value)])
        with pytest.raises(ConfigError, match=f"'{key}'"):
            config.validate()

    def test_bad_task_code(self):
        config = apply_assignments(RunConfig(), [("tasks", "op,volatility")])
        with pytest.raises(ConfigError, match="'tasks'"):
            config.validate()

    def test_bad_feature_set(self):
        config = apply_assignments(RunConfig(), [("feature_sets", "INT,INT+RSI")])
        with pytest.raises(ConfigError, match="'feature_sets'"):
            config.validate()

    def test_duplicate_market(self):
        config = apply_assignments(RunConfig(), [("input", "a:x.csv"), ("input", "a:y.csv")])
        with pytest.raises(ConfigError, match="duplicate market"):
            config.validate()

    def test_zero_band_multipliers_allowed(self):
        config = apply_assignments(RunConfig(), [("bollinger_k", "0"), ("keltner_k", "0")])
        config.validate()


class TestHashing:
    def test_hash_is_16_hex_chars(self):
        h = RunConfig().config_hash
        assert len(h) == 16
        int(h, 16)

    def test_hash_changes_with_computation_fields(self):
        base = RunConfig()
        changed = apply_assignments(base, [("seed", "99")])
        assert base.config_hash != changed.config_hash

    def test_hash_ignores_execution_fields(self):
        base = RunConfig()
        moved = apply_assignments(base, [("out_dir", "elsewhere"), ("workers", "16")])
        assert base.config_hash == moved.config_hash
        assert "workers" not in base.canonical_text()
        assert "out_dir" not in base.canonical_text()

    def test_canonical_text_round_trips(self):
        config = apply_assignments(
            RunConfig(),
            [("input", "a:x.csv"), ("tasks", "op,cl"), ("split_ratio", "0.75"), ("seed", "5")],
        )
        again = apply_assignments(RunConfig(), parse_assignments(config.canonical_text()))
        assert again.config_hash == config.config_hash


class TestProvenance:
    def test_comment_round_trip(self):
        p = Provenance(seed=42, config_hash="0123456789abcdef", version="0.1.0")
        again = Provenance.from_comment(p.comment)
        assert again == p

    def test_results_csv_round_trip(self):
        records = [
            EvalRecord("m", "op", "INT", "dt", 0.75, 0.5, 80, 20, False),
            EvalRecord("m", "cl", "INT+NOW", "xgb*", 0.85, 0.7, 80, 20, True),
        ]
        p = Provenance(seed=3, config_hash="feedface00000000")
        text = results_csv(records, p)
        parsed, parsed_p = parse_results_csv(text)
        assert parsed_p == p
        assert len(parsed) == 2
        assert parsed[1].classifier == "xgb*"
        assert parsed[1].effective is True
        assert parsed[0].accuracy == pytest.approx(0.75)

    def test_metric_formatting_is_fixed_width(self):
        records = [EvalRecord("m", "op", "INT", "dt", 1 / 3, -1 / 7, 80, 20, False)]
        text = results_csv(records, Provenance(seed=0, config_hash="x"))
        assert "0.333333,-0.142857" in text
