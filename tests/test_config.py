"""Run-configuration grammar, validation, hashing, and provenance lines."""

from __future__ import annotations

import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import OWNER_TEXT
from opentrend import __version__
from opentrend.config import (
    ConfigError,
    RunConfig,
    apply_assignments,
    load_config,
    parse_assignments,
)
from opentrend.dataset import DEFAULT_SPLIT_RATIO, split
from opentrend.explain import DEFAULT_PERMUTATIONS, global_importance, shapley_sampled
from opentrend.metrics import EvalRecord
from opentrend.report import RESULTS_HEADER, Provenance, parse_results_csv, results_csv


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

    def test_defaults_have_one_owner(self):
        """The split ratio and the ordering count default to the constants their users default to."""
        config = RunConfig()
        assert config.split_ratio == DEFAULT_SPLIT_RATIO == inspect.signature(split).parameters["ratio"].default
        assert config.shap_permutations == DEFAULT_PERMUTATIONS
        for fn in (shapley_sampled, global_importance):
            assert inspect.signature(fn).parameters["n_permutations"].default == DEFAULT_PERMUTATIONS

    @pytest.mark.parametrize(
        "key,value",
        [
            ("window_n", "0"),
            ("bollinger_k", "inf"),
            ("keltner_k", "inf"),
            ("split_ratio", "1.0"),
            ("eval_mode", "jackknife"),
            ("refit_every", "0"),
            ("workers", "0"),
            ("shap_mode", "kernel"),
            ("shap_background", "0"),
            ("shap_model", "resnet"),
            ("shap_rows", "0"),
            ("shap_permutations", "0"),
            ("split_ratio", "0"),
            ("split_ratio", "nan"),
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
        with pytest.raises(ConfigError, match=f"'{key}'") as refused:
            config.validate()
        assert OWNER_TEXT.get(key, "") in str(refused.value)

    @pytest.mark.parametrize("key", ["shap_background", "shap_rows", "shap_permutations"])
    @pytest.mark.parametrize("value", [True, 2.5, 3.0])
    def test_non_integer_sizes_name_the_key(self, key, value):
        """A bool or a float is no count, though True compares as 1 and 2.5 passes >= 1."""
        with pytest.raises(ConfigError, match=f"invalid config key '{key}': .* must be an integer, got {value!r}"):
            RunConfig(**{key: value}).validate()

    @pytest.mark.parametrize("key", ["bollinger_paper_literal", "freeze_window"])
    @pytest.mark.parametrize("value", ["false", "no", "true", 0, 1, np.True_])
    def test_non_bool_flags_name_the_key(self, key, value):
        """Only a bool is a flag: the string "false" or "no" is truthy and would switch the flag on."""
        message = f"invalid config key '{key}': {key} must be a bool, got {value!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            RunConfig(**{key: value}).validate()

    def test_numpy_integer_sizes_accepted(self):
        config = RunConfig(shap_background=np.int64(64), shap_rows=np.int32(3), shap_permutations=np.uint16(20))
        assert config.validate().shap_permutations == 20

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

    def test_market_tag_with_comma_refused(self):
        # results.csv is comma-separated: the tag would add a field to its row
        config = apply_assignments(RunConfig(), [("input", "a,b:x.csv")])
        with pytest.raises(ConfigError, match=r"invalid config key 'input': market 'a,b' contains ','"):
            config.validate()

    @pytest.mark.parametrize("market", ["a\nb", "a\r\nb", "a\rb", "a\u2028b", "a\n"])
    def test_market_tag_with_line_break_refused(self, market):
        # results.csv holds one record per line: the tag would split its row
        config = RunConfig(inputs=((market, "x.csv"),))
        with pytest.raises(ConfigError, match=r"invalid config key 'input': market .* contains a line break"):
            config.validate()

    def test_market_tag_starting_with_hash_accepted(self):
        # a record row is never read as a comment, so the tag round-trips
        config = apply_assignments(RunConfig(), [("input", "#x:x.csv")])
        assert config.validate().inputs == (("#x", "x.csv"),)

    @pytest.mark.parametrize("first,second", [("a.b", "a-b"), ("a b", "a/b")])
    def test_market_tags_sharing_a_file_name_refused(self, first, second):
        config = apply_assignments(RunConfig(), [("input", f"{first}:x.csv"), ("input", f"{second}:y.csv")])
        with pytest.raises(ConfigError, match="invalid config key 'input'"):
            config.validate()

    def test_distinct_file_names_accepted(self):
        config = apply_assignments(RunConfig(), [("input", "a.b:x.csv"), ("input", "a_b:y.csv")])
        assert config.validate().inputs == (("a.b", "x.csv"), ("a_b", "y.csv"))

    @pytest.mark.parametrize(
        "key,spelled,canonical",
        [
            ("tasks", "OP, Cl", "op,cl"),
            ("feature_sets", "now+int,hist+Int", "INT+NOW,INT+HIST"),
            ("shap_feature_set", "now+dc+kc+bb+int", "INT+HIST+NOW"),
        ],
    )
    def test_names_made_canonical_before_hashing(self, key, spelled, canonical):
        want = apply_assignments(RunConfig(), [(key, canonical)])
        assert want.validate() == want
        assert apply_assignments(RunConfig(), [(key, spelled)]).validate() == want

    def test_task_code_case_hashes_alike(self):
        upper = load_config("tasks = OP\n")
        assert upper.tasks == ("op",)
        assert upper.config_hash == load_config("tasks = op\n").config_hash

    @pytest.mark.parametrize(
        "key,value",
        [("tasks", "op,OP"), ("feature_sets", "INT+NOW,NOW+INT"), ("classifiers", "dt,dt")],
    )
    def test_repeated_grid_entry_names_the_key(self, key, value):
        config = apply_assignments(RunConfig(), [(key, value)])
        with pytest.raises(ConfigError, match=f"'{key}': repeated entry"):
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


#: text a results.csv cell can hold: no ',', no line break, no whitespace at the ends (a line is stripped)
CELL_TEXT = st.text(st.characters(blacklist_categories=("Cc", "Cs"), blacklist_characters=",")).filter(
    lambda s: s == s.strip() and s.splitlines() in ([], [s])
)
#: a metric results.csv holds exactly: a finite float already rounded to its six written decimals
METRIC = st.floats(-1e6, 1e6).map(lambda x: float(f"{x:.6f}"))
RECORDS = st.builds(
    EvalRecord,
    CELL_TEXT,
    CELL_TEXT,
    CELL_TEXT,
    CELL_TEXT,
    METRIC,
    METRIC,
    st.integers(-(2**63), 2**63),
    st.integers(-(2**63), 2**63),
    st.booleans(),
)


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

    def test_results_header_is_the_documented_one(self):
        # the columns are EvalRecord's fields in order: reordering them changes the file format
        assert RESULTS_HEADER == "market,task,feature_set,classifier,accuracy,mcc,n_train,n_test,effective"
        assert results_csv([], Provenance(seed=0, config_hash="x")).splitlines()[1] == RESULTS_HEADER

    def test_cells_are_written_by_field_type(self):
        records = [EvalRecord("m", "op", "INT", "dt", 1, 0, 80, 20, True)]
        text = results_csv(records, Provenance(seed=0, config_hash="x"))
        assert text.splitlines()[2] == "m,op,INT,dt,1.000000,0.000000,80,20,true"

    def test_hash_leading_line_after_header_is_a_record(self):
        records = [
            EvalRecord("#x", "op", "INT", "dt", 0.75, 0.5, 80, 20, False),
            EvalRecord("# provenance: seed=9", "op", "INT", "gnb", 0.85, 0.7, 80, 20, True),
        ]
        p = Provenance(seed=3, config_hash="feedface00000000")
        assert parse_results_csv(results_csv(records, p)) == (records, p)

    def test_comment_after_header_is_refused(self):
        text = f"{RESULTS_HEADER}\n# a note\n"
        with pytest.raises(ValueError, match="line 2: expected 9 fields, got 1"):
            parse_results_csv(text)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "\n",
            pytest.param(  # a whole provenance line, so that only the missing header is at fault
                f"# provenance: tool=opentrend version={__version__} seed=1 config=x\n# note\n",
                id="# provenance: tool=opentrend seed=1 config=x\n# note\n",
            ),
        ],
    )
    def test_file_without_header_refused(self, text):
        with pytest.raises(ValueError, match="no results header found"):
            parse_results_csv(text)

    def test_bad_cell_names_its_line(self):
        text = f"# note\n{RESULTS_HEADER}\nm,op,INT,dt,high,0.5,80,20,false\n"
        with pytest.raises(ValueError, match="line 3: could not convert"):
            parse_results_csv(text)

    def test_metric_formatting_is_fixed_width(self):
        records = [EvalRecord("m", "op", "INT", "dt", 1 / 3, -1 / 7, 80, 20, False)]
        text = results_csv(records, Provenance(seed=0, config_hash="x"))
        assert "0.333333,-0.142857" in text

    @pytest.mark.parametrize(
        "line",
        [
            "# provenance: nothing here",
            f"# provenance: tool=opentrend version={__version__} config=x",
            f"# provenance: tool=opentrend version={__version__} seed=+07 config=x",
            f"# provenance: tool=opentrend version={__version__} seed=7 config=x extra=1",
            f"# provenance: tool=opentrend version={__version__} seed=7 seed=7 config=x",
            f"# provenance: version={__version__} tool=opentrend seed=7 config=x",
        ],
        ids=["no-fields", "no-seed", "signed-seed", "unknown-key", "repeated-key", "reordered"],
    )
    def test_provenance_comment_writes_never_is_refused(self, line):
        with pytest.raises(ValueError, match=f"^line 2: {re.escape(repr(line))} is not a provenance line opentrend writes$"):
            parse_results_csv(f"# note\n{line}\n{RESULTS_HEADER}\n")
        again = Provenance(seed=7, config_hash="x")
        assert parse_results_csv(f"# note\n{again.comment}\n{RESULTS_HEADER}\n") == ([], again)

    def test_malformed_provenance_names_its_line(self):
        text = f"# note\n# provenance: tool=opentrend seed=abc config=x\n{RESULTS_HEADER}\n"
        with pytest.raises(ValueError, match="^line 2: invalid literal for int"):
            parse_results_csv(text)

    @pytest.mark.parametrize(
        "column,cell",
        [
            ("effective", "True"),
            ("effective", "1"),
            ("accuracy", "nan"),
            ("mcc", "inf"),
            ("accuracy", "0.8"),
            ("n_train", "080"),
        ],
    )
    def test_cell_results_csv_never_writes_is_refused(self, column, cell):
        written = results_csv(
            [EvalRecord("m", "op", "INT", "dt", 0.8, 0.5, 80, 20, True)], Provenance(seed=0, config_hash="x")
        )
        header, row = written.splitlines()[1:]
        cells = row.split(",")
        cells[header.split(",").index(column)] = cell
        with pytest.raises(ValueError, match=f"^line 3: .*\\(column '{column}'\\)$"):
            parse_results_csv(written.replace(row, ",".join(cells)))

    def test_non_finite_metric_is_not_written(self):
        with pytest.raises(ValueError, match="non-finite metric nan"):
            results_csv([EvalRecord("m", "op", "INT", "dt", math.nan, 0.5, 80, 20, False)], Provenance(0, "x"))

    @given(st.lists(RECORDS, max_size=5))
    def test_every_written_file_reads_back_its_records(self, records):
        p = Provenance(seed=7, config_hash="feedface00000000")
        assert parse_results_csv(results_csv(records, p)) == (records, p)
