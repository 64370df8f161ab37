"""Run configuration: a flat key = value text format plus overrides.

Grammar (one setting per line)::

    # comment                      blank lines and #-comments are skipped
    key = value                    keys may not repeat ...
    input = MARKET:path.csv        ... except `input`, which may
    tasks = op,hi,lo,cl            lists are comma-separated
    feature_sets = INT,INT+NOW
    bollinger_paper_literal = false   booleans are true/false

Unknown keys, unparseable values, out-of-range settings, a list entry
that repeats another and a market tag that holds a comma or names its files
like another market's all raise ConfigError (CLI exit code 2) naming the
offending key.  Task codes and feature-set names are made canonical
(``OP`` -> ``op``, ``now+int`` -> ``INT+NOW``) before that check and before
hashing.

A range rule is not copied here: ``validate`` asks the code that uses the
value (``IndicatorParams``, ``EvalMode``, ``dataset.train_fraction``,
``preset``, the ``explain`` functions), and the error after the key is its.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, replace

from opentrend.dataset import DEFAULT_SPLIT_RATIO, EvalMode, train_fraction
from opentrend.explain import (
    DEFAULT_BACKGROUND_SIZE,
    DEFAULT_PERMUTATIONS,
    DEFAULT_ROW_SUBSAMPLE,
    SHAP_EXACT,
    at_least_one,
    attribution_mode,
)
from opentrend.features import FeatureSetMask, NAMED_FEATURE_SETS
from opentrend.indicators import IndicatorParams
from opentrend.labeling import ALL_TASKS, TaskKind
from opentrend.learners import PRESET_NAMES, preset
from opentrend.metrics import ACC_THRESHOLD, MCC_THRESHOLD

SHAP_FEATURE_SET_DEFAULT = "INT+HIST+NOW"


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a grid run needs; every field has a CLI/file override."""

    inputs: tuple[tuple[str, str], ...] = ()
    window_n: int = IndicatorParams.window_n
    bollinger_k: float = IndicatorParams.bollinger_k
    keltner_k: float = IndicatorParams.keltner_k
    bollinger_paper_literal: bool = IndicatorParams.bollinger_paper_literal
    split_ratio: float = DEFAULT_SPLIT_RATIO
    eval_mode: str = EvalMode.kind
    refit_every: int = EvalMode.refit_every
    freeze_window: bool = EvalMode.freeze_window
    tasks: tuple[str, ...] = tuple(task.value for task in ALL_TASKS)
    feature_sets: tuple[str, ...] = NAMED_FEATURE_SETS
    classifiers: tuple[str, ...] = PRESET_NAMES
    seed: int = 0
    workers: int = 1  # accepted and validated for existing configs; the grid always runs serially
    acc_threshold: float = ACC_THRESHOLD
    mcc_threshold: float = MCC_THRESHOLD
    shap_model: str = ""
    shap_mode: str = SHAP_EXACT
    shap_feature_set: str = SHAP_FEATURE_SET_DEFAULT
    shap_background: int = DEFAULT_BACKGROUND_SIZE
    shap_rows: int = DEFAULT_ROW_SUBSAMPLE
    shap_permutations: int = DEFAULT_PERMUTATIONS
    out_dir: str = "results"

    def validate(self) -> "RunConfig":
        """Check every value; return the config with canonical task and feature-set names."""
        _keyed("window_n", IndicatorParams, window_n=self.window_n)
        _keyed("bollinger_k", IndicatorParams, bollinger_k=self.bollinger_k)
        _keyed("keltner_k", IndicatorParams, keltner_k=self.keltner_k)
        _keyed("bollinger_paper_literal", IndicatorParams, bollinger_paper_literal=self.bollinger_paper_literal)
        _keyed("split_ratio", train_fraction, self.split_ratio)
        _keyed("eval_mode", EvalMode, kind=self.eval_mode)
        _keyed("refit_every", EvalMode, refit_every=self.refit_every)
        _keyed("freeze_window", EvalMode, freeze_window=self.freeze_window)
        tasks = _canonical_grid("tasks", self.tasks, lambda code: TaskKind.from_code(code).value)
        feature_sets = _canonical_grid("feature_sets", self.feature_sets, _feature_set_name)
        classifiers = _canonical_grid("classifiers", self.classifiers, _preset_name)
        _check(self.workers >= 1, "workers", self.workers)
        _check(0.0 <= self.acc_threshold <= 1.0, "acc_threshold", self.acc_threshold)
        _check(-1.0 <= self.mcc_threshold <= 1.0, "mcc_threshold", self.mcc_threshold)
        if self.shap_model:
            _keyed("shap_model", preset, self.shap_model)
        _keyed("shap_mode", attribution_mode, self.shap_mode)
        (shap_feature_set,) = _canonical_grid("shap_feature_set", (self.shap_feature_set,), _feature_set_name)
        # the sizes explain.background_sample, row_subsample and shapley_sampled refuse
        _keyed("shap_background", at_least_one, "background size", self.shap_background)
        _keyed("shap_rows", at_least_one, "attributed row count", self.shap_rows)
        _keyed("shap_permutations", at_least_one, "n_permutations", self.shap_permutations)
        markets: dict[str, str] = {}  # file name tag -> market; the tag names the market's artifacts
        for market, _path in self.inputs:
            tag = safe_name(market)
            if tag in markets:
                other = markets[tag]
                if other == market:
                    raise ConfigError(f"invalid config key 'input': duplicate market {market!r}")
                raise ConfigError(
                    f"invalid config key 'input': markets {other!r} and {market!r} share file names ({tag!r})"
                )
            if "," in market:  # results.csv is comma-separated
                raise ConfigError(f"invalid config key 'input': market {market!r} contains ','")
            if "".join(market.splitlines()) != market:  # and has one record per line
                raise ConfigError(f"invalid config key 'input': market {market!r} contains a line break")
            markets[tag] = market
        return replace(
            self, tasks=tasks, feature_sets=feature_sets, classifiers=classifiers, shap_feature_set=shap_feature_set
        )

    def canonical_text(self) -> str:
        """Deterministic serialization used for hashing and provenance.

        Excludes ``workers`` and ``out_dir``: they change where and how fast
        results are computed, never what is computed, so reruns that differ
        only in parallelism or output location hash identically.
        """
        lines = [f"input = {market}:{path}" for market, path in self.inputs]
        for f in sorted(fields(self), key=lambda f: f.name):
            if f.name in ("inputs", "workers", "out_dir"):
                continue
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                rendered = ",".join(str(v) for v in value)
            elif isinstance(value, bool):
                rendered = "true" if value else "false"
            elif isinstance(value, float):
                rendered = repr(value)
            else:
                rendered = str(value)
            lines.append(f"{f.name} = {rendered}")
        return "\n".join(lines) + "\n"

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()[:16]


def safe_name(name: str) -> str:
    """A market tag made safe for use inside an artifact file name."""
    return "".join(ch if ch.isalnum() or ch in "-_" else "-" for ch in name)


def _check(ok: bool, key: str, value) -> None:
    if not ok:
        raise ConfigError(f"invalid config key {key!r}: bad value {value!r}")


def _keyed(key: str, build, *args, **kwargs):
    """build(*args, **kwargs), with a ValueError it raises turned into a ConfigError naming key."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid config key {key!r}: {exc}") from None


def _canonical_grid(key: str, values: tuple[str, ...], canonical) -> tuple[str, ...]:
    """The canonical spelling of each entry of a non-empty list; repeats are refused."""
    _check(len(values) > 0, key, values)
    names = _keyed(key, tuple, map(canonical, values))
    for i, name in enumerate(names):
        if name in names[:i]:
            first = values[names.index(name)]
            raise ConfigError(f"invalid config key {key!r}: repeated entry {name!r} ({first!r}, {values[i]!r})")
    return names


def _feature_set_name(name: str) -> str:
    return FeatureSetMask.from_name(name).name


def _preset_name(name: str) -> str:
    preset(name)  # refuses an unknown name
    return name


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected true/false, got {raw!r}")


def _parse_list(raw: str) -> tuple[str, ...]:
    items = tuple(part.strip() for part in raw.split(",") if part.strip())
    if not items:
        raise ValueError("empty list")
    return items


def _parser_for(default):
    """The text parser of a key, chosen by the type of its field's default."""
    if isinstance(default, bool):  # before int: bool is a subclass of int
        return _parse_bool
    if isinstance(default, (int, float)):
        return type(default)
    if isinstance(default, tuple):
        return _parse_list
    return str.strip


# every field is an assignable key except inputs, which `input` lines append to
_FIELD_PARSERS = {f.name: _parser_for(f.default) for f in fields(RunConfig) if f.name != "inputs"}


def parse_assignments(text: str, source: str = "config") -> list[tuple[str, str]]:
    """Split config text into (key, raw value) pairs, preserving order."""
    pairs: list[tuple[str, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        pairs.append((key.strip(), raw.strip()))
    return pairs


def apply_assignments(config: RunConfig, pairs: list[tuple[str, str]], source: str = "config") -> RunConfig:
    """Fold key=value pairs onto a config; later values win, inputs append.

    Errors start with ``source``, or name only the key when ``source`` is empty.
    """
    where = f"{source}: " if source else ""
    updates: dict = {}
    inputs = list(config.inputs)
    seen: set[str] = set()
    for key, raw in pairs:
        if key == "input":
            market, sep, path = raw.partition(":")
            if not sep or not market.strip() or not path.strip():
                raise ConfigError(f"{where}invalid config key 'input': expected MARKET:path, got {raw!r}")
            inputs.append((market.strip(), path.strip()))
            continue
        if key not in _FIELD_PARSERS:
            raise ConfigError(f"{where}unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"{where}config key {key!r} assigned twice")
        seen.add(key)
        try:
            updates[key] = _FIELD_PARSERS[key](raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{where}invalid config key {key!r}: {exc}") from None
    return replace(config, inputs=tuple(inputs), **updates)


def load_config(
    text: str,
    overrides: list[tuple[str, str]] | None = None,
    source: str = "config",
    flags: list[tuple[str, str]] | None = None,
) -> RunConfig:
    """Parse config text, apply overrides and then settings flags on top, and validate the result.

    ``source`` names the text (a file path) in error messages, and
    ``override`` names the overrides; a settings flag stands for its own key,
    so its errors name only the key, as ``validate``'s do.
    """
    config = apply_assignments(RunConfig(), parse_assignments(text, source), source)
    if overrides:
        config = apply_assignments(config, overrides, source="override")
    if flags:
        config = apply_assignments(config, flags, source="")
    return config.validate()
