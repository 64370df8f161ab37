"""Run configuration: a flat key = value text format plus overrides.

Grammar (one setting per line)::

    # comment                      blank lines and #-comments are skipped
    key = value                    keys may not repeat ...
    input = MARKET:path.csv        ... except `input`, which may
    tasks = op,hi,lo,cl            lists are comma-separated
    feature_sets = INT,INT+NOW
    bollinger_paper_literal = false   booleans are true/false

Unknown keys, unparseable values, and out-of-range settings all raise
ConfigError (CLI exit code 2) naming the offending key.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, replace

from opentrend.features import FeatureSetMask, NAMED_FEATURE_SETS
from opentrend.labeling import TaskKind
from opentrend.learners import PRESET_NAMES
from opentrend.metrics import ACC_THRESHOLD, MCC_THRESHOLD

SHAP_FEATURE_SET_DEFAULT = "INT+HIST+NOW"


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a grid run needs; every field has a CLI/file override."""

    inputs: tuple[tuple[str, str], ...] = ()
    window_n: int = 20
    bollinger_k: float = 2.0
    keltner_k: float = 2.0
    bollinger_paper_literal: bool = False
    split_ratio: float = 0.8
    eval_mode: str = "static"
    refit_every: int = 1
    freeze_window: bool = False
    tasks: tuple[str, ...] = ("op", "hi", "lo", "cl")
    feature_sets: tuple[str, ...] = NAMED_FEATURE_SETS
    classifiers: tuple[str, ...] = PRESET_NAMES
    seed: int = 0
    workers: int = 1  # accepted and validated for existing configs; the grid always runs serially
    acc_threshold: float = ACC_THRESHOLD
    mcc_threshold: float = MCC_THRESHOLD
    shap_model: str = ""
    shap_mode: str = "exact"
    shap_feature_set: str = SHAP_FEATURE_SET_DEFAULT
    shap_background: int = 128
    shap_rows: int = 100
    shap_permutations: int = 200
    out_dir: str = "results"

    def validate(self) -> "RunConfig":
        _check(self.window_n >= 1, "window_n", self.window_n)
        _check(self.bollinger_k >= 0, "bollinger_k", self.bollinger_k)
        _check(self.keltner_k >= 0, "keltner_k", self.keltner_k)
        _check(0.0 < self.split_ratio < 1.0, "split_ratio", self.split_ratio)
        _check(self.eval_mode in ("static", "rolling"), "eval_mode", self.eval_mode)
        _check(self.refit_every >= 1, "refit_every", self.refit_every)
        _check(len(self.tasks) > 0, "tasks", self.tasks)
        for code in self.tasks:
            try:
                TaskKind.from_code(code)
            except ValueError as exc:
                raise ConfigError(f"invalid config key 'tasks': {exc}") from None
        _check(len(self.feature_sets) > 0, "feature_sets", self.feature_sets)
        for name in self.feature_sets:
            try:
                FeatureSetMask.from_name(name)
            except ValueError as exc:
                raise ConfigError(f"invalid config key 'feature_sets': {exc}") from None
        _check(len(self.classifiers) > 0, "classifiers", self.classifiers)
        for name in self.classifiers:
            _check(name in PRESET_NAMES, "classifiers", name)
        _check(self.workers >= 1, "workers", self.workers)
        _check(0.0 <= self.acc_threshold <= 1.0, "acc_threshold", self.acc_threshold)
        _check(-1.0 <= self.mcc_threshold <= 1.0, "mcc_threshold", self.mcc_threshold)
        _check(self.shap_model in ("",) + PRESET_NAMES, "shap_model", self.shap_model)
        _check(self.shap_mode in ("exact", "sampled"), "shap_mode", self.shap_mode)
        try:
            FeatureSetMask.from_name(self.shap_feature_set)
        except ValueError as exc:
            raise ConfigError(f"invalid config key 'shap_feature_set': {exc}") from None
        _check(self.shap_background >= 1, "shap_background", self.shap_background)
        _check(self.shap_rows >= 1, "shap_rows", self.shap_rows)
        _check(self.shap_permutations >= 1, "shap_permutations", self.shap_permutations)
        seen = set()
        for market, _path in self.inputs:
            _check(market not in seen, "input", f"duplicate market {market!r}")
            seen.add(market)
        return self

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


def _check(ok: bool, key: str, value) -> None:
    if not ok:
        raise ConfigError(f"invalid config key {key!r}: bad value {value!r}")


# one (parser, help) entry per assignable key
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


_FIELD_PARSERS = {
    "window_n": int,
    "bollinger_k": float,
    "keltner_k": float,
    "bollinger_paper_literal": _parse_bool,
    "split_ratio": float,
    "eval_mode": str.strip,
    "refit_every": int,
    "freeze_window": _parse_bool,
    "tasks": _parse_list,
    "feature_sets": _parse_list,
    "classifiers": _parse_list,
    "seed": int,
    "workers": int,
    "acc_threshold": float,
    "mcc_threshold": float,
    "shap_model": str.strip,
    "shap_mode": str.strip,
    "shap_feature_set": str.strip,
    "shap_background": int,
    "shap_rows": int,
    "shap_permutations": int,
    "out_dir": str.strip,
}


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
    """Fold key=value pairs onto a config; later values win, inputs append."""
    updates: dict = {}
    inputs = list(config.inputs)
    seen: set[str] = set()
    for key, raw in pairs:
        if key == "input":
            market, sep, path = raw.partition(":")
            if not sep or not market.strip() or not path.strip():
                raise ConfigError(f"{source}: invalid config key 'input': expected MARKET:path, got {raw!r}")
            inputs.append((market.strip(), path.strip()))
            continue
        if key not in _FIELD_PARSERS:
            raise ConfigError(f"{source}: unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"{source}: config key {key!r} assigned twice")
        seen.add(key)
        try:
            updates[key] = _FIELD_PARSERS[key](raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{source}: invalid config key {key!r}: {exc}") from None
    return replace(config, inputs=tuple(inputs), **updates)


def load_config(text: str, overrides: list[tuple[str, str]] | None = None) -> RunConfig:
    """Parse config text, apply overrides on top, and validate the result."""
    config = apply_assignments(RunConfig(), parse_assignments(text))
    if overrides:
        config = apply_assignments(config, overrides, source="override")
    return config.validate()
