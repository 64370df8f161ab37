"""The benchmark's workloads, its generated market and the bundle checks.

Every workload runs one ``opentrend.run.cmd_run`` on the same paper-scale
market (separable regime, signal strength 0.6, 1256 days, so 1236 labeled
points split 989/247).  The market is written to one fixed relative path,
because the canonical config text, and with it every artifact's provenance
line, embeds the input path: a moving path would change the bundle bytes.

Markets come from a pool of ``MARKET_CLASSES`` generator seeds; the class is
also the config's run seed.  A run's repetitions walk the pool cyclically
from ``seed mod MARKET_CLASSES`` on, one market per repetition.  cmd_run time
varies by up to 2x between markets, so a run that drew one market would
measure the draw; a run that walks the whole pool reports medians that differ
from run to run by machine noise only.  Every bundle is checked against the
committed sha256 digests in ``digests.json``, whatever the seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"
PRESET_TABLE_PATH = HERE / "preset_table.json"

#: scratch space for the market and the bundles, relative to the checkout root
WORK = Path("perfbench") / "_work"
MARKET_CSV = WORK / "market.csv"
MARKET_TAG = "sep"
MARKET_DAYS = 1256
SIGNAL_STRENGTH = 0.6
MARKET_CLASSES = 8

#: a Shapley row fails the oracle check when phi misses f(x) - E[f] by more
EFFICIENCY_TOLERANCE = 1e-6


class MissingSource(RuntimeError):
    """The checkout does not hold the opentrend sources to benchmark."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    settings: str  # config lines on top of the shared input, seed and out_dir

    def config_text(self, market_class: int, out_dir: str) -> str:
        return (
            f"input = {MARKET_TAG}:{MARKET_CSV.as_posix()}\n"
            f"seed = {market_class}\n"
            f"out_dir = {out_dir}\n" + self.settings
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid-static",
            why="10 static cells with xgb on 4 and 16 columns on two pool threads, no Shapley: tree grower and pool",
            settings=(
                "tasks = op\n"
                "feature_sets = INT,INT+HIST+NOW\n"
                "classifiers = dt,gnb,knn,logreg,xgb\n"
                "eval_mode = static\n"
                "workers = 2\n"
            ),
        ),
        Workload(
            name="rolling-small-calls",
            why="372 rolling refits, 741 one-row predicts and 3202 unbatched sampled-Shapley scores: per-call overhead",
            settings=(
                "tasks = op\n"
                "feature_sets = INT+HIST+NOW\n"
                "classifiers = gnb,dt,knn\n"
                "eval_mode = rolling\n"
                "refit_every = 2\n"
                "workers = 1\n"
                "shap_model = dt\n"
                "shap_mode = sampled\n"
                "shap_feature_set = INT+HIST+NOW\n"
                "shap_rows = 1\n"
            ),
        ),
        Workload(
            name="shap-exact",
            why="exact Shapley over 2^16 coalitions x 128 background rows through the dt scorer: attribution",
            settings=(
                "tasks = op\n"
                "feature_sets = INT\n"
                "classifiers = gnb\n"
                "workers = 1\n"
                "shap_model = dt\n"
                "shap_mode = exact\n"
                "shap_feature_set = INT+HIST+NOW\n"
                "shap_background = 128\n"
                "shap_rows = 1\n"
            ),
        ),
    )
}


def use_checkout_source() -> None:
    """Import opentrend from this checkout's ``src`` and work from its root.

    Refuses to run against any other copy of the package, so that a directory
    holding only the benchmark fails instead of measuring an installed copy.
    """
    package = SRC / "opentrend"
    if not (package / "__init__.py").is_file():
        raise MissingSource(f"no opentrend sources at {package.relative_to(ROOT)} in this checkout")
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import opentrend

    if Path(opentrend.__file__).resolve().parent != package.resolve():
        raise MissingSource(f"opentrend was imported from {opentrend.__file__}, not from this checkout")


def market_classes(seed: int):
    """The markets one run walks through: seed mod MARKET_CLASSES, then the next ones, cyclically."""
    klass = seed % MARKET_CLASSES
    while True:
        yield klass
        klass = (klass + 1) % MARKET_CLASSES


def write_market(klass: int) -> None:
    """Generate the market for one class and write it to the fixed path."""
    from opentrend.ohlc import serialize_csv
    from opentrend.synth import GenSpec, generate

    spec = GenSpec(
        kind="separable",
        days=MARKET_DAYS,
        seed=klass,
        params={"signal_strength": SIGNAL_STRENGTH},
        market=MARKET_TAG,
    )
    MARKET_CSV.parent.mkdir(parents=True, exist_ok=True)
    MARKET_CSV.write_text(serialize_csv(generate(spec)), encoding="utf-8", newline="\n")


def bundle_digests(written: list[str]) -> dict[str, str]:
    """sha256 of every artifact a run wrote, keyed by file name."""
    return {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in sorted(written)}


def efficiency_failures(outcome) -> int:
    """Shapley cells with a row whose phi does not sum to f(x) - E[f]."""
    return sum(
        any(row.efficiency_residual > EFFICIENCY_TOLERANCE for row in report.rows)
        for report in outcome.shapley.values()
    )


def grid_size(config) -> tuple[int, int]:
    """(grid cells, Shapley cells) one cmd_run of this config attempts."""
    markets = len(config.inputs)
    cells = markets * len(config.tasks) * len(config.feature_sets) * len(config.classifiers)
    return cells, (markets * len(config.tasks) if config.shap_model else 0)


def environment() -> dict:
    """What the numbers depend on besides the code: cores, Python, numpy, BLAS."""
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "thread_env": {
            key: os.environ[key]
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
    }


def load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def write_json(path: Path, blob: dict) -> None:
    path.write_text(json.dumps(blob, indent=2, sort_keys=True) + "\n", encoding="utf-8")
