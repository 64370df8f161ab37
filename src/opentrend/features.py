"""The canonical feature matrix and its masked column selections.

Each tradeable day yields 16 values in a fixed canonical order:

* intrinsic (4): the raw open/high/low/close,
* historical (9): Donchian, Bollinger and Keltner upper/lower/middle,
* nowcasting (3): intraday log ratios r_hi, r_lo, r_cl.

Rows exist only where every indicator is defined (index window_n-1 onward
for the default Bollinger mode), and every emitted value is finite.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from opentrend.indicators import BOLLINGER, DONCHIAN, KELTNER, CHANNEL_COLUMNS, IndicatorParams, channel_arrays
from opentrend.ohlc import OhlcSeries

INTRINSIC_COLUMNS = ("open", "high", "low", "close")
HISTORICAL_COLUMNS = CHANNEL_COLUMNS[DONCHIAN] + CHANNEL_COLUMNS[BOLLINGER] + CHANNEL_COLUMNS[KELTNER]
NOWCAST_COLUMNS = ("r_hi", "r_lo", "r_cl")
CANONICAL_COLUMNS = INTRINSIC_COLUMNS + HISTORICAL_COLUMNS + NOWCAST_COLUMNS

#: the four coarse feature sets used in reports
NAMED_FEATURE_SETS = ("INT", "INT+HIST", "INT+NOW", "INT+HIST+NOW")


@dataclass(frozen=True)
class FeatureSetMask:
    """Which feature groups (and which band channels) are active."""

    intrinsic: bool = True
    donchian: bool = False
    bollinger: bool = False
    keltner: bool = False
    nowcast: bool = False

    def __post_init__(self) -> None:
        if not any((self.intrinsic, self.donchian, self.bollinger, self.keltner, self.nowcast)):
            raise ValueError("empty feature set: at least one group must be active")

    @classmethod
    def from_name(cls, name: str) -> "FeatureSetMask":
        """Parse names like INT, INT+HIST, INT+NOW, INT+DC+BB, HIST+NOW."""
        flags = dict(intrinsic=False, donchian=False, bollinger=False, keltner=False, nowcast=False)
        parts = [p.strip().upper() for p in name.split("+")]
        for part in parts:
            if part == "INT":
                flags["intrinsic"] = True
            elif part == "HIST":
                flags["donchian"] = flags["bollinger"] = flags["keltner"] = True
            elif part == "DC":
                flags["donchian"] = True
            elif part == "BB":
                flags["bollinger"] = True
            elif part == "KC":
                flags["keltner"] = True
            elif part == "NOW":
                flags["nowcast"] = True
            else:
                raise ValueError(f"unknown feature set part {part!r} in {name!r}")
        return cls(**flags)

    @property
    def name(self) -> str:
        parts = []
        if self.intrinsic:
            parts.append("INT")
        if self.donchian and self.bollinger and self.keltner:
            parts.append("HIST")
        else:
            if self.donchian:
                parts.append("DC")
            if self.bollinger:
                parts.append("BB")
            if self.keltner:
                parts.append("KC")
        if self.nowcast:
            parts.append("NOW")
        return "+".join(parts)

    @property
    def columns(self) -> tuple[str, ...]:
        """Active column names in canonical order."""
        cols: list[str] = []
        if self.intrinsic:
            cols.extend(INTRINSIC_COLUMNS)
        if self.donchian:
            cols.extend(CHANNEL_COLUMNS[DONCHIAN])
        if self.bollinger:
            cols.extend(CHANNEL_COLUMNS[BOLLINGER])
        if self.keltner:
            cols.extend(CHANNEL_COLUMNS[KELTNER])
        if self.nowcast:
            cols.extend(NOWCAST_COLUMNS)
        return tuple(cols)


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """A dense float64 design matrix plus its column names and row dates."""

    dates: tuple[dt.date, ...]
    columns: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.ndim != 2 or self.values.shape != (len(self.dates), len(self.columns)):
            raise ValueError(
                f"matrix shape {self.values.shape} does not match "
                f"{len(self.dates)} dates x {len(self.columns)} columns"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite value in feature matrix")

    @property
    def n_rows(self) -> int:
        return len(self.dates)

    def __len__(self) -> int:
        return len(self.dates)


def assemble(series: OhlcSeries, params: IndicatorParams | None = None) -> FeatureMatrix:
    """The 16 canonical columns for every day from the first fully-defined index on.

    With the default Bollinger mode that is index window_n - 1, so a series
    of ``days`` bars yields ``days - window_n + 1`` rows (the final day
    included, even though it can never receive a label).
    """
    params = params or IndicatorParams()
    if len(series) < params.window_n:
        raise ValueError(
            f"series too short for feature assembly: {len(series)} bars, window {params.window_n}"
        )
    arrays = channel_arrays(series, params)
    historical = np.column_stack([arrays[c] for c in HISTORICAL_COLUMNS])
    defined = np.flatnonzero(np.all(np.isfinite(historical), axis=1))
    if defined.size == 0:
        raise ValueError("no fully-defined feature rows (series too short for this indicator mode)")
    intrinsic = np.column_stack([series.prices(f)[defined] for f in INTRINSIC_COLUMNS])
    # math.log, not np.log: the two differ in the last bit on some inputs,
    # and these values reach every model and result file
    ratios = intrinsic[:, 1:] / intrinsic[:, :1]
    nowcast = np.array([math.log(r) for r in ratios.ravel().tolist()]).reshape(ratios.shape)
    all_dates = series.dates
    return FeatureMatrix(
        dates=tuple(all_dates[t] for t in defined),
        columns=CANONICAL_COLUMNS,
        values=np.hstack([intrinsic, historical[defined], nowcast]),
    )


def select(matrix: FeatureMatrix, mask: FeatureSetMask) -> FeatureMatrix:
    """Project a matrix onto the masked columns, keeping canonical order."""
    cols = mask.columns
    index = [matrix.columns.index(c) for c in cols]
    return FeatureMatrix(dates=matrix.dates, columns=cols, values=matrix.values[:, index])


def export_csv(matrix: FeatureMatrix, labels: dict[str, np.ndarray] | None = None) -> str:
    """Feature matrix as CSV text; optional label columns are joined on the right.

    Label vectors are one element shorter than the matrix (the final day has
    no next open), so the final row is dropped whenever labels are included.
    """
    header = ("date",) + matrix.columns
    values = matrix.values
    dates = matrix.dates
    label_cols: list[tuple[str, np.ndarray]] = []
    if labels is not None:
        for name, vec in labels.items():
            if len(vec) != matrix.n_rows - 1:
                raise ValueError(
                    f"label column {name!r} has {len(vec)} values, expected {matrix.n_rows - 1}"
                )
            label_cols.append((name, np.asarray(vec)))
        header = header + tuple(name for name, _ in label_cols)
        values = values[:-1]
        dates = dates[:-1]
    lines = [",".join(header)]
    for i, day in enumerate(dates):
        cells = [day.isoformat()] + [repr(float(v)) for v in values[i]]
        cells.extend(str(int(vec[i])) for _, vec in label_cols)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
