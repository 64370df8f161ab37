"""Binary direction labels: will tomorrow's open beat today's reference price?

Four tasks, one per reference field.  The label for day t compares the open
of day t+1 against day t's open/high/low/close with a strict ``>`` — ties
and drops are both 0 — and attaches to day t, the day whose features are
visible when the prediction must be made.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from enum import Enum

import numpy as np

from opentrend.ohlc import OhlcSeries


class TaskKind(Enum):
    """The reference price that tomorrow's open is compared against."""

    OP_VS_OP = "op"
    OP_VS_HIGH = "hi"
    OP_VS_LOW = "lo"
    OP_VS_CLOSE = "cl"

    @property
    def reference_field(self) -> str:
        return {"op": "open", "hi": "high", "lo": "low", "cl": "close"}[self.value]

    @property
    def label_column(self) -> str:
        return f"y_{self.value}"

    @classmethod
    def from_code(cls, code: str) -> "TaskKind":
        """The task of a code in any case, with surrounding spaces ignored."""
        try:
            return cls(code.strip().lower())
        except ValueError:
            expected = ", ".join(task.value for task in cls)
            raise ValueError(f"unknown task code {code!r} (expected one of {expected})") from None


ALL_TASKS = tuple(TaskKind)


@dataclass(frozen=True, eq=False)
class LabelVector:
    """0/1 labels for a run of consecutive days, aligned to feature-row dates."""

    task: TaskKind
    dates: tuple[dt.date, ...]
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.labels.ndim != 1 or len(self.labels) != len(self.dates):
            raise ValueError("labels and dates must align one-to-one")
        if self.labels.size and not np.all((self.labels == 0) | (self.labels == 1)):
            raise ValueError("labels must be 0 or 1")

    def __len__(self) -> int:
        return len(self.dates)


def make_labels(series: OhlcSeries, task: TaskKind, first_index: int) -> LabelVector:
    """Labels for days first_index .. len(series)-2 (the last day has no tomorrow).

    first_index is the index of the first feature row (window_n - 1 in the
    default pipeline), so the vector is exactly one element shorter than the
    feature matrix assembled from the same series.
    """
    if isinstance(first_index, bool) or not isinstance(first_index, int) or first_index < 0:
        raise ValueError(f"first_index must be a non-negative integer, got {first_index!r}")
    if first_index > len(series) - 2:
        raise ValueError(
            f"first_index {first_index} leaves no labelable day in a series of {len(series)} bars"
        )
    opens = series.prices("open")
    reference = series.prices(task.reference_field)
    return LabelVector(
        task=task,
        dates=series.dates[first_index:-1],
        labels=(opens[first_index + 1 :] > reference[first_index:-1]).astype(np.int64),
    )
