"""Predict the direction of tomorrow's opening price from today's OHLC bar.

The pipeline: daily OHLC bars -> band indicators (Donchian, Bollinger,
Keltner) -> a 16-column feature matrix -> four binary label tasks
(next open vs. today's open/high/low/close) -> a roster of from-scratch
classifiers -> accuracy/MCC reliability reports and exact Shapley
attributions.
"""

from opentrend.ohlc import OhlcError, OhlcSeries, VolatilityStats, parse_csv, serialize_csv, volatility
from opentrend.indicators import IndicatorParams, channel_arrays, sma, ema, true_range
from opentrend.features import (
    CANONICAL_COLUMNS,
    FeatureMatrix,
    FeatureSetMask,
    assemble,
    select,
)
from opentrend.labeling import TaskKind, LabelVector, make_labels
from opentrend.dataset import EvalMode, LabeledDataset, Split, bind, split, rolling_predict
from opentrend.learners import ClassifierSpec, TrainedModel, fit, predict, preset
from opentrend.metrics import ConfusionMatrix, EvalRecord, accuracy, confusion, mcc
from opentrend.explain import AttributionRow, ShapleyReport, global_importance, shapley_exact, shapley_sampled
from opentrend.synth import GenSpec, generate

__version__ = "0.1.0"
