"""Golden digests of the design matrix and the labels on one fixed market.

The digests were recorded before the feature and label code became
columnar.  They pin every bit: computing the NOW columns with ``np.log``
instead of ``math.log`` changes the last bit of some values, which would
change every result bundle built from them.
"""

from __future__ import annotations

import hashlib

import pytest

from opentrend.features import CANONICAL_COLUMNS, assemble
from opentrend.labeling import ALL_TASKS, make_labels
from opentrend.synth import GenSpec, generate

VALUES_SHA256 = "c758fa87d37f722e36e376825c24015e2554a32b8697a1884281954ec8772ee7"
DATES_SHA256 = "b9af87521b09a025e9d32a51beb024e8160f60ebacf4db9c1b80b8cfe738b581"
LABELS_SHA256 = {
    "op": "ca8b94122e89742d427b9483d35693c21e6f2ef0b10ccc71d2b9542c2bef2fe7",
    "hi": "8b5c3b0f4c90150c9547cd4eed0b3108eac86b909a28b3065068b6420de7666b",
    "lo": "0944e9ead5c9b67dab978c4f3795fa27a84793196e3d615a1270456fc722d5f0",
    "cl": "fd7cb1c91e21f9552ce6e3339a58e8a1de9710eba26470c88cb4ec6ab39b410a",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def market():
    """A paper-scale separable market: 1256 days, 1237 feature rows."""
    return generate(GenSpec(kind="separable", days=1256, seed=0, params={"signal_strength": 0.6}))


def test_design_matrix_bits(market):
    matrix = assemble(market)
    assert matrix.columns == CANONICAL_COLUMNS
    assert matrix.values.shape == (1237, 16)
    assert sha256(matrix.values.tobytes()) == VALUES_SHA256
    assert sha256(",".join(d.isoformat() for d in matrix.dates).encode("ascii")) == DATES_SHA256


def test_label_bits(market):
    matrix = assemble(market)
    first_index = len(market) - matrix.n_rows
    for task in ALL_TASKS:
        vector = make_labels(market, task, first_index)
        assert vector.labels.dtype.name == "int64"
        assert vector.dates == matrix.dates[:-1]
        assert sha256(vector.labels.tobytes()) == LABELS_SHA256[task.value], task.value
