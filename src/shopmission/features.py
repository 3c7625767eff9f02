"""Feature vectors for the three segmentations.

RFM per customer, category-spend ratios per customer (PPS), basket vectors
with a quantile-clipped value coordinate, and customer vectors of basket
archetype ratios, all from the dataset's exact cents matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import pairwise

import numpy as np

from . import ShopmissionError
from .txmodel import Dataset, naming

MIN_BASKETS_FOR_Q95 = 20
RFM_SCHEMA = ["recency_days", "frequency", "monetary"]


class FeatureError(ShopmissionError):
    pass


@dataclass
class FeatureMatrix:
    """Dense feature rows, one per entity id; ids strictly increasing."""

    ids: list
    X: np.ndarray  # shape (n, d)
    schema: list  # column names, length d

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        if self.X.ndim != 2 or self.X.shape != (len(self.ids), len(self.schema)):
            raise FeatureError(
                f"shape {self.X.shape} inconsistent with "
                f"{len(self.ids)} ids x {len(self.schema)} features"
            )
        for a, b in pairwise(self.ids):
            if not a < b:
                raise FeatureError(
                    f"ids must be sorted without repeats; {b!r} follows {a!r}"
                )

    @cached_property
    def n_distinct(self) -> int:
        """Number of distinct rows (-0.0 equals 0.0), counted once; X must
        not change after."""
        X = self.X
        if len(X) == 0:
            return 0
        # Equal rows are adjacent after a lexicographic sort.
        rows = X[np.lexsort(X.T)] if X.shape[1] else X
        return 1 + int(np.count_nonzero((rows[1:] != rows[:-1]).any(axis=1)))

    def row(self, entity_id):
        return self.X[self.ids.index(entity_id)]


@dataclass(frozen=True)
class QuantileSpec:
    q95: float

    def __post_init__(self):
        if not self.q95 > 0:
            raise FeatureError(f"q95 must be positive, got {self.q95}")


def rfm_features(dataset: Dataset) -> FeatureMatrix:
    """Recency (days since last purchase), frequency and spend per day."""
    window = dataset.window
    n = len(dataset.customer_ids)
    recency = np.full(n, np.iinfo(np.int64).max)
    days = np.array(
        [(window.end - ts.date()).days for ts in dataset.times], np.int64
    )
    np.minimum.at(recency, dataset.basket_customer, days[dataset.basket_time])
    frequency = np.bincount(dataset.basket_customer, minlength=n)
    cents = np.bincount(
        dataset.basket_customer, weights=dataset.basket_cents, minlength=n
    )
    X = np.column_stack([
        recency.astype(float),
        frequency / window.length_days,
        cents / 100.0 / window.length_days,
    ])
    return FeatureMatrix(dataset.customer_ids, X, list(RFM_SCHEMA))


def pps_features(dataset: Dataset) -> FeatureMatrix:
    """Per-customer spend share in each category; rows sum to 1."""
    n = len(dataset.customer_ids)
    spend = np.zeros((n, len(dataset.categories)), np.int64)
    np.add.at(spend, dataset.basket_customer, dataset.spend_cents)
    return FeatureMatrix(
        dataset.customer_ids,
        spend / spend.sum(axis=1, keepdims=True),
        [f"cat:{c}" for c in dataset.category_ids],
    )


def compute_q95(dataset: Dataset) -> QuantileSpec:
    """95% sample quantile (linear interpolation) of basket values."""
    if dataset.n_baskets < MIN_BASKETS_FOR_Q95:
        with naming(dataset.receipts_file):
            raise FeatureError(
                f"need at least {MIN_BASKETS_FOR_Q95} baskets for the 95% "
                f"quantile, got {dataset.n_baskets}"
            )
    values = dataset.basket_cents / 100.0
    # np.quantile's "linear" method, step for step: the order statistics
    # around (n - 1) * 0.95 and numpy's two-sided lerp between them.
    position = (len(values) - 1) * 0.95
    i = math.floor(position)
    lo, hi = np.partition(values, (i, i + 1))[i : i + 2].tolist()
    gamma = position - i
    diff = hi - lo
    if gamma >= 0.5:
        return QuantileSpec(q95=hi - diff * (1 - gamma))
    return QuantileSpec(q95=lo + diff * gamma)


def basket_sm_features(
    dataset: Dataset, category_ids, q: QuantileSpec, value_weight: float = 1.0
) -> FeatureMatrix:
    """Category-ratio simplex coordinates plus the clipped value coordinate.

    Columns follow ``category_ids``, which must include every category of
    the dataset (a training axis may hold more). The value coordinate is
    min(value / q95, 1) scaled by ``value_weight`` (default 1.0: structure
    and value enter with similar weight).
    """
    column = {c: j for j, c in enumerate(category_ids)}
    X = np.zeros((dataset.n_baskets, len(column) + 1))
    # Cents are below 2**53, so they convert to float64 exactly.
    X[:, [column[c] for c in dataset.category_ids]] = dataset.spend_cents
    totals = dataset.basket_cents
    ratios, value = X[:, :-1], X[:, -1]
    np.divide(ratios, totals[:, None], out=ratios)
    np.minimum(totals / 100.0 / q.q95, 1.0, out=value)
    value *= value_weight
    return FeatureMatrix(
        dataset.basket_ids, X, [f"cat:{c}" for c in category_ids] + ["value"]
    )


def customer_sm_features(
    dataset: Dataset, basket_labels, k_b
) -> FeatureMatrix:
    """Per-customer ratios of basket archetypes; rows sum to 1.
    ``basket_labels`` holds one archetype per ``dataset.basket_ids`` entry."""
    labels = np.asarray(basket_labels)
    if labels.shape != (dataset.n_baskets,):
        raise FeatureError(
            f"expected {dataset.n_baskets} basket archetype labels, "
            f"got shape {labels.shape}"
        )
    bad = np.flatnonzero((labels < 0) | (labels >= k_b))
    if bad.size:
        raise FeatureError(
            f"basket {dataset.basket_ids[bad[0]]!r} assigned to cluster "
            f"{labels[bad[0]]}, outside [0, {k_b})"
        )
    n = len(dataset.customer_ids)
    counts = np.bincount(
        dataset.basket_customer * k_b + labels, minlength=n * k_b
    ).reshape(n, k_b)
    return FeatureMatrix(
        dataset.customer_ids,
        counts / counts.sum(axis=1, keepdims=True),
        [f"archetype:{j}" for j in range(k_b)],
    )
