"""The columnar Dataset and its array features against the per-basket code
they replaced.

The oracle below is a test-only copy of the per-line object graph (one
object per receipt line, basket and customer history) and of the loops that
built every feature from it. Features and fingerprints must match it bit for
bit; fuzzed receipt files must give a Dataset or a TxError, nothing else.
"""

import csv
import hashlib
import random
import struct
from dataclasses import dataclass
from datetime import datetime
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    CATEGORY_IDS,
    WINDOW,
    mutated_receipts,
    receipt_rows,
    write_categories,
    write_receipts,
)
from shopmission import features as feat
from shopmission.syngen import default_config, generate
from shopmission.txmodel import Dataset, TxError, ingest_receipts, read_categories

# --- Oracle: the per-line object graph and its feature loops. ---


@dataclass(frozen=True)
class Line:
    category_id: str
    value_cents: int


@dataclass(frozen=True)
class Basket:
    basket_id: str
    customer_id: str
    timestamp: datetime
    lines: tuple

    @property
    def value_cents(self):
        return sum(line.value_cents for line in self.lines)

    @property
    def value(self):
        return self.value_cents / 100.0


def oracle_ingest(path, category_table, window):
    """Valid files only: the checks are the Dataset's job."""
    categories = read_categories(category_table)
    lines, meta = {}, {}
    with open(path, newline="", encoding="utf-8") as f:
        for row in csv.DictReader(f):
            bid = row["basket_id"]
            cents = Decimal(row["unit_price"]) * 100 * int(row["quantity"])
            meta.setdefault(
                bid,
                (row["customer_id"], datetime.fromisoformat(row["timestamp"])),
            )
            lines.setdefault(bid, []).append(Line(row["category_id"], int(cents)))
    baskets = [
        Basket(bid, *meta[bid], tuple(lines[bid]))
        for bid in sorted(lines)
        if window.contains(meta[bid][1])
    ]
    return categories, baskets


def oracle_histories(baskets):
    grouped = {}
    for b in baskets:
        grouped.setdefault(b.customer_id, []).append(b)
    return dict(sorted(grouped.items()))


def oracle_fingerprint(baskets, category_ids):
    ordered = sorted(baskets, key=lambda x: x.basket_id)
    h = hashlib.sha256()
    for b in ordered:
        h.update(
            f"{b.basket_id},{b.customer_id},{b.timestamp.isoformat()}\n".encode()
        )
    for cid in category_ids:
        h.update(f"{cid}\n".encode())
    # Each basket's cents per category, in category_ids order, as
    # little-endian int64.
    for b in ordered:
        cents = dict.fromkeys(category_ids, 0)
        for line in b.lines:
            cents[line.category_id] += line.value_cents
        h.update(struct.pack(f"<{len(cents)}q", *cents.values()))
    return h.hexdigest()


def oracle_rfm(histories, window):
    rows = {}
    for cid, baskets in histories.items():
        recency = min((window.end - b.timestamp.date()).days for b in baskets)
        value_cents = sum(b.value_cents for b in baskets)
        rows[cid] = [
            float(recency),
            len(baskets) / window.length_days,
            value_cents / 100.0 / window.length_days,
        ]
    return rows


def oracle_pps(histories, category_ids):
    cat_index = {c: i for i, c in enumerate(category_ids)}
    rows = {}
    for cid, baskets in histories.items():
        spend = np.zeros(len(category_ids))
        for basket in baskets:
            for line in basket.lines:
                spend[cat_index[line.category_id]] += line.value_cents
        rows[cid] = spend / spend.sum()
    return rows


def oracle_q95(baskets):
    return float(np.quantile(np.array([b.value for b in baskets]), 0.95))


def oracle_basket_sm(baskets, category_ids, q95, value_weight):
    cat_index = {c: i for i, c in enumerate(category_ids)}
    rows = {}
    for basket in baskets:
        spend = np.zeros(len(category_ids))
        for line in basket.lines:
            spend[cat_index[line.category_id]] += line.value_cents
        value_coord = min(basket.value / q95, 1.0)
        rows[basket.basket_id] = np.append(
            spend / spend.sum(), value_weight * value_coord
        )
    return rows


def oracle_customer_sm(histories, assignments, k_b):
    rows = {}
    for cid, baskets in histories.items():
        counts = np.zeros(k_b)
        for basket in baskets:
            counts[assignments[basket.basket_id]] += 1
        rows[cid] = counts / counts.sum()
    return rows


# --- Comparison helpers. ---


def assert_rows_identical(matrix, rows):
    assert matrix.ids == sorted(rows)
    expected = np.array([rows[i] for i in matrix.ids], dtype=float)
    if rows:
        assert matrix.X.shape == expected.shape
    assert matrix.X.tobytes() == expected.tobytes()


def assert_matches_oracle(dataset, receipts, categories_csv, q95=None):
    categories, baskets = oracle_ingest(receipts, categories_csv, WINDOW)
    category_ids = sorted(categories)
    histories = oracle_histories(baskets)

    assert dataset.basket_ids == [b.basket_id for b in baskets]
    assert dataset.customer_ids == list(histories)
    assert dataset.total_value_cents == sum(b.value_cents for b in baskets)
    assert dataset.fingerprint() == oracle_fingerprint(baskets, category_ids)
    assert_rows_identical(feat.rfm_features(dataset), oracle_rfm(histories, WINDOW))
    assert_rows_identical(feat.pps_features(dataset), oracle_pps(histories, category_ids))

    if q95 is None:
        q95 = feat.compute_q95(dataset).q95
        assert q95 == oracle_q95(baskets)
    q = feat.QuantileSpec(q95)
    for weight in (1.0, 0.37):
        assert_rows_identical(
            feat.basket_sm_features(dataset, category_ids, q, weight),
            oracle_basket_sm(baskets, category_ids, q95, weight),
        )
    # A wider, reordered training axis: extra categories get zero columns.
    wide = ["ZZ_extra"] + category_ids[::-1]
    assert_rows_identical(
        feat.basket_sm_features(dataset, wide, q),
        oracle_basket_sm(baskets, wide, q95, 1.0),
    )

    k_b = 5
    assignments = {
        bid: int(hashlib.sha256(bid.encode()).digest()[0]) % k_b
        for bid in dataset.basket_ids
    }
    labels = np.array([assignments[b] for b in dataset.basket_ids], np.int64)
    assert_rows_identical(
        feat.customer_sm_features(dataset, labels, k_b),
        oracle_customer_sm(histories, assignments, k_b),
    )


@pytest.fixture(scope="module")
def syngen_2k(tmp_path_factory):
    out = tmp_path_factory.mktemp("syngen_2k")
    generate(default_config(n_customers=2000, seed=1), out)
    return out


def test_small_planted_matches_oracle(small_planted):
    out, _, _, dataset = small_planted
    assert_matches_oracle(dataset, out / "receipts.csv", out / "categories.csv")


def test_syngen_2k_matches_oracle(syngen_2k):
    receipts = syngen_2k / "receipts.csv"
    categories = syngen_2k / "categories.csv"
    dataset = ingest_receipts(receipts, categories, WINDOW)
    assert dataset.n_baskets > 10_000
    assert_matches_oracle(dataset, receipts, categories)


# --- Hypothesis: small valid receipt files, shuffled and mutated. ---


def features_of(dataset):
    q = feat.QuantileSpec(10.0)
    matrices = [
        feat.rfm_features(dataset),
        feat.pps_features(dataset),
        feat.basket_sm_features(dataset, dataset.category_ids, q),
    ]
    return dataset.fingerprint(), [(m.ids, m.X.tobytes()) for m in matrices]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=receipt_rows(), seed=st.integers(0, 2**32 - 1))
def test_features_invariant_to_row_order(tmp_path, rows, seed):
    write_categories(tmp_path / "categories.csv", CATEGORY_IDS)
    write_receipts(tmp_path / "a.csv", rows)
    shuffled = rows[:]
    random.Random(seed).shuffle(shuffled)
    write_receipts(tmp_path / "b.csv", shuffled)
    a = ingest_receipts(tmp_path / "a.csv", tmp_path / "categories.csv", WINDOW)
    b = ingest_receipts(tmp_path / "b.csv", tmp_path / "categories.csv", WINDOW)
    assert features_of(a) == features_of(b)
    assert_matches_oracle(a, tmp_path / "a.csv", tmp_path / "categories.csv", q95=10.0)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=mutated_receipts())
def test_mutated_receipts_give_dataset_or_tx_error(tmp_path, data):
    write_categories(tmp_path / "categories.csv", CATEGORY_IDS)
    receipts = tmp_path / "receipts.csv"
    receipts.write_bytes(data)
    try:
        dataset = ingest_receipts(receipts, tmp_path / "categories.csv", WINDOW)
    except TxError:
        return
    assert isinstance(dataset, Dataset)
    assert (dataset.basket_cents > 0).all()
    assert dataset.total_value_cents < 2**53
    # An accepted file is one the per-line code read the same way.
    assert_matches_oracle(dataset, receipts, tmp_path / "categories.csv", q95=10.0)
