"""Transaction data model: categories, analysis window, columnar baskets.

Ingestion reads receipt-level CSV files, validates them against the category
table and the analysis window, and produces an immutable dataset of columns
that all downstream feature computations share.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from datetime import date, datetime
from decimal import Decimal, InvalidOperation

import numpy as np

RECEIPT_COLUMNS = [
    "basket_id",
    "customer_id",
    "timestamp",
    "product_id",
    "category_id",
    "unit_price",
    "quantity",
    "promo_flag",
]

CATEGORY_COLUMNS = ["category_id", "label"]

# Cents totals stay below 2**53, so int64 cents convert to float64 exactly
# and every float sum of them is exact.
MAX_CENTS = 2**53
_CENT = Decimal("0.01")


class TxError(Exception):
    """Base error for transaction ingestion and validation."""


class ParseError(TxError):
    def __init__(self, message, line_no=None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class ValidationError(TxError):
    pass


@dataclass(frozen=True)
class Category:
    id: str
    label: str


@dataclass(frozen=True)
class AnalysisWindow:
    start: date
    end: date

    def __post_init__(self):
        if self.end <= self.start:
            raise ValidationError(
                f"window end {self.end} must be after start {self.start}"
            )

    @property
    def length_days(self) -> int:
        return (self.end - self.start).days

    def contains(self, ts: datetime) -> bool:
        return self.start <= ts.date() <= self.end


@dataclass(frozen=True)
class Dataset:
    """Baskets as columns; row i of every per-basket column is basket_ids[i]."""

    categories: dict  # category_id -> Category
    window: AnalysisWindow
    basket_ids: list  # sorted
    customer_ids: list  # sorted, each with at least one basket
    basket_customer: np.ndarray  # (n_baskets,) index into customer_ids
    timestamps: list  # (n_baskets,) datetime of each basket
    spend_cents: np.ndarray  # (n_baskets, n_categories) int64, category_ids order
    dropped_outside_window: int = 0

    @property
    def n_baskets(self) -> int:
        return len(self.basket_ids)

    @property
    def category_ids(self) -> list:
        """Category axis order used by every feature vector: sorted ids."""
        return sorted(self.categories)

    @property
    def basket_cents(self) -> np.ndarray:
        return self.spend_cents.sum(axis=1)

    @property
    def total_value_cents(self) -> int:
        return int(self.spend_cents.sum())

    def fingerprint(self) -> str:
        """Stable content hash, independent of ingestion order."""
        text = "".join(
            f"{bid},{self.customer_ids[c]},{ts.isoformat()},{cents}\n"
            for bid, c, ts, cents in zip(
                self.basket_ids,
                self.basket_customer.tolist(),
                self.timestamps,
                self.basket_cents.tolist(),
            )
        ) + "".join(f"{cid}\n" for cid in self.category_ids)
        return hashlib.sha256(text.encode()).hexdigest()


def _parse_price(text: str, line_no: int, basket_id: str) -> int:
    """Unit price in cents, exact."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise ParseError(f"bad money value {text!r}", line_no) from None
    if not value.is_finite() or value.copy_abs() >= MAX_CENTS * _CENT:
        raise ParseError(f"bad money value {text!r}", line_no)
    rounded = value.quantize(_CENT)
    if rounded != value:
        raise ParseError(
            f"money value {text!r} has sub-cent precision", line_no
        )
    if value < 0:
        raise ValidationError(
            f"line {line_no}: negative unit_price in basket {basket_id!r}"
        )
    return int(rounded * 100)


def _parse_quantity(text: str, line_no: int, basket_id: str) -> int:
    try:
        qty = int(text)
    except ValueError:
        raise ParseError(f"bad quantity {text!r}", line_no) from None
    if not 1 <= qty < MAX_CENTS:
        raise ValidationError(
            f"line {line_no}: quantity must be >= 1 and below 2**53 "
            f"in basket {basket_id!r}"
        )
    return qty


def _parse_timestamp(text: str, line_no: int, seen: dict) -> datetime:
    """Parse ``text``; ``seen`` holds the file's timestamps parsed so far."""
    try:
        # Dates without time-of-day default to midnight.
        ts = datetime.fromisoformat(text)
    except ValueError:
        raise ParseError(f"bad timestamp {text!r}", line_no) from None
    first = next(iter(seen.values()), ts)
    if (first.tzinfo is None) != (ts.tzinfo is None):
        raise ValidationError(
            f"line {line_no}: timestamp {text!r} mixes timezone-aware "
            "and naive timestamps in one file"
        )
    return ts


def read_categories(path) -> dict:
    categories = {}
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != CATEGORY_COLUMNS:
            raise ParseError(
                f"category table header must be {CATEGORY_COLUMNS}, got {reader.fieldnames}"
            )
        for line_no, row in enumerate(reader, start=2):
            cid = row["category_id"]
            if cid in categories:
                raise ValidationError(f"duplicate category id {cid!r}")
            categories[cid] = Category(id=cid, label=row["label"])
    if len(categories) < 2:
        raise ValidationError(
            f"need at least 2 categories, got {len(categories)}"
        )
    return categories


def ingest_receipts(path, category_table, window: AnalysisWindow) -> Dataset:
    """Read a receipts CSV, group rows into baskets, validate everything.

    Rows whose basket falls outside the window are dropped (counted in
    ``dropped_outside_window``). Unknown categories, malformed values,
    zero-value baskets, baskets whose rows disagree on customer id or
    timestamp, and files mixing timezone-aware with naive timestamps are
    hard errors. Line numbers in messages are physical lines of the file.
    """
    categories = read_categories(category_table)
    cat_index = {c: i for i, c in enumerate(sorted(categories))}
    n_cats, n_fields = len(cat_index), len(RECEIPT_COLUMNS)

    # Each distinct timestamp, price and quantity string is parsed once;
    # a bad one raises at its first row.
    timestamps, prices, quantities = {}, {}, {}
    baskets = {}  # basket_id -> (basket index, customer_id, timestamp)
    row_cell, row_cents = [], []  # basket * n_cats + category, line value
    unknown_category_rows = []

    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader, None)
            if header != RECEIPT_COLUMNS:
                raise ParseError(
                    f"receipts header must be {RECEIPT_COLUMNS}, got {header}"
                )
            for row in reader:
                if not row:
                    continue  # blank line
                line_no = reader.line_num
                if len(row) != n_fields or "" in row:
                    if len(row) > n_fields:
                        raise ParseError(
                            f"expected {n_fields} fields, got {len(row)}",
                            line_no,
                        )
                    raise ParseError("missing column value", line_no)
                bid, cid, ts_text, _, cat, price_text, qty_text, promo = row
                ts = timestamps.get(ts_text)
                if ts is None:
                    ts = timestamps[ts_text] = _parse_timestamp(
                        ts_text, line_no, timestamps
                    )
                price = prices.get(price_text)
                if price is None:
                    price = prices[price_text] = _parse_price(
                        price_text, line_no, bid
                    )
                qty = quantities.get(qty_text)
                if qty is None:
                    qty = quantities[qty_text] = _parse_quantity(
                        qty_text, line_no, bid
                    )
                if promo not in ("0", "1"):
                    raise ParseError(
                        f"promo_flag must be 0 or 1, got {promo!r}", line_no
                    )
                c = cat_index.get(cat)
                if c is None:
                    unknown_category_rows.append((line_no, cat))
                    continue

                meta = baskets.get(bid)
                if meta is None:
                    meta = baskets[bid] = (len(baskets), cid, ts)
                elif meta[1] != cid:
                    raise ValidationError(
                        f"line {line_no}: basket {bid!r} has conflicting "
                        f"customer ids {meta[1]!r} and {cid!r}"
                    )
                elif meta[2] is not ts and (
                    meta[2].isoformat() != ts.isoformat()
                ):
                    raise ValidationError(
                        f"line {line_no}: basket {bid!r} has conflicting "
                        f"timestamps {meta[2].isoformat()!r} and {ts.isoformat()!r}"
                    )
                row_cell.append(meta[0] * n_cats + c)
                row_cents.append(price * qty)
        except csv.Error as exc:
            raise ParseError(f"malformed CSV: {exc}", reader.line_num) from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"receipts file is not valid UTF-8: {exc}") from None

    if unknown_category_rows:
        shown = ", ".join(
            f"line {ln} ({cid!r})" for ln, cid in unknown_category_rows[:10]
        )
        raise ValidationError(
            f"{len(unknown_category_rows)} rows reference unknown categories: {shown}"
        )

    # Sums in float64 are exact below 2**53, and a line value or sum that
    # reaches 2**53 still rounds to >= 2**53, which the total check rejects.
    spend = np.bincount(
        np.array(row_cell, dtype=np.int64),
        weights=np.array(row_cents, dtype=float),
        minlength=len(baskets) * n_cats,
    ).reshape(-1, n_cats)

    kept = [b for b in sorted(baskets) if window.contains(baskets[b][2])]
    spend = spend[[baskets[b][0] for b in kept]]
    basket_values = spend.sum(axis=1)
    empty = np.flatnonzero(basket_values <= 0)
    if empty.size:
        raise ValidationError(
            f"basket {kept[empty[0]]!r} has non-positive total value"
        )
    if basket_values.sum() >= MAX_CENTS:
        raise ValidationError(
            f"total value reaches 2**53 cents ({MAX_CENTS}); "
            "cents sums would no longer be exact"
        )

    customer_ids = sorted({baskets[b][1] for b in kept})
    customer_index = {c: i for i, c in enumerate(customer_ids)}
    return Dataset(
        categories=categories,
        window=window,
        basket_ids=kept,
        customer_ids=customer_ids,
        basket_customer=np.array(
            [customer_index[baskets[b][1]] for b in kept], dtype=np.intp
        ),
        timestamps=[baskets[b][2] for b in kept],
        spend_cents=spend.astype(np.int64),
        dropped_outside_window=len(baskets) - len(kept),
    )
