"""Transaction data model: categories, analysis window, columnar baskets.

Ingestion reads receipt-level CSV files, validates them against the category
table and the analysis window, and produces an immutable dataset of columns
that all downstream feature computations share.
"""

from __future__ import annotations

import csv
from array import array
from contextlib import contextmanager
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
# Baskets hashed per sha256 update in ``Dataset.fingerprint``.
_FINGERPRINT_CHUNK = 4096


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
        """Stable content hash, independent of ingestion order: the sha256
        of one ``basket_id,customer_id,timestamp,cents`` line per basket,
        then one line per category id."""
        # Imported here: OpenSSL maps a few MB, needed only once the
        # dataset is hashed.
        import hashlib

        # Ingest parses each distinct timestamp text once, so baskets share
        # timestamp objects; format each object once. Keyed by identity:
        # equal instants with different UTC offsets print differently.
        distinct = {id(ts): ts for ts in self.timestamps}
        iso = {key: ts.isoformat() for key, ts in distinct.items()}
        customer = self.customer_ids.__getitem__
        cents = self.basket_cents
        h = hashlib.sha256()
        # A few thousand lines at a time, not the whole text at once.
        for start in range(0, self.n_baskets, _FINGERPRINT_CHUNK):
            stop = start + _FINGERPRINT_CHUNK
            h.update("".join(
                f"{bid},{cid},{iso[id(ts)]},{c}\n"
                for bid, cid, ts, c in zip(
                    self.basket_ids[start:stop],
                    map(customer, self.basket_customer[start:stop].tolist()),
                    self.timestamps[start:stop],
                    cents[start:stop].tolist(),
                )
            ).encode())
        h.update("".join(f"{cid}\n" for cid in self.category_ids).encode())
        return h.hexdigest()


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


def _parse_quantity(text: str, line_no: int, basket_id: str) -> float:
    """The quantity as a float, exact because it is below 2**53."""
    try:
        qty = int(text)
    except ValueError:
        raise ParseError(f"bad quantity {text!r}", line_no) from None
    if not 1 <= qty < MAX_CENTS:
        raise ValidationError(
            f"line {line_no}: quantity must be >= 1 and below 2**53 "
            f"in basket {basket_id!r}"
        )
    return float(qty)


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


def write_csv(path, header, rows):
    """Write a UTF-8 CSV file: ``header``, then ``rows``, each line ending in
    "\\r\\n". A float cell, numpy's included, prints as the shortest decimal
    that reads back as the same double."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def write_text(path, text):
    """Write ``text`` to ``path`` in UTF-8, line ends as they are."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(text)


@contextmanager
def open_csv(path, header):
    """Yield a strict ``csv.reader`` over the rows of the UTF-8 file
    ``path`` after its first row, which must equal ``header``. Bad quoting
    and bytes that are not UTF-8 are ``ParseError``s, and every ``TxError``
    raised while the file is open, the body's included, names ``path``."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f, strict=True)
        try:
            first = next(reader, None)
            if first != header:
                raise ParseError(
                    f"expected header {','.join(header)}, got {first}"
                )
            yield reader
        except csv.Error as exc:
            raise ParseError(
                f"{path}: line {reader.line_num}: malformed CSV: {exc}"
            ) from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not valid UTF-8: {exc}") from None
        except TxError as exc:
            exc.args = (f"{path}: {exc}",)
            raise


def read_pairs(path, header) -> dict:
    """Key -> value of a ``header`` CSV file of one row of two non-empty
    fields per key, blank lines skipped. Messages name the fields by their
    header names, "_" read as a space, and the row by its physical line."""
    key_name, value_name = (name.replace("_", " ") for name in header)
    pairs = {}
    with open_csv(path, header) as reader:
        for row in reader:
            if not row:
                continue  # blank line
            line_no = reader.line_num
            if len(row) != 2:
                raise ParseError(f"need 2 fields, got {len(row)}", line_no)
            key, value = row
            if not key or not value:
                raise ParseError(f"empty {key_name} or {value_name}", line_no)
            if key in pairs:
                raise ValidationError(
                    f"line {line_no}: duplicate {key_name} {key!r}"
                )
            pairs[key] = value
    return pairs


def read_categories(path) -> dict:
    """The category table: at least two ``category_id,label`` pairs."""
    categories = {
        cid: Category(id=cid, label=label)
        for cid, label in read_pairs(path, CATEGORY_COLUMNS).items()
    }
    if len(categories) < 2:
        raise ValidationError(
            f"{path}: need at least 2 categories, got {len(categories)}"
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
    basket_index = {}  # basket_id -> basket index, in first-seen order
    customer_index = {}  # customer_id -> customer index, in first-seen order
    # Per basket: its customer's first-seen index and its timestamp.
    basket_customer, basket_ts = array("q"), []
    # Cents spent per basket x category cell (basket * n_cats + category),
    # as doubles, since price times quantity can pass the int64 range. Each
    # line value rounds once, to the double nearest the exact product.
    spend, zero_row = array("d"), array("d", bytes(8 * n_cats))
    unknown_category_rows = []
    # A row with the basket id, customer id and timestamp text of the
    # previous accepted row continues its basket: its timestamp is parsed
    # and its basket passed the conflict checks, so it skips both lookups.
    last_bid = last_cid = last_ts = None
    get_ts, get_price, get_qty = timestamps.get, prices.get, quantities.get
    get_cat, get_basket = cat_index.get, basket_index.get

    with open_csv(path, RECEIPT_COLUMNS) as reader:
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
            same_basket = (
                bid == last_bid and cid == last_cid and ts_text == last_ts
            )
            if not same_basket:
                ts = get_ts(ts_text)
                if ts is None:
                    ts = timestamps[ts_text] = _parse_timestamp(
                        ts_text, line_no, timestamps
                    )
            price = get_price(price_text)
            if price is None:
                price = prices[price_text] = _parse_price(
                    price_text, line_no, bid
                )
            qty = get_qty(qty_text)
            if qty is None:
                qty = quantities[qty_text] = _parse_quantity(
                    qty_text, line_no, bid
                )
            if promo not in ("0", "1"):
                raise ParseError(
                    f"promo_flag must be 0 or 1, got {promo!r}", line_no
                )
            c = get_cat(cat)
            if c is None:
                unknown_category_rows.append((line_no, cat))
                continue

            if not same_basket:
                b = get_basket(bid)
                if b is None:
                    b = basket_index[bid] = len(basket_ts)
                    basket_customer.append(
                        customer_index.setdefault(cid, len(customer_index))
                    )
                    basket_ts.append(ts)
                    spend.extend(zero_row)
                elif customer_index.get(cid) != basket_customer[b]:
                    first = list(customer_index)[basket_customer[b]]
                    raise ValidationError(
                        f"line {line_no}: basket {bid!r} has conflicting "
                        f"customer ids {first!r} and {cid!r}"
                    )
                elif basket_ts[b] is not ts and (
                    basket_ts[b].isoformat() != ts.isoformat()
                ):
                    raise ValidationError(
                        f"line {line_no}: basket {bid!r} has conflicting "
                        f"timestamps {basket_ts[b].isoformat()!r} and "
                        f"{ts.isoformat()!r}"
                    )
                first_cell = b * n_cats
                last_bid, last_cid, last_ts = bid, cid, ts_text
            spend[first_cell + c] += price * qty

    if unknown_category_rows:
        shown = ", ".join(
            f"line {ln} ({cid!r})" for ln, cid in unknown_category_rows[:10]
        )
        raise ValidationError(
            f"{path}: {len(unknown_category_rows)} rows reference unknown "
            f"categories: {shown}"
        )

    kept = sorted(
        bid for bid, b in basket_index.items() if window.contains(basket_ts[b])
    )
    rows = np.fromiter(
        map(basket_index.__getitem__, kept), dtype=np.intp, count=len(kept)
    )
    # A line value or sum that reaches 2**53 still rounds to >= 2**53,
    # which the total check rejects.
    spend = np.frombuffer(spend, dtype=float).reshape(-1, n_cats)[rows]
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

    # Customers of kept baskets, by first-seen index, then ranked by id.
    first_seen = np.frombuffer(basket_customer, dtype=np.int64)[rows]
    seen_ids = list(customer_index)
    present = np.flatnonzero(np.bincount(first_seen, minlength=len(seen_ids)))
    by_id = sorted(present.tolist(), key=seen_ids.__getitem__)
    rank = np.empty(len(seen_ids), dtype=np.intp)
    rank[by_id] = np.arange(len(by_id))
    return Dataset(
        categories=categories,
        window=window,
        basket_ids=kept,
        customer_ids=[seen_ids[i] for i in by_id],
        basket_customer=rank[first_seen],
        timestamps=[basket_ts[b] for b in rows.tolist()],
        spend_cents=spend.astype(np.int64),
        dropped_outside_window=len(basket_ts) - len(kept),
    )
