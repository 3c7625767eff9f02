"""Transaction data model: categories, analysis window, columnar baskets.

Ingestion reads receipt-level CSV files, validates them against the category
table and the analysis window, and produces an immutable dataset of columns
that all downstream feature computations share.
"""

from __future__ import annotations

import csv
import re
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date, datetime
from decimal import Decimal
from itertools import chain, starmap
from operator import itemgetter

import numpy as np

from . import ShopmissionError

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
# The text of a unit_price and of a quantity: plain ASCII decimals.
_PRICE = re.compile(r"-?[0-9]+(\.[0-9]+)?").fullmatch
_QUANTITY = re.compile(r"-?[0-9]+").fullmatch
# Baskets hashed per sha256 update in ``Dataset.fingerprint``.
_FINGERPRINT_CHUNK = 4096


class TxError(ShopmissionError):
    """Base error for transaction ingestion and validation."""


class ParseError(TxError):
    pass


class ValidationError(TxError):
    pass


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

    categories: dict  # category_id -> label
    window: AnalysisWindow
    basket_ids: list  # sorted
    customer_ids: list  # sorted, each with at least one basket
    basket_customer: np.ndarray  # (n_baskets,) index into customer_ids
    times: list  # datetime of each distinct timestamp text, first-seen order
    basket_time: np.ndarray  # (n_baskets,) int64 index into times
    spend_cents: np.ndarray  # (n_baskets, n_categories) int64, category_ids order
    dropped_outside_window: int = 0
    # The files ingest read, named by errors about the dataset as a whole.
    receipts_file: object = field(default=None, compare=False)
    categories_file: object = field(default=None, compare=False)

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
        of one ``basket_id,customer_id,timestamp`` line per basket, one line
        per category id, then ``spend_cents`` as little-endian int64, row
        by row."""
        # Imported here: OpenSSL maps a few MB, needed only once the
        # dataset is hashed.
        import hashlib

        iso = [ts.isoformat() for ts in self.times]
        customer, time = self.customer_ids.__getitem__, iso.__getitem__
        h = hashlib.sha256()
        # A few thousand lines at a time, not the whole text at once.
        for start in range(0, self.n_baskets, _FINGERPRINT_CHUNK):
            stop = start + _FINGERPRINT_CHUNK
            h.update("".join(
                f"{bid},{cid},{ts}\n"
                for bid, cid, ts in zip(
                    self.basket_ids[start:stop],
                    map(customer, self.basket_customer[start:stop].tolist()),
                    map(time, self.basket_time[start:stop].tolist()),
                )
            ).encode())
        h.update("".join(f"{cid}\n" for cid in self.category_ids).encode())
        # The matrix's own buffer: no copy unless it is not C-ordered <i8.
        h.update(np.ascontiguousarray(self.spend_cents, dtype="<i8"))
        return h.hexdigest()


def _parse_price(text: str, line_no: int, basket_id: str) -> int:
    """Unit price in cents, exact."""
    if not _PRICE(text) or abs(value := Decimal(text)) >= MAX_CENTS * _CENT:
        raise ParseError(f"bad money value {text!r}", line_no)
    rounded = value.quantize(_CENT)
    if rounded != value:
        raise ParseError(
            f"money value {text!r} has sub-cent precision", line_no
        )
    if value < 0:
        raise ValidationError(
            f"negative unit_price in basket {basket_id!r}", line_no
        )
    return int(rounded * 100)


def _parse_quantity(text: str, line_no: int, basket_id: str) -> float:
    """The quantity as a float, exact because it is below 2**53."""
    try:
        if not _QUANTITY(text):
            raise ValueError
        qty = int(text)  # ValueError past int()'s digit limit
    except ValueError:
        raise ParseError(f"bad quantity {text!r}", line_no) from None
    if not 1 <= qty < MAX_CENTS:
        raise ValidationError(
            f"quantity must be >= 1 and below 2**53 in basket {basket_id!r}",
            line_no,
        )
    return float(qty)


def _parse_timestamp(text: str, line_no: int, times: list) -> int:
    """Parse ``text``, append it to ``times``, the file's timestamps parsed
    so far, and return its index there."""
    try:
        # Dates without time-of-day default to midnight.
        ts = datetime.fromisoformat(text)
    except ValueError:
        raise ParseError(f"bad timestamp {text!r}", line_no) from None
    if times and (times[0].tzinfo is None) != (ts.tzinfo is None):
        raise ValidationError(
            f"timestamp {text!r} mixes timezone-aware and naive timestamps "
            "in one file", line_no
        )
    times.append(ts)
    return len(times) - 1


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


# A class, not a @contextmanager generator like open_csv: the generator form
# raised the sm-2k benchmark's peak RSS by about 0.15 MB (CHANGES.md).
class naming:
    """``with naming(path):`` names the file ``path`` in each package error
    raised inside that names no file yet; bytes that are not UTF-8 raise
    such a ``ParseError``. ``naming(None)`` names no file."""

    def __init__(self, path):
        self.path = path

    def __enter__(self):
        pass

    def __exit__(self, kind, exc, tb):
        error = exc
        if isinstance(exc, UnicodeDecodeError):
            error = ParseError(f"not valid UTF-8: {exc}")
        if (isinstance(error, ShopmissionError) and error.path is None
                and self.path is not None):
            error.path = self.path
            error.args = (f"{self.path}: {error}",)
        if error is not exc:
            raise error from None


@contextmanager
def open_csv(path, header):
    """Open the UTF-8 CSV file ``path``, whose first record must equal
    ``header``, and yield ``(lines, record)``.

    ``lines`` yields ``(line_no, line)`` for each physical line after the
    header, line end kept; the header's lines count in ``line_no``.
    ``record(line_no, line)`` returns the number of the last line of the
    record that starts at that line, and its fields (``[]`` for a blank
    line). A line with no quote that is no longer than the csv module's
    field size limit is split on commas, which is how ``csv`` reads it; any
    other line goes through a strict ``csv.reader``, which reads on from
    ``lines`` through quoted line breaks. So ``starmap(record, lines)``
    gives every record. Bad quoting and bytes that are not UTF-8 are
    ``ParseError``s, and every package error raised while the file is open,
    the body's included, names ``path``."""
    limit = csv.field_size_limit()
    with naming(path), open(path, newline="", encoding="utf-8") as f:
        lines = enumerate(f, 1)

        def record(line_no, line):
            if '"' not in line and len(line) <= limit:
                text = line.rstrip("\r\n")
                return line_no, text.split(",") if text else []
            reader = csv.reader(
                chain((line,), map(itemgetter(1), lines)), strict=True
            )
            try:
                row = next(reader)
            except csv.Error as exc:
                raise ParseError(
                    f"malformed CSV: {exc}", line_no + reader.line_num - 1
                ) from None
            return line_no + reader.line_num - 1, row

        first = next(lines, None)
        row = record(*first)[1] if first else None
        if row != header:
            raise ParseError(f"expected header {','.join(header)}, got {row}")
        yield lines, record


def read_pairs(path, header) -> dict:
    """Key -> value of a ``header`` CSV file of one row of non-empty fields
    per key, blank lines skipped; with more than two columns the value is
    the tuple of the fields after the key. Messages name the fields by their
    header names, "_" read as a space, and the row by its physical line."""
    names = [name.replace("_", " ") for name in header]
    width = len(header)
    pairs = {}
    with open_csv(path, header) as (lines, record):
        for line_no, row in starmap(record, lines):
            if not row:
                continue  # blank line
            if len(row) != width:
                raise ParseError(
                    f"need {width} fields, got {len(row)}", line_no
                )
            if not all(row):
                raise ParseError(f"empty {' or '.join(names)}", line_no)
            key, *values = row
            if key in pairs:
                raise ValidationError(f"duplicate {names[0]} {key!r}", line_no)
            pairs[key] = values[0] if width == 2 else tuple(values)
    return pairs


def read_categories(path) -> dict:
    """The category table: at least two ``category_id,label`` pairs."""
    categories = read_pairs(path, CATEGORY_COLUMNS)
    if len(categories) < 2:
        with naming(path):
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
    # ``open_csv``'s record() splits a line on commas when it has no quote
    # and is no longer than this; so does the loop below.
    limit = csv.field_size_limit()

    # Each distinct timestamp text is parsed once, into ``times``, and
    # ``timestamps`` maps it to its index there; so is each distinct line
    # tail "unit_price,quantity,promo_flag<line end>": ``values`` maps a
    # tail whose three fields are valid to its line value in cents. A bad
    # one is never stored, so it raises at its first row.
    times, timestamps, values = [], {}, {}
    basket_index = {}  # basket_id -> basket index, in first-seen order
    customer_index = {}  # customer_id -> customer index, in first-seen order
    # Per basket: its customer's first-seen index and its timestamp's index.
    basket_customer, basket_time = array("q"), array("q")
    # Cents spent per basket x category cell (basket * n_cats + category),
    # as doubles, since price times quantity can pass the int64 range. Each
    # line value rounds once, to the double nearest the exact product.
    spend, zero_row = array("d"), array("d", bytes(8 * n_cats))
    n_unknown, unknown_shown = 0, []  # rows in unknown categories
    # A row with the basket id, customer id and timestamp text of the
    # previous accepted row continues its basket: its timestamp is parsed
    # and its basket passed the conflict checks, so it skips both lookups.
    last_bid = last_cid = last_ts = None
    get_ts, get_value = timestamps.get, values.get
    get_cat, get_basket = cat_index.get, basket_index.get

    with open_csv(path, RECEIPT_COLUMNS) as (lines, record):
        for line_no, line in lines:
            parts = line.split(",", 5)
            plain = '"' not in line and len(line) <= limit
            # Only a stored tail has two commas and no empty field, so a
            # hit on a plain line means eight fields whose last three are
            # valid.
            value = get_value(parts[-1])
            if value is None or "" in parts or not plain:
                # Every check, in order, on the fields of the record.
                line_no, row = record(line_no, line)
                if not row:
                    continue  # blank line
                if len(row) != n_fields or "" in row:
                    if len(row) > n_fields:
                        raise ParseError(
                            f"expected {n_fields} fields, got {len(row)}",
                            line_no,
                        )
                    raise ParseError("missing column value", line_no)
                bid, cid, ts_text, _, cat, price_text, qty_text, promo = row
                if ts_text not in timestamps:
                    timestamps[ts_text] = _parse_timestamp(
                        ts_text, line_no, times
                    )
                price = _parse_price(price_text, line_no, bid)
                value = price * _parse_quantity(qty_text, line_no, bid)
                if promo not in ("0", "1"):
                    raise ParseError(
                        f"promo_flag must be 0 or 1, got {promo!r}", line_no
                    )
                if plain:
                    values[parts[-1]] = value
            else:
                bid, cid, ts_text, _, cat, _ = parts
            same_basket = (
                bid == last_bid and cid == last_cid and ts_text == last_ts
            )
            if not same_basket:
                t = get_ts(ts_text)
                if t is None:
                    t = timestamps[ts_text] = _parse_timestamp(
                        ts_text, line_no, times
                    )
            c = get_cat(cat)
            if c is None:
                n_unknown += 1
                if len(unknown_shown) < 10:
                    unknown_shown.append(f"line {line_no} ({cat!r})")
                continue

            if not same_basket:
                b = get_basket(bid)
                if b is None:
                    b = basket_index[bid] = len(basket_time)
                    basket_customer.append(
                        customer_index.setdefault(cid, len(customer_index))
                    )
                    basket_time.append(t)
                    spend.extend(zero_row)
                elif customer_index.get(cid) != basket_customer[b]:
                    first = list(customer_index)[basket_customer[b]]
                    raise ValidationError(
                        f"basket {bid!r} has conflicting customer ids "
                        f"{first!r} and {cid!r}", line_no
                    )
                elif basket_time[b] != t and (
                    times[basket_time[b]].isoformat() != times[t].isoformat()
                ):
                    raise ValidationError(
                        f"basket {bid!r} has conflicting timestamps "
                        f"{times[basket_time[b]].isoformat()!r} and "
                        f"{times[t].isoformat()!r}", line_no
                    )
                first_cell = b * n_cats
                last_bid, last_cid, last_ts = bid, cid, ts_text
            spend[first_cell + c] += value

    inside = list(map(window.contains, times))
    kept = sorted(
        bid for bid, b in basket_index.items() if inside[basket_time[b]]
    )
    rows = np.fromiter(
        map(basket_index.__getitem__, kept), dtype=np.intp, count=len(kept)
    )
    # A line value or sum that reaches 2**53 still rounds to >= 2**53,
    # which the total check rejects.
    spend = np.frombuffer(spend, dtype=float).reshape(-1, n_cats)[rows]
    basket_values = spend.sum(axis=1)
    empty = np.flatnonzero(basket_values <= 0)
    with naming(path):
        if n_unknown:
            raise ValidationError(
                f"{n_unknown} rows reference unknown categories: "
                f"{', '.join(unknown_shown)}"
            )
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
        times=times,
        basket_time=np.frombuffer(basket_time, dtype=np.int64)[rows],
        spend_cents=spend.astype(np.int64),
        dropped_outside_window=len(basket_time) - len(kept),
        receipts_file=path,
        categories_file=category_table,
    )
