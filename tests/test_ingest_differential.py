"""``ingest_receipts`` against the loop it replaced.

The reference below is a test-only copy of the earlier ingest loop, which
read every record with a strict ``csv.reader``. The package now splits
unquoted lines on commas itself and parses each distinct
"unit_price,quantity,promo_flag" tail once, so every file, fuzzed or not,
must give the same Dataset or the same exception class and message from
both, line numbers included.
"""

import csv
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings

from conftest import CATEGORY_IDS, WINDOW, mutated_receipts, write_categories
from shopmission.txmodel import (
    MAX_CENTS,
    RECEIPT_COLUMNS,
    Dataset,
    ParseError,
    TxError,
    ValidationError,
    _parse_price,
    _parse_quantity,
    _parse_timestamp,
    ingest_receipts,
    read_categories,
)

# --- Reference: every record through csv.reader. ---


def reference_ingest(path, category_table, window):
    categories = read_categories(category_table)
    cat_index = {c: i for i, c in enumerate(sorted(categories))}
    n_cats, n_fields = len(cat_index), len(RECEIPT_COLUMNS)
    times, timestamps, prices, quantities = [], {}, {}, {}
    basket_index, customer_index = {}, {}
    basket_customer, basket_ts = array("q"), []
    spend, zero_row = array("d"), array("d", bytes(8 * n_cats))
    unknown_category_rows = []
    last_bid = last_cid = last_ts = None

    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f, strict=True)
        try:
            first = next(reader, None)
            if first != RECEIPT_COLUMNS:
                raise ParseError(
                    f"expected header {','.join(RECEIPT_COLUMNS)}, got {first}"
                )
            for row in reader:
                if not row:
                    continue
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
                    ts = timestamps.get(ts_text)
                    if ts is None:
                        ts = timestamps[ts_text] = times[_parse_timestamp(
                            ts_text, line_no, times
                        )]
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
                if not same_basket:
                    b = basket_index.get(bid)
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
        except csv.Error as exc:
            raise ParseError(
                f"{path}: line {reader.line_num}: malformed CSV: {exc}"
            ) from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not valid UTF-8: {exc}") from None
        except TxError as exc:
            exc.args = (f"{path}: {exc}",)
            raise

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
    spend = np.frombuffer(spend, dtype=float).reshape(-1, n_cats)[rows]
    basket_values = spend.sum(axis=1)
    empty = np.flatnonzero(basket_values <= 0)
    if empty.size:
        raise ValidationError(
            f"{path}: basket {kept[empty[0]]!r} has non-positive total value"
        )
    if basket_values.sum() >= MAX_CENTS:
        raise ValidationError(
            f"{path}: total value reaches 2**53 cents ({MAX_CENTS}); "
            "cents sums would no longer be exact"
        )
    first_seen = np.frombuffer(basket_customer, dtype=np.int64)[rows]
    seen_ids = list(customer_index)
    present = np.flatnonzero(np.bincount(first_seen, minlength=len(seen_ids)))
    by_id = sorted(present.tolist(), key=seen_ids.__getitem__)
    rank = np.empty(len(seen_ids), dtype=np.intp)
    rank[by_id] = np.arange(len(by_id))
    # Each basket's object, looked up by identity: one instant in two UTC
    # offsets is two equal objects.
    where = {id(ts): i for i, ts in enumerate(times)}
    return Dataset(
        categories=categories,
        window=window,
        basket_ids=kept,
        customer_ids=[seen_ids[i] for i in by_id],
        basket_customer=rank[first_seen],
        times=times,
        basket_time=np.array(
            [where[id(basket_ts[b])] for b in rows.tolist()], dtype=np.int64
        ),
        spend_cents=spend.astype(np.int64),
        dropped_outside_window=len(basket_ts) - len(kept),
    )


# --- Comparison. ---


def outcome(ingest, receipts, categories):
    """Every column of the Dataset ``ingest`` returns, or the class and
    message of the TxError it raises."""
    try:
        ds = ingest(receipts, categories, WINDOW)
    except TxError as exc:
        return type(exc), str(exc)
    return (
        ds.categories, ds.window, ds.basket_ids, ds.customer_ids,
        ds.basket_customer.tolist(),
        # Equal instants in two UTC offsets compare equal; text tells them
        # apart.
        [(ts, ts.isoformat())
         for ts in map(ds.times.__getitem__, ds.basket_time.tolist())],
        ds.spend_cents.dtype, ds.spend_cents.shape, ds.spend_cents.tobytes(),
        ds.dropped_outside_window,
    )


def assert_same_outcome(tmp_path, data):
    write_categories(tmp_path / "categories.csv", CATEGORY_IDS)
    receipts = tmp_path / "receipts.csv"
    receipts.write_bytes(data)
    args = receipts, tmp_path / "categories.csv"
    assert outcome(ingest_receipts, *args) == outcome(reference_ingest, *args)


HEADER = ",".join(RECEIPT_COLUMNS).encode() + b"\r\n"


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=mutated_receipts())
# A quoted product id holding a comma and a line break, then a bad row.
@example(HEADER + b'b1,c1,2025-02-01,"p,\r\n1",K00,1.00,1,0\r\nb1,c1,2025-02-01,p2,K00,x,1,0\r\n')
# A quoted record left open at the end of the file.
@example(HEADER + b'b1,c1,2025-02-01,p1,K00,1.00,1,0\nb2,c1,2025-02-01,"p1')
# Lone carriage returns end lines too, and the last line may have no end.
@example(HEADER + b"b1,c1,2025-02-01,p1,K00,1.00,1,0\r\r\nb2,c1,2025-02-01,p1,K01,1.00,2,1")
# An unquoted field past the csv module's field size limit.
@example(HEADER + b"b1,c1,2025-02-01,p" + b"x" * 140_000 + b",K00,1.00,1,0\n")
# An unquoted line past the limit whose fields are all within it.
@example(HEADER + b"b1,c1,2025-02-01,p" + b"x" * 100_000 + b",K00,1.00,1,0" + b" " * 40_000 + b"\n")
def test_ingest_matches_the_csv_reader_loop(tmp_path, data):
    assert_same_outcome(tmp_path, data)


def test_unknown_categories_share_one_message_either_way(tmp_path):
    rows = [f"b{i},c1,2025-02-01,p1,K9{i % 3},1.00,1,0" for i in range(14)]
    data = HEADER + "\r\n".join(rows).encode() + b"\r\n"
    assert_same_outcome(tmp_path, data)


@pytest.mark.parametrize("line_end", [b"\n", b"\r\n", b"\r"])
def test_line_ends_read_alike(tmp_path, line_end):
    rows = [b"b1,c1,2025-02-01,p1,K00,1.00,1,0", b"", b"b2,c2,2025-02-02,p1,K01,2.50,3,1"]
    assert_same_outcome(tmp_path, HEADER + line_end.join(rows) + line_end)
