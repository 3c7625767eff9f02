import random
from datetime import date

import numpy as np
import pytest

from conftest import WINDOW, write_categories, write_receipts
from shopmission.txmodel import (
    RECEIPT_COLUMNS,
    AnalysisWindow,
    ParseError,
    ValidationError,
    ingest_receipts,
    read_categories,
)


@pytest.fixture
def cats(tmp_path):
    path = tmp_path / "categories.csv"
    write_categories(path, ["K00", "K01", "K02"])
    return path


def ingest(tmp_path, cats, rows, window=WINDOW):
    receipts = tmp_path / "receipts.csv"
    write_receipts(receipts, rows)
    return ingest_receipts(receipts, cats, window)


def test_rows_sharing_basket_id_group_into_one_basket(tmp_path, cats):
    ds = ingest(tmp_path, cats, [
        "b1,c1,2025-02-01T10:00:00,p1,K00,2.50,1,0",
        "b1,c1,2025-02-01T10:00:00,p2,K01,1.00,2,0",
        "b1,c1,2025-02-01T10:00:00,p3,K02,0.30,1,1",
    ])
    assert ds.n_baskets == 1
    # one line in each of the three category columns
    assert ds.spend_cents.tolist() == [[250, 200, 30]]
    assert ds.basket_cents.tolist() == [250 + 200 + 30]


def test_negative_unit_price_rejected_with_line_number(tmp_path, cats):
    with pytest.raises(ValidationError, match="line 3"):
        ingest(tmp_path, cats, [
            "b1,c1,2025-02-01,p1,K00,2.50,1,0",
            "b2,c1,2025-02-02,p1,K00,-1.0,1,0",
        ])


def test_malformed_number_reports_line(tmp_path, cats):
    with pytest.raises(ParseError, match="line 2"):
        ingest(tmp_path, cats, ["b1,c1,2025-02-01,p1,K00,abc,1,0"])


def test_missing_column_value_rejected(tmp_path, cats):
    with pytest.raises(ParseError, match="line 2"):
        ingest(tmp_path, cats, ["b1,c1,2025-02-01,p1,K00,1.00,,0"])


def test_subcent_price_rejected(tmp_path, cats):
    with pytest.raises(ParseError, match="sub-cent"):
        ingest(tmp_path, cats, ["b1,c1,2025-02-01,p1,K00,1.005,1,0"])


def test_bad_promo_flag_rejected(tmp_path, cats):
    with pytest.raises(ParseError, match="promo_flag"):
        ingest(tmp_path, cats, ["b1,c1,2025-02-01,p1,K00,1.00,1,2"])


def test_unknown_category_lists_offending_rows(tmp_path, cats):
    with pytest.raises(ValidationError, match="unknown categories"):
        ingest(tmp_path, cats, [
            "b1,c1,2025-02-01,p1,K00,1.00,1,0",
            "b2,c1,2025-02-02,p1,K99,1.00,1,0",
        ])


def test_zero_value_basket_rejected(tmp_path, cats):
    with pytest.raises(ValidationError, match="non-positive"):
        ingest(tmp_path, cats, ["b1,c1,2025-02-01,p1,K00,0.00,1,0"])


def test_conflicting_customer_id_rejected(tmp_path, cats):
    with pytest.raises(ValidationError, match="conflicting"):
        ingest(tmp_path, cats, [
            "b1,c1,2025-02-01,p1,K00,1.00,1,0",
            "b1,c2,2025-02-01,p2,K01,1.00,1,0",
        ])


def test_baskets_outside_window_dropped_and_counted(tmp_path, cats):
    ds = ingest(tmp_path, cats, [
        "b1,c1,2025-02-01,p1,K00,1.00,1,0",
        "b2,c1,2024-12-31,p1,K00,1.00,1,0",
        "b3,c1,2025-04-01,p1,K00,1.00,1,0",
    ])
    assert ds.n_baskets == 1
    assert ds.dropped_outside_window == 2


def test_window_invariants():
    with pytest.raises(ValidationError):
        AnalysisWindow(start=date(2025, 3, 1), end=date(2025, 3, 1))
    assert WINDOW.length_days == 89


def test_baskets_partition_by_customer(tmp_path, cats):
    rows = []
    for i, cust in enumerate(["a", "a", "b", "b", "b"]):
        rows.append(f"b{i},{cust},2025-02-0{i + 1},p1,K00,1.00,1,0")
    ds = ingest(tmp_path, cats, rows)
    per_customer = np.bincount(ds.basket_customer)
    assert sorted(per_customer.tolist()) == [2, 3]
    assert per_customer.sum() == ds.n_baskets


def test_empty_receipts_give_empty_dataset(tmp_path, cats):
    ds = ingest(tmp_path, cats, [])
    assert ds.n_baskets == 0
    assert ds.customer_ids == []
    assert ds.spend_cents.shape == (0, 3)


def test_history_customer_ids_consistent(tmp_path, cats):
    ds = ingest(tmp_path, cats, [
        "b1,a,2025-02-01,p1,K00,1.00,1,0",
        "b2,b,2025-02-02,p1,K00,1.00,1,0",
    ])
    assert ds.customer_ids == ["a", "b"]
    owners = [ds.customer_ids[c] for c in ds.basket_customer]
    assert dict(zip(ds.basket_ids, owners)) == {"b1": "a", "b2": "b"}


def test_value_conservation(small_planted):
    _, _, _, dataset = small_planted
    per_customer = np.zeros(len(dataset.customer_ids), dtype=np.int64)
    np.add.at(per_customer, dataset.basket_customer, dataset.basket_cents)
    total = int(per_customer.sum())
    assert total == dataset.total_value_cents  # exact in minor units


def test_syngen_counts_match_ground_truth(small_planted):
    _, _, truth, dataset = small_planted
    assert dataset.n_baskets == len(truth.basket_archetype)
    assert set(dataset.customer_ids) == set(truth.customer_mission)
    per_customer = np.bincount(dataset.basket_customer)
    for cid, n_baskets in zip(dataset.customer_ids, per_customer):
        expected = sum(
            1 for bid in truth.basket_archetype if bid.startswith("b" + cid[1:] + "_")
        )
        assert n_baskets == expected


def test_ingestion_deterministic_under_row_shuffle(tmp_path, cats):
    rows = [
        f"b{i},c{i % 3},2025-02-{(i % 27) + 1:02d},p{i},K0{i % 3},{i + 1}.00,1,0"
        for i in range(30)
    ]
    ds1 = ingest(tmp_path, cats, rows)
    shuffled = rows[:]
    random.Random(4).shuffle(shuffled)
    receipts2 = tmp_path / "receipts2.csv"
    write_receipts(receipts2, shuffled)
    ds2 = ingest_receipts(receipts2, cats, WINDOW)
    assert ds1.fingerprint() == ds2.fingerprint()
    assert ds1.basket_ids == ds2.basket_ids


@pytest.mark.parametrize("price", ["Infinity", "-Infinity", "1e400", "NaN", "sNaN"])
def test_non_finite_or_huge_price_rejected(tmp_path, cats, price):
    with pytest.raises(ParseError, match=r"line 3: bad money value"):
        ingest(tmp_path, cats, [
            "b1,c1,2025-02-01,p1,K00,1.00,1,0",
            f"b2,c1,2025-02-02,p1,K00,{price},1,0",
        ])


def test_total_value_reaching_2_pow_53_cents_rejected(tmp_path, cats):
    # 2**53 - 1 cents is the largest accepted unit price ...
    top = "90071992547409.91"
    ds = ingest(tmp_path, cats, [f"b1,c1,2025-02-01,p1,K00,{top},1,0"])
    assert ds.total_value_cents == 2**53 - 1
    # ... and one more cent anywhere makes the total inexact in float64.
    with pytest.raises(ValidationError, match="2\\*\\*53"):
        ingest(tmp_path, cats, [
            f"b1,c1,2025-02-01,p1,K00,{top},1,0",
            "b2,c1,2025-02-02,p1,K00,0.01,1,0",
        ])
    with pytest.raises(ParseError, match="bad money value"):
        ingest(tmp_path, cats, ["b1,c1,2025-02-01,p1,K00,90071992547409.92,1,0"])


@pytest.mark.parametrize(
    "price, quantity",
    [("0.02", 2**52), ("90071992547409.91", 2**53 - 1)],
)
def test_line_value_reaching_2_pow_53_cents_rejected(
    tmp_path, cats, price, quantity
):
    # Price and quantity are each below 2**53, but their product reaches
    # 2**53 cents (up to about 2**106, beyond int64); it must still be seen
    # by the total check, and in a basket outside the window it is dropped.
    row = f"b1,c1,2025-02-01,p1,K00,{price},{quantity},0"
    with pytest.raises(
        ValidationError,
        match=r"^total value reaches 2\*\*53 cents \(9007199254740992\); "
        "cents sums would no longer be exact$",
    ):
        ingest(tmp_path, cats, [row, "b2,c1,2025-02-02,p1,K01,1.00,1,0"])
    ds = ingest(tmp_path, cats, [
        row.replace("2025-02-01", "2024-12-31"),
        "b2,c1,2025-02-02,p1,K01,1.00,1,0",
    ])
    assert ds.basket_ids == ["b2"] and ds.dropped_outside_window == 1
    assert ds.total_value_cents == 100


def test_huge_quantity_rejected(tmp_path, cats):
    with pytest.raises(ValidationError, match=r"line 2: quantity must be >= 1 and below 2\*\*53"):
        ingest(tmp_path, cats, [f"b1,c1,2025-02-01,p1,K00,0.01,{2**53},0"])


def test_conflicting_basket_timestamps_rejected(tmp_path, cats):
    with pytest.raises(ValidationError) as exc:
        ingest(tmp_path, cats, [
            "b1,c1,2025-02-01T10:00:00,p1,K00,1.00,1,0",
            "b2,c1,2025-02-01T11:00:00,p1,K00,1.00,1,0",
            "b1,c1,2025-02-01T12:00:00,p2,K01,1.00,1,0",
        ])
    message = str(exc.value)
    assert "line 4" in message and "'b1'" in message
    assert "2025-02-01T10:00:00" in message and "2025-02-01T12:00:00" in message


def test_equal_timestamps_in_other_spelling_accepted(tmp_path, cats):
    ds = ingest(tmp_path, cats, [
        "b1,c1,2025-02-01,p1,K00,1.00,1,0",
        "b1,c1,2025-02-01T00:00:00,p2,K01,1.00,1,0",
    ])
    assert ds.n_baskets == 1


def test_mixed_timezone_awareness_rejected(tmp_path, cats):
    with pytest.raises(ValidationError, match="line 3: .*timezone-aware and naive"):
        ingest(tmp_path, cats, [
            "b1,c1,2025-02-01T10:00:00+01:00,p1,K00,1.00,1,0",
            "b2,c1,2025-02-01T10:00:00,p1,K00,1.00,1,0",
        ])
    # all-aware files are fine; one instant in two offsets is two timestamps
    with pytest.raises(ValidationError, match="conflicting timestamps"):
        ingest(tmp_path, cats, [
            "b1,c1,2025-02-01T10:00:00+01:00,p1,K00,1.00,1,0",
            "b1,c1,2025-02-01T09:00:00+00:00,p2,K01,1.00,1,0",
        ])


def test_line_numbers_are_physical_lines(tmp_path, cats):
    receipts = tmp_path / "receipts.csv"
    receipts.write_text(
        ",".join(RECEIPT_COLUMNS) + "\n"
        "b1,c1,2025-02-01,p1,K00,1.00,1,0\n"
        "\n"
        "b2,c1,2025-02-02,p1,K00,1.00,x,0\n"
    )
    with pytest.raises(ParseError, match="line 4: bad quantity"):
        ingest_receipts(receipts, cats, WINDOW)


def test_blank_lines_skipped(tmp_path, cats):
    receipts = tmp_path / "receipts.csv"
    receipts.write_text(
        ",".join(RECEIPT_COLUMNS) + "\n\n"
        "b1,c1,2025-02-01,p1,K00,1.00,1,0\n\n\n"
        "b2,c1,2025-02-02,p1,K00,1.00,1,0\n"
    )
    assert ingest_receipts(receipts, cats, WINDOW).n_baskets == 2


def test_extra_fields_rejected(tmp_path, cats):
    with pytest.raises(ParseError, match="line 2: expected 8 fields, got 9"):
        ingest(tmp_path, cats, ["b1,c1,2025-02-01,p1,K00,1.00,1,0,extra"])


def test_malformed_csv_is_a_parse_error(tmp_path, cats):
    # a quoted field longer than the csv module's field size limit
    with pytest.raises(ParseError, match="line 2: malformed CSV"):
        ingest(tmp_path, cats, ['b1,c1,2025-02-01,p1,K00,1.00,1,"' + "x" * 200_000 + '"'])


def test_unterminated_quote_is_a_parse_error(tmp_path, cats):
    # A quote opened in the last field must not swallow the rest of the file.
    with pytest.raises(ParseError, match="line 2: malformed CSV: unexpected end"):
        ingest(tmp_path, cats, ['b1,c1,2025-02-01,p1,K00,1.00,1,"0'])


@pytest.mark.parametrize(
    "body, message",
    [
        ("K00,a\nK01\n", "line 3: category row needs 2 fields, got 1"),
        ("K00,a\nK01,b,extra\n", "line 3: category row needs 2 fields, got 3"),
        ("K00,a\n,b\n", "line 3: empty category id or label"),
        ("K00,a\nK01,\n", "line 3: empty category id or label"),
        ("K00,a\n\nK01,b\nK00,c\n", "line 5: duplicate category id 'K00'"),
        ('K00,a\nK01,"' + "x" * 200_000 + '"\n', "line 3: malformed CSV"),
        ('K00,a\nK01,"b', "line 3: malformed CSV: unexpected end of data"),
    ],
)
def test_bad_category_rows_rejected(tmp_path, body, message):
    path = tmp_path / "categories.csv"
    path.write_text("category_id,label\n" + body)
    with pytest.raises((ParseError, ValidationError), match=message):
        read_categories(path)


def test_category_table_not_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "categories.csv"
    path.write_bytes(b"category_id,label\nK00,a\nK01,\xff\n")
    with pytest.raises(ParseError, match="not valid UTF-8"):
        read_categories(path)


def test_category_table_blank_lines_skipped(tmp_path):
    path = tmp_path / "categories.csv"
    path.write_text("category_id,label\n\nK00,a\n\nK01,b\n")
    assert sorted(read_categories(path)) == ["K00", "K01"]
