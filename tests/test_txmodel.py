import random
import re
from dataclasses import replace
from datetime import date

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import (
    CATEGORY_IDS,
    WINDOW,
    receipt_rows,
    write_categories,
    write_receipts,
)
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


def test_unknown_category_message_counts_all_and_shows_ten(tmp_path, cats):
    rows = [f"b{i},c1,2025-02-01,p1,K9{i % 2},1.00,1,0" for i in range(12)]
    with pytest.raises(ValidationError) as exc:
        ingest(tmp_path, cats, ["b0,c1,2025-02-01,p1,K00,1.00,1,0"] + rows)
    shown = ", ".join(f"line {i + 3} ('K9{i % 2}')" for i in range(10))
    assert str(exc.value) == (
        f"{tmp_path / 'receipts.csv'}: 12 rows reference unknown "
        f"categories: {shown}"
    )


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


# Only plain ASCII decimal text is a price: no exponent, digit separator,
# sign other than "-", surrounding space or non-ASCII digit.
@pytest.mark.parametrize("price", [
    "Infinity", "-Infinity", "1e400", "NaN", "sNaN", "1e1", "1_0.00",
    " 1.00", "1.00 ", "+1.00", "\u0661.00", "1.", ".50", "1.0_0",
])
def test_non_finite_or_huge_price_rejected(tmp_path, cats, price):
    message = f"line 3: bad money value {price!r}"
    with pytest.raises(ParseError, match=re.escape(message)):
        ingest(tmp_path, cats, [
            "b1,c1,2025-02-01,p1,K00,1.00,1,0",
            f"b2,c1,2025-02-02,p1,K00,{price},1,0",
        ])


@pytest.mark.parametrize("quantity", [
    "1_0", "\u0663", " 3", "3 ", "+3", "3.0", "1e1", "x",
    pytest.param("1" * 5000, id="5000-digits"),
])
def test_non_decimal_quantity_rejected(tmp_path, cats, quantity):
    message = f"line 3: bad quantity {quantity!r}"
    with pytest.raises(ParseError, match=re.escape(message)):
        ingest(tmp_path, cats, [
            "b1,c1,2025-02-01,p1,K00,1.00,1,0",
            f"b2,c1,2025-02-02,p1,K00,1.00,{quantity},0",
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
        match="^" + re.escape(
            f"{tmp_path / 'receipts.csv'}: total value reaches 2**53 cents "
            "(9007199254740992); cents sums would no longer be exact"
        ) + "$",
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


GOOD_ROW = "b1,c1,2025-02-01T10:00:00,p1,K00,1.00,1,0"

# Rows bad in two fields: each row checks its timestamp, price, quantity,
# promo flag and category, then its basket, so the earlier check's message
# wins. The bad row continues GOOD_ROW's basket where it can, so the checks
# a continuation row skips are not the ones that decide.
CHECK_ORDER = [
    ("b1,c1,noon,p2,K00,abc,1,0", ParseError,
     "line 3: bad timestamp 'noon'"),
    ("b1,c1,2025-02-01T10:00:00,p2,K00,abc,1,7", ParseError,
     "line 3: bad money value 'abc'"),
    ("b1,c1,2025-02-01T10:00:00,p2,K99,1.00,x,0", ParseError,
     "line 3: bad quantity 'x'"),
    ("b1,c2,2025-02-01T10:00:00,p2,K00,1.00,1,7", ParseError,
     "line 3: promo_flag must be 0 or 1, got '7'"),
    # Continuation rows: the same basket id with a changed customer id, or
    # a changed timestamp text, still goes through the basket checks.
    ("b1,c2,2025-02-01T10:00:00,p2,K01,1.00,1,0", ValidationError,
     "line 3: basket 'b1' has conflicting customer ids 'c1' and 'c2'"),
    ("b1,c1,2025-02-01T11:00:00,p2,K01,1.00,1,0", ValidationError,
     "line 3: basket 'b1' has conflicting timestamps "
     "'2025-02-01T10:00:00' and '2025-02-01T11:00:00'"),
]


@pytest.mark.parametrize("row, error, message", CHECK_ORDER)
def test_earlier_check_wins_on_a_row_bad_in_two_fields(
    tmp_path, cats, row, error, message
):
    with pytest.raises(error) as exc:
        ingest(tmp_path, cats, [GOOD_ROW, row])
    assert str(exc.value) == f"{tmp_path / 'receipts.csv'}: {message}"


def test_basket_split_by_another_basket_rows(tmp_path, cats):
    rows = [
        GOOD_ROW,
        "b2,c2,2025-02-02T10:00:00,p1,K01,2.00,1,0",
        "b1,c1,2025-02-01T10:00:00,p2,K02,3.00,2,0",
        "b2,c2,2025-02-02T10:00:00,p2,K01,0.50,1,1",
        "b1,c1,2025-02-01T10:00:00,p3,K02,1.00,1,0",
    ]
    ds = ingest(tmp_path, cats, rows)
    assert ds.basket_ids == ["b1", "b2"]
    assert ds.customer_ids == ["c1", "c2"]
    assert ds.spend_cents.tolist() == [[100, 0, 700], [0, 250, 0]]
    # A split basket's returning row still meets the conflict checks.
    for bad, message in [
        ("b1,c2,2025-02-01T10:00:00,p4,K00,1.00,1,0",
         "line 7: basket 'b1' has conflicting customer ids 'c1' and 'c2'"),
        ("b1,c1,2025-02-02T10:00:00,p4,K00,1.00,1,0",
         "line 7: basket 'b1' has conflicting timestamps "
         "'2025-02-01T10:00:00' and '2025-02-02T10:00:00'"),
    ]:
        with pytest.raises(ValidationError) as exc:
            ingest(tmp_path, cats, rows + [bad])
        assert str(exc.value) == f"{tmp_path / 'receipts.csv'}: {message}"


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


def test_unquoted_field_over_the_limit_is_a_parse_error(tmp_path, cats):
    # Unquoted lines are split on commas without the csv module, but a line
    # longer than its field size limit still goes through it.
    with pytest.raises(ParseError) as exc:
        ingest(tmp_path, cats, [
            GOOD_ROW,
            "b1,c1,2025-02-01,p" + "x" * 131_072 + ",K00,1.00,1,0",
        ])
    assert str(exc.value) == (
        f"{tmp_path / 'receipts.csv'}: line 3: malformed CSV: "
        "field larger than field limit (131072)"
    )


def test_quoted_field_with_comma_and_line_break(tmp_path, cats):
    # The quoted product id spans lines 2 and 3; the record reads like its
    # unquoted twin, and later lines keep their physical numbers.
    quoted = ['b1,c1,2025-02-01,"p,\n1",K00,1.00,1,0']
    twin = ["b1,c1,2025-02-01,p1,K00,1.00,1,0"]
    second = "b2,c1,2025-02-02,p1,K01,2.00,1,0"
    a = ingest(tmp_path, cats, quoted + [second])
    b = ingest(tmp_path, cats, twin + [second])
    assert a.basket_ids == b.basket_ids == ["b1", "b2"]
    assert a.spend_cents.tolist() == b.spend_cents.tolist()
    assert a.fingerprint() == b.fingerprint()
    path = tmp_path / "receipts.csv"
    for rows, message in [
        (quoted + ["b2,c1,2025-02-02,p1,K01,2.00,x,0"],
         "line 4: bad quantity 'x'"),
        # A bad record that spans lines is reported at its last line.
        (['b1,c1,2025-02-01,"p,\n1",K00,abc,1,0'],
         "line 3: bad money value 'abc'"),
    ]:
        with pytest.raises(ParseError) as exc:
            ingest(tmp_path, cats, rows)
        assert str(exc.value) == f"{path}: {message}"


def test_unterminated_quote_is_a_parse_error(tmp_path, cats):
    # A quote opened in the last field must not swallow the rest of the file.
    with pytest.raises(ParseError, match="line 2: malformed CSV: unexpected end"):
        ingest(tmp_path, cats, ['b1,c1,2025-02-01,p1,K00,1.00,1,"0'])


@pytest.mark.parametrize(
    "body, message",
    [
        ("K00,a\nK01\n", "line 3: need 2 fields, got 1"),
        ("K00,a\nK01,b,extra\n", "line 3: need 2 fields, got 3"),
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
    with pytest.raises(
        (ParseError, ValidationError), match=re.escape(f"{path}: ") + message
    ):
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


def test_fingerprint_tells_utc_offsets_apart(tmp_path, cats):
    # 10:00+01:00 and 09:00+00:00 are one instant, so they compare equal,
    # but they print differently, and so must hash differently.
    def digest(first, second):
        return ingest(tmp_path, cats, [
            f"b1,c1,2025-02-01T{first},p1,K00,1.00,1,0",
            f"b2,c1,2025-02-01T{second},p1,K00,1.00,1,0",
        ]).fingerprint()

    one, other = "10:00:00+01:00", "09:00:00+00:00"
    digests = {digest(one, other), digest(one, one), digest(other, other)}
    assert len(digests) == 3


def test_fingerprint_of_a_fixed_syngen_dataset(small_planted):
    # Pins the digest, so a faster fingerprint cannot change what it hashes.
    _, _, _, dataset = small_planted
    assert dataset.fingerprint() == (
        "5b8ca3df83838a75be9f413e11afa343d6513e92b4be76b5a98742222e75f521"
    )


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=receipt_rows(), data=st.data())
def test_fingerprint_changes_with_any_one_cell(tmp_path, rows, data):
    # The fingerprint covers each basket's split across categories, not
    # only its total.
    write_categories(tmp_path / "categories.csv", CATEGORY_IDS)
    write_receipts(tmp_path / "receipts.csv", rows)
    ds = ingest_receipts(
        tmp_path / "receipts.csv", tmp_path / "categories.csv", WINDOW
    )
    assume(ds.n_baskets)  # some baskets fall outside the window
    cell = data.draw(st.tuples(
        st.integers(0, ds.n_baskets - 1), st.integers(0, len(CATEGORY_IDS) - 1)
    ))
    delta = data.draw(st.integers(-(2**40), 2**40).filter(bool))
    changed = ds.spend_cents.copy()
    changed[cell] += delta
    assert replace(ds, spend_cents=changed).fingerprint() != ds.fingerprint()
    # Moved to another category of the same basket, the total stays.
    step = data.draw(st.integers(1, len(CATEGORY_IDS) - 1))
    other = (cell[0], (cell[1] + step) % len(CATEGORY_IDS))
    changed[other] -= delta
    assert replace(ds, spend_cents=changed).fingerprint() != ds.fingerprint()
