import itertools
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from shopmission.syngen import default_config, generate
from shopmission.txmodel import AnalysisWindow, ingest_receipts

WINDOW = AnalysisWindow(start=date(2025, 1, 1), end=date(2025, 3, 31))


@pytest.fixture(scope="session")
def small_planted(tmp_path_factory):
    """300-customer planted dataset shared by the module tests."""
    out = tmp_path_factory.mktemp("syngen_small")
    cfg = default_config(n_customers=300, seed=11, baskets_range=(12, 20))
    truth = generate(cfg, out)
    dataset = ingest_receipts(out / "receipts.csv", out / "categories.csv", WINDOW)
    return out, cfg, truth, dataset


def as_assignment(ids, labels) -> dict:
    """entity id -> label mapping of a label array, to compare it with
    ground truth through ``validity.purity``."""
    return dict(zip(ids, np.asarray(labels).tolist()))


def write_receipts(path: Path, rows):
    header = "basket_id,customer_id,timestamp,product_id,category_id,unit_price,quantity,promo_flag"
    path.write_text("\n".join([header] + rows) + "\n")


def write_categories(path: Path, ids):
    path.write_text(
        "\n".join(["category_id,label"] + [f"{c},Label {c}" for c in ids]) + "\n"
    )


def basket_rows(bid, cust, spends, when="2025-02-01"):
    """Receipt rows of one basket; spends maps category -> value in currency
    units, and every positive value becomes one line of quantity 1."""
    rows = []
    for cat, value in spends.items():
        if value > 0:
            cents = int(round(value * 100))
            price = f"{cents // 100}.{cents % 100:02d}"
            rows.append(f"{bid},{cust},{when},p_{cat},{cat},{price},1,0")
    return rows


@pytest.fixture
def make_dataset(tmp_path):
    """make(rows, categories) writes both CSVs and returns the ingested
    Dataset; each call uses a fresh directory."""
    counter = itertools.count()

    def make(rows, categories, window=WINDOW):
        directory = tmp_path / f"dataset{next(counter)}"
        directory.mkdir()
        write_receipts(directory / "receipts.csv", rows)
        write_categories(directory / "categories.csv", categories)
        return ingest_receipts(
            directory / "receipts.csv", directory / "categories.csv", window
        )

    return make


# --- Hypothesis: valid CSV files with a few edits. ---

FIELD_VALUES = [
    "", " ", "x", "0", "1", "-1", "2", "0.001", "1e400", "Infinity", "NaN",
    "-0.00", "9007199254740992", "90071992547409.92", "K00", "K99",
    "2025-02-30", "2025-02-01T10:00:00+01:00", "2025-02-01 10:00", '"', "a,b",
    '"q""uoted"', "\x00", "\r", "\n", "é",
]


RARELY = st.sampled_from([False] * 9 + [True])


@st.composite
def mutated_lines(draw, lines):
    """The bytes of a CSV file of ``lines`` (header first) with a few edits,
    mostly to data rows; now and then the header or a byte that is not
    valid UTF-8."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 4))):
        first = 0 if draw(RARELY) else 1
        if len(lines) <= first:
            break
        i = draw(st.integers(first, len(lines) - 1))
        kind = draw(st.sampled_from(["field", "chars", "drop", "duplicate", "blank", "extra"]))
        fields = lines[i].split(",")
        if kind == "field":
            j = draw(st.integers(0, len(fields) - 1))
            fields[j] = draw(st.sampled_from(FIELD_VALUES) | st.text(max_size=6))
            lines[i] = ",".join(fields)
        elif kind == "chars":
            text = lines[i]
            k = draw(st.integers(0, len(text)))
            cut = draw(st.integers(0, 3))
            lines[i] = text[:k] + draw(st.text(max_size=3)) + text[k + cut:]
        elif kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "blank":
            lines.insert(i, "")
        else:
            lines[i] += "," + draw(st.sampled_from(FIELD_VALUES))
    data = ("\n".join(lines) + "\n").encode()
    if draw(RARELY):
        k = draw(st.integers(0, len(data)))
        data = data[:k] + draw(st.sampled_from([b"\xff", b"\xc3", b"\r\n"])) + data[k:]
    return data
