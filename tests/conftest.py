import itertools
import math
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from shopmission.features import FeatureMatrix
from shopmission.syngen import default_config, generate
from shopmission.txmodel import RECEIPT_COLUMNS, AnalysisWindow, ingest_receipts

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


def matrix_from(X):
    """A ``FeatureMatrix`` of the rows of ``X``, with ids e0000, e0001, ..."""
    X = np.asarray(X, dtype=float)
    return FeatureMatrix(
        ids=[f"e{i:04d}" for i in range(len(X))],
        X=X,
        schema=[f"f{j}" for j in range(X.shape[1])],
    )


# --- independent brute-force oracles (plain Python, no numpy reductions) ---

def oracle_bvr(X, labels):
    n, d = X.shape
    mean = [sum(X[i][t] for i in range(n)) / n for t in range(d)]
    total = sum((X[i][t] - mean[t]) ** 2 for i in range(n) for t in range(d))
    within = 0.0
    for c in set(labels):
        pts = [i for i in range(n) if labels[i] == c]
        cm = [sum(X[i][t] for i in pts) / len(pts) for t in range(d)]
        within += sum((X[i][t] - cm[t]) ** 2 for i in pts for t in range(d))
    return 1.0 - within / total


def oracle_db(X, labels):
    clusters = sorted(set(labels))
    d_dim = X.shape[1]
    centers, disp = {}, {}
    for c in clusters:
        pts = [i for i in range(len(X)) if labels[i] == c]
        centers[c] = [sum(X[i][t] for i in pts) / len(pts) for t in range(d_dim)]
        disp[c] = sum(
            math.sqrt(sum((X[i][t] - centers[c][t]) ** 2 for t in range(d_dim)))
            for i in pts
        ) / len(pts)
    total = 0.0
    for ci in clusters:
        worst = 0.0
        for cj in clusters:
            if ci == cj:
                continue
            dist = math.sqrt(
                sum((a - b) ** 2 for a, b in zip(centers[ci], centers[cj]))
            )
            worst = max(worst, (disp[ci] + disp[cj]) / dist)
        total += worst
    return total / len(clusters)


def oracle_purity(a, b):
    total = 0
    for ci in set(a.values()):
        members = {e for e, c in a.items() if c == ci}
        total += max(
            len(members & {e for e, c in b.items() if c == cj})
            for cj in set(b.values())
        )
    return total / len(a)


def write_receipts(path: Path, rows):
    header = "basket_id,customer_id,timestamp,product_id,category_id,unit_price,quantity,promo_flag"
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")


def write_categories(path: Path, ids):
    path.write_text(
        "\n".join(["category_id,label"] + [f"{c},Label {c}" for c in ids]) + "\n",
        encoding="utf-8",
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
    '"q""uoted"', '"a,\r\nb"', "\x00", "\r", "\n", "\r\r\n", "é",
]


RARELY = st.sampled_from([False] * 9 + [True])


@st.composite
def mutated_lines(draw, lines):
    """The bytes of a CSV file of ``lines`` (header first) with a few edits,
    mostly to data rows; now and then the header, a byte that is not valid
    UTF-8 or a missing line end at the end of the file."""
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
    # Now and then the last line has no line end.
    data = ("\n".join(lines) + ("" if draw(RARELY) else "\n")).encode()
    if draw(RARELY):
        k = draw(st.integers(0, len(data)))
        data = data[:k] + draw(st.sampled_from([b"\xff", b"\xc3", b"\r\n"])) + data[k:]
    return data


# --- Hypothesis: small valid receipt files. ---

CATEGORY_IDS = ["K00", "K01", "K02"]
NAIVE_DAYS = ["2024-12-31", "2025-01-01", "2025-02-14T09:30:00", "2025-03-31", "2025-04-01"]
# One instant in two offsets is two timestamps; local dates decide the window.
AWARE_DAYS = [
    "2025-02-14T10:00:00+01:00", "2025-02-14T09:00:00+00:00",
    "2025-01-01T00:30:00+01:00", "2024-12-31T23:30:00+00:00",
    "2025-03-31T23:59:00-05:00",
]


@st.composite
def receipt_rows(draw):
    """Valid rows: every basket has one customer, one timestamp and a
    positive value; some fall outside the window."""
    days = draw(st.sampled_from([NAIVE_DAYS, AWARE_DAYS]))
    rows = []
    for b in range(draw(st.integers(1, 12))):
        customer = f"c{draw(st.integers(0, 4))}"
        day = draw(st.sampled_from(days))
        n_lines = draw(st.integers(1, 4))
        for line in range(n_lines):
            cents = draw(st.integers(1 if line == 0 else 0, 99_999))
            qty = draw(st.integers(1, 5))
            cat = draw(st.sampled_from(CATEGORY_IDS))
            promo = draw(st.sampled_from("01"))
            rows.append(
                f"b{b:02d},{customer},{day},p{line},{cat},"
                f"{cents // 100}.{cents % 100:02d},{qty},{promo}"
            )
    return rows


@st.composite
def mutated_receipts(draw):
    """The bytes of a receipts file of ``receipt_rows`` with a few edits."""
    return draw(mutated_lines([",".join(RECEIPT_COLUMNS)] + draw(receipt_rows())))
