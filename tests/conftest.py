import itertools
from datetime import date
from pathlib import Path

import pytest

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
