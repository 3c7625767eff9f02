"""Every file that a command writes under --out reads back as data.

Each example draws a syngen dataset and runs every command that writes an
output directory through ``cli.main``. Each file is then parsed by the
reader for its kind; a file of no known kind fails the test.
"""

import csv
import fnmatch
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import WINDOW
from shopmission import __version__, features as feat
from shopmission.cli import main
from shopmission.pipeline import ASSIGNMENT_COLUMNS, SmPipelineModel, score
from shopmission.txmodel import ingest_receipts, read_categories, read_pairs

MANIFEST_KEYS = {"command", "args", "inputs", "seed", "tool_version"}
# The keys of each command's manifest "args", as derived from its options.
MANIFEST_ARGS_KEYS = {
    "syngen": {"customers", "n_categories", "baskets_min", "baskets_max"},
    "rfm": {"k", "mode", "bounds_file", "window", "config"},
    "pps": {"k", "window", "config"},
    "sm": {"k_b", "k_sm", "window", "config"},
    "select_k": {"target", "k_min", "k_max", "policy", "window", "config"},
    "score": {"model", "window"},
    "compare": {"assignments"},
    "report": {"assignments"},
}
FIT_KEYS = {"k", "inertia", "seed", "converged"}
SM_MODEL_KEYS = {
    "q95", "value_weight", "category_ids", "dataset_fingerprint",
    "basket_model", "customer_model",
}
CLUSTER_MODEL_KEYS = {
    "k", "feature_schema", "seed", "inertia", "iterations_run", "converged",
    "centers",
}
# Metrics of a fit of k >= 2 clusters only.
VALIDITY_KEYS = {"between_variance_ratio", "davies_bouldin"}


def csv_rows(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f, strict=True))


def float_cells(rows, first_float_column):
    """Every cell of every row but the header, from the given column on,
    as a finite float."""
    values = [float(cell) for row in rows[1:] for cell in row[first_float_column:]]
    assert values and np.isfinite(values).all()
    return values


def check_manifest(path, command):
    manifest = json.loads(path.read_text())
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["command"] == command
    assert set(manifest["args"]) == MANIFEST_ARGS_KEYS[command]
    assert manifest["tool_version"] == __version__
    for input_path, digest in manifest["inputs"].items():
        assert hashlib.sha256(Path(input_path).read_bytes()).hexdigest() == digest


def check_table(path, header_start):
    rows = csv_rows(path)
    assert rows[0][: len(header_start)] == header_start
    assert all(len(row) == len(rows[0]) for row in rows)
    return rows


class OutputChecker:
    """Parses each output file by its name; ``ids`` maps an assignment file
    name to the ids its rows must hold, in order."""

    def __init__(self, dataset, ids):
        self.dataset = dataset
        self.ids = ids
        self.seen = set()

    def check_dir(self, out, command):
        check_manifest(out / "manifest.json", command)
        for path in sorted(out.iterdir()):
            if path.name == "manifest.json":
                continue
            for pattern, check in self.checks():
                if fnmatch.fnmatch(path.name, pattern):
                    check(path)
                    self.seen.add(pattern)
                    break
            else:
                raise AssertionError(f"no reader for {path}")

    def checks(self):
        return [
            ("*_assignments.csv", self.assignments),
            ("*_centers.csv", self.centers),
            ("*_shares.csv", self.shares),
            ("*_metrics.json", self.metrics),
            ("sm_model.json", self.sm_model),
            ("k_sweep.csv", self.k_sweep),
            ("k_recommendation.json", self.k_recommendation),
            ("purity_matrix.csv", self.square),
            ("crosstab.csv", self.square),
            ("crosstab.json", self.crosstab_json),
            ("receipts.csv", self.receipts),
            ("categories.csv", self.categories),
            ("ground_truth_baskets.csv", self.truth_baskets),
            ("ground_truth_customers.csv", self.truth_customers),
        ]

    def assignments(self, path):
        assignment = read_pairs(path, ASSIGNMENT_COLUMNS)
        assert list(assignment) == self.ids[path.name]
        assert all(label.isdigit() for label in assignment.values())

    def centers(self, path):
        rows = check_table(path, ["cluster", "label"])
        assert [int(row[0]) for row in rows[1:]] == list(range(len(rows) - 1))
        float_cells(rows, 2)

    def shares(self, path):
        rows = check_table(path, ["cluster", "label", "share"])
        assert abs(sum(float_cells(rows, 2)) - 1.0) < 1e-9

    def metrics(self, path):
        metrics = json.loads(path.read_text())
        if metrics.get("mode") == "expert":  # RFM bins: no fit to describe
            assert set(metrics) == {"k", "mode"}
            return
        validity = VALIDITY_KEYS if metrics["k"] >= 2 else set()
        assert set(metrics) == FIT_KEYS | validity
        assert all(
            isinstance(metrics[key], float) for key in {"inertia"} | validity
        )

    def sm_model(self, path):
        doc = json.loads(path.read_text())
        assert set(doc) == SM_MODEL_KEYS
        assert set(doc["basket_model"]) == CLUSTER_MODEL_KEYS
        assert set(doc["customer_model"]) == CLUSTER_MODEL_KEYS
        model = SmPipelineModel.from_json(path.read_bytes())
        labels = score(model, self.dataset)
        want = read_pairs(
            path.parent / "sm_customers_assignments.csv", ASSIGNMENT_COLUMNS
        )
        assert [str(c) for c in labels.tolist()] == list(want.values())

    def k_sweep(self, path):
        rows = check_table(
            path, ["k", "inertia", "between_variance_ratio", "davies_bouldin"]
        )
        float_cells(rows, 0)

    def k_recommendation(self, path):
        doc = json.loads(path.read_text())
        assert set(doc) == {"recommended_k", "policy"}
        if doc["policy"] == "report_only":
            assert doc["recommended_k"] is None
        else:
            assert isinstance(doc["recommended_k"], int)

    def square(self, path):
        rows = check_table(path, [""])
        float_cells(rows, 1)

    def crosstab_json(self, path):
        doc = json.loads(path.read_text())
        assert set(doc) == {"row_labels", "col_labels", "values"}
        values = np.array(doc["values"], dtype=float)
        assert values.shape == (len(doc["row_labels"]), len(doc["col_labels"]))

    def receipts(self, path):
        again = ingest_receipts(path, path.parent / "categories.csv", WINDOW)
        assert again.fingerprint() == self.dataset.fingerprint()

    def categories(self, path):
        assert sorted(read_categories(path)) == self.dataset.category_ids

    def truth_baskets(self, path):
        rows = check_table(path, ["basket_id", "archetype"])
        assert sorted(row[0] for row in rows[1:]) == self.dataset.basket_ids

    def truth_customers(self, path):
        rows = check_table(path, ["customer_id", "mission", "persona"])
        assert sorted(row[0] for row in rows[1:]) == self.dataset.customer_ids


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10**6), customers=st.integers(60, 120))
def test_every_output_file_parses_back(seed, customers):
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        data = base / "data"
        assert main([
            "syngen", "--out", str(data), "--seed", str(seed),
            "--customers", str(customers),
        ]) == 0
        dataset = ingest_receipts(
            data / "receipts.csv", data / "categories.csv", WINDOW
        )
        ds_args = [
            "--receipts", str(data / "receipts.csv"),
            "--categories", str(data / "categories.csv"),
            "--window-start", str(WINDOW.start),
            "--window-end", str(WINDOW.end),
        ]
        customer_ids = feat.rfm_features(dataset).ids
        basket_ids = feat.basket_sm_features(
            dataset, dataset.category_ids, feat.compute_q95(dataset)
        ).ids
        checker = OutputChecker(dataset, {
            "rfm_assignments.csv": customer_ids,
            "pps_assignments.csv": feat.pps_features(dataset).ids,
            "sm_customers_assignments.csv": customer_ids,
            "sm_baskets_assignments.csv": basket_ids,
            "scored_assignments.csv": customer_ids,
        })
        sm_customers = base / "sm" / "sm_customers_assignments.csv"
        pps = base / "pps" / "pps_assignments.csv"
        runs = {
            "syngen": None,
            "rfm": ["rfm", *ds_args, "--k", "3"],
            "pps": ["pps", *ds_args, "--k", "4"],
            "sm": ["sm", *ds_args, "--k-b", "6", "--k-sm", "4"],
            "select_k": ["select-k", *ds_args, "--k-max", "5"],
            "score": ["score", *ds_args, "--model", str(base / "sm" / "sm_model.json")],
            "compare": ["compare", "--assignments", str(sm_customers),
                        "--assignments", str(pps)],
            "report": ["report", "--assignments", str(sm_customers),
                       "--assignments", str(pps)],
        }
        for command, argv in runs.items():
            out = data if argv is None else base / command
            if argv is not None:
                assert main([*argv, "--out", str(out)]) == 0
            checker.check_dir(out, command)
        assert checker.seen == {pattern for pattern, _ in checker.checks()}
        assert (
            (base / "score" / "scored_assignments.csv").read_bytes()
            == sm_customers.read_bytes()
        )
