"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Oracles here are deliberately written in plain Python loops, independent of
the numpy implementations they check.
"""

import csv
import math
import time

import numpy as np
import pytest

from conftest import (
    WINDOW, as_assignment, basket_rows, matrix_from, oracle_bvr, oracle_db,
    oracle_purity,
)
from shopmission import features as feat
from shopmission.cli import main as cli_main
from shopmission.features import FeatureMatrix
from shopmission.kmeans import assign, kmeans_fit, ClusterModel
from shopmission.pipeline import run_sm
from shopmission.syngen import default_config, generate
from shopmission.txmodel import ingest_receipts
from shopmission.validity import (
    between_variance_ratio,
    davies_bouldin,
    purity,
    select_k,
)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


def oracle_quantile(values, p):
    s = sorted(values)
    h = (len(s) - 1) * p
    lo = math.floor(h)
    if lo + 1 >= len(s):
        return float(s[-1])
    return s[lo] + (h - lo) * (s[lo + 1] - s[lo])


def exhaustive_best_inertia_k2(X):
    n = len(X)
    best = math.inf
    for bits in range(1, 2 ** (n - 1)):
        mask = np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
        if not mask.any() or mask.all():
            continue
        inertia = 0.0
        for part in (X[mask], X[~mask]):
            inertia += float(((part - part.mean(axis=0)) ** 2).sum())
        best = min(best, inertia)
    return best


def test_criterion_1_validity_metric_oracles():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(10, 101))
        d = int(rng.integers(2, 9))
        k = int(rng.integers(2, 7))
        X = rng.normal(size=(n, d))
        labels = rng.integers(0, k, size=n)
        while len(set(labels.tolist())) < 2:
            labels = rng.integers(0, k, size=n)
        matrix = matrix_from(X)
        bvr = between_variance_ratio(matrix, labels)
        db = davies_bouldin(matrix, labels)
        bvr_ref = oracle_bvr(X, labels.tolist())
        db_ref = oracle_db(X, labels.tolist())
        worst = max(
            worst,
            abs(bvr - bvr_ref) / max(abs(bvr_ref), 1e-30),
            abs(db - db_ref) / max(abs(db_ref), 1e-30),
        )
    elapsed = time.perf_counter() - start
    report(
        1,
        worst < 1e-9 and elapsed < 10,
        f"(max rel err {worst:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_2_purity_oracle():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    exact = True
    for _ in range(200):
        n = int(rng.integers(2, 51))
        a = {f"e{i}": int(rng.integers(0, rng.integers(1, n) + 1)) for i in range(n)}
        b = {f"e{i}": int(rng.integers(0, rng.integers(1, n) + 1)) for i in range(n)}
        if purity(a, b) != oracle_purity(a, b):
            exact = False
            break
    n = 17
    one = {f"e{i}": 0 for i in range(n)}
    singles = {f"e{i}": i for i in range(n)}
    asym = purity(one, singles) == pytest.approx(1 / n) and purity(singles, one) == 1.0
    elapsed = time.perf_counter() - start
    report(2, exact and asym and elapsed < 5, f"({elapsed:.1f}s)")


def test_criterion_3_and_4_kmeans_contract_and_variance_decomposition():
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    monotone = True
    decomposition = True
    for run in range(100):
        n = int(rng.integers(20, 80))
        d = int(rng.integers(2, 5))
        k = int(rng.integers(2, 6))
        X = rng.normal(size=(n, d))
        matrix = matrix_from(X)
        model, labels = kmeans_fit(matrix, k, seed=run, n_init=2)
        # A fit stopped after m iterations keeps the least of its restarts'
        # inertias after m updates; none of those rises with m.
        inertias = [
            kmeans_fit(matrix, k, seed=run, n_init=2, max_iter=m)[0].inertia
            for m in range(1, model.iterations_run + 1)
        ]
        if any(b > a * (1 + 1e-9) for a, b in zip(inertias, inertias[1:])):
            monotone = False
        total_ss = float(((X - X.mean(axis=0)) ** 2).sum())
        within = sum(
            float(((X[labels == j] - X[labels == j].mean(axis=0)) ** 2).sum())
            for j in np.unique(labels)
        )
        between = sum(
            (labels == j).sum()
            * float(((X[labels == j].mean(axis=0) - X.mean(axis=0)) ** 2).sum())
            for j in np.unique(labels)
        )
        if abs(within + between - total_ss) > 1e-9 * total_ss:
            decomposition = False

    m1, a1 = kmeans_fit(matrix, 3, seed=555)
    m2, a2 = kmeans_fit(matrix, 3, seed=555)
    reproducible = (
        m1.centers.tobytes() == m2.centers.tobytes()
        and m1.inertia == m2.inertia
        and np.array_equal(a1, a2)
    )

    blob_optimal = True
    for seed in range(5):
        brng = np.random.default_rng(seed)
        X = np.vstack(
            [
                brng.normal(loc=0.0, scale=0.3, size=(6, 2)),
                brng.normal(loc=4.0, scale=0.3, size=(6, 2)),
            ]
        )
        model, _ = kmeans_fit(matrix_from(X), k=2, seed=seed)
        best = exhaustive_best_inertia_k2(X)
        if abs(model.inertia - best) > 1e-9 * best:
            blob_optimal = False
    elapsed = time.perf_counter() - start
    report(
        3,
        monotone and reproducible and blob_optimal and elapsed < 30,
        f"({elapsed:.1f}s)",
    )
    report(4, decomposition, "(within + between = total for all 100 fits)")


def test_criterion_5_planted_sm_pipeline(tmp_path):
    start = time.perf_counter()
    cfg = default_config(n_customers=1000, seed=0, baskets_range=(12, 20))
    truth = generate(cfg, tmp_path)
    dataset = ingest_receipts(
        tmp_path / "receipts.csv", tmp_path / "categories.csv", WINDOW
    )
    model, basket_report, customer_report = run_sm(
        dataset, k_b=6, k_sm=9, seed=42
    )
    p_basket = purity(
        as_assignment(basket_report.ids, basket_report.labels),
        truth.basket_archetype,
    )
    p_customer = purity(
        as_assignment(customer_report.ids, customer_report.labels),
        truth.customer_mission,
    )

    q = feat.compute_q95(dataset)
    matrix = feat.basket_sm_features(dataset, dataset.category_ids, q)
    sweep = select_k(matrix, (2, 12), seed=0)
    elapsed = time.perf_counter() - start
    ok = (
        p_basket >= 0.90
        and p_customer >= 0.85
        and sweep.recommended_k == 6
        and elapsed < 60
    )
    report(
        5,
        ok,
        f"(basket purity {p_basket:.3f}, customer purity {p_customer:.3f}, "
        f"recommended k {sweep.recommended_k}, {elapsed:.1f}s, "
        f"{dataset.n_baskets} baskets)",
    )


def test_criterion_6_prism_geometry():
    schema = ["cat:hair", "cat:body", "cat:face", "value"]
    centers = np.array(
        [
            [1 / 3, 1 / 3, 1 / 3, 0.9],  # C1 analog: high-value general
            [1.0, 0.0, 0.0, 0.3],
            [0.0, 0.0, 1.0, 0.3],
            [0.6, 0.4, 0.0, 0.2],  # C4 analog: low-value hair/body
        ]
    )
    model = ClusterModel(4, centers, schema, 0, 0.0, 0)
    q95 = 50.0
    matrix = FeatureMatrix(
        ids=["S1", "S2"],
        X=np.array(
            [[0.625, 0.375, 0.0, 8 / q95], [0.625, 0.375, 0.0, 40 / q95]]
        ),
        schema=schema,
    )
    s1_label, s2_label = assign(model, matrix)
    ok = s1_label == 3 and s2_label == 0
    report(6, ok, f"(S1 -> cluster {s1_label}, S2 -> cluster {s2_label})")


def test_criterion_7_feature_invariants(make_dataset):
    rng = np.random.default_rng(107)

    cats = ["a", "b", "c", "d"]
    cases = []
    rows = []
    for case in range(1000):
        q95 = float(rng.uniform(5, 200))
        spends = {
            c: float(np.round(rng.uniform(0, 30), 2)) for c in cats
        }
        if sum(spends.values()) == 0:
            spends[cats[0]] = 1.0
        cents = sum(int(round(v * 100)) for v in spends.values())
        cases.append((q95, cents / 100.0))
        rows += basket_rows(f"b{case}", "c", spends)
        rows += basket_rows(
            f"B{case}", "c", {c: 2 * v for c, v in spends.items()}
        )
    dataset = make_dataset(rows, cats)
    ok = True
    for case, (q95, basket_value) in enumerate(cases):
        q = feat.QuantileSpec(q95=q95)
        matrix = feat.basket_sm_features(dataset, cats, q)
        row = matrix.row(f"b{case}")
        ratios, value = row[:-1], row[-1]
        if not (abs(ratios.sum() - 1.0) < 1e-9 and (ratios >= 0).all()):
            ok = False
        if not (0.0 <= value <= 1.0):
            ok = False
        # monotone in value, saturating at q95
        row2 = matrix.row(f"B{case}")
        if row2[-1] < value or (basket_value >= q95 and value != 1.0):
            ok = False
        # price scaling leaves ratios unchanged
        if not np.allclose(ratios, row2[:-1], atol=1e-12):
            ok = False
        if not ok:
            break

    q_ok = True
    for _ in range(200):
        values = np.round(
            rng.lognormal(2.0, 1.0, size=int(rng.integers(20, 150))), 2
        )
        rows = []
        for i, v in enumerate(values):
            rows += basket_rows(f"q{i}", "c", {"a": float(v)})
        got = feat.compute_q95(make_dataset(rows, cats)).q95
        ref = oracle_quantile([float(v) for v in values], 0.95)
        if abs(got - ref) > 1e-12:
            q_ok = False
            break
    report(7, ok and q_ok)


def test_criterion_8_cli_walkthrough(tmp_path):
    def run_all(base):
        data = base / "data"
        assert cli_main([
            "syngen", "--out", str(data), "--seed", "5", "--customers", "200",
            "--baskets-min", "12", "--baskets-max", "20",
        ]) == 0
        ds_args = [
            "--receipts", str(data / "receipts.csv"),
            "--categories", str(data / "categories.csv"),
            "--window-start", "2025-01-01",
            "--window-end", "2025-03-31",
        ]
        sm_out = base / "sm"
        assert cli_main([
            "sm", *ds_args, "--k-b", "6", "--k-sm", "9", "--seed", "42",
            "--out", str(sm_out),
        ]) == 0
        truth_csv = base / "truth_assignments.csv"
        with open(data / "ground_truth_customers.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        with open(truth_csv, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["entity_id", "cluster"])
            for row in rows:
                writer.writerow([row["customer_id"], row["mission"]])
        cmp_out = base / "cmp"
        assert cli_main([
            "compare",
            "--assignments", str(sm_out / "sm_customers_assignments.csv"),
            "--assignments", str(truth_csv),
            "--out", str(cmp_out),
        ]) == 0
        rep_out = base / "report"
        assert cli_main([
            "report",
            "--assignments", str(sm_out / "sm_customers_assignments.csv"),
            "--assignments", str(truth_csv),
            "--out", str(rep_out),
        ]) == 0
        return base

    run_a = run_all(tmp_path / "a")
    run_b = run_all(tmp_path / "b")

    # shares sum to 1
    shares_ok = True
    for prefix in ("sm_baskets", "sm_customers"):
        lines = (
            (run_a / "sm" / f"{prefix}_shares.csv").read_text().splitlines()[1:]
        )
        total = sum(float(line.split(",")[-1]) for line in lines)
        if abs(total - 1.0) > 1e-9:
            shares_ok = False

    # SM clusters vs planted truth: purity printed by compare, read back here
    with open(run_a / "cmp" / "purity_matrix.csv", newline="") as f:
        rows = list(csv.reader(f))
    sm_vs_truth = float(rows[1][2])

    # byte-identical rerun (manifests after the run directory is replaced)
    identical = True
    files_a = sorted(
        p for p in (run_a).rglob("*") if p.is_file()
    )
    for pa in files_a:
        pb = run_b / pa.relative_to(run_a)
        if not pb.exists():
            identical = False
            break
        if pa.name == "manifest.json":
            # identical up to the run directory prefix
            ta = pa.read_text().replace(str(run_a), "<run>")
            tb = pb.read_text().replace(str(run_b), "<run>")
            if ta != tb:
                identical = False
        elif pa.read_bytes() != pb.read_bytes():
            identical = False
    report(
        8,
        shares_ok and identical and sm_vs_truth >= 0.85,
        f"(SM vs planted purity {sm_vs_truth:.3f}, rerun identical: {identical})",
    )
