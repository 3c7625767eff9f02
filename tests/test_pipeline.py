import json
from datetime import datetime

import numpy as np
import pytest

from conftest import WINDOW
from shopmission.pipeline import (
    PipelineError,
    SmPipelineModel,
    label_clusters,
    load_expert_bounds,
    run_pps,
    run_rfm,
    run_sm,
    score,
)
from shopmission.txmodel import (
    Basket,
    Dataset,
    PurchasedLine,
    ValidationError,
)
from shopmission.validity import purity

CATS = {f"K{i:02d}": None for i in range(4)}


def make_dataset(baskets, n_cats=4):
    from shopmission.txmodel import Category

    categories = {
        f"K{i:02d}": Category(f"K{i:02d}", f"Cat {i}") for i in range(n_cats)
    }
    return Dataset(categories=categories, baskets=baskets, window=WINDOW)


def basket(bid, cust, spends, when="2025-02-01"):
    lines = tuple(
        PurchasedLine(f"p{c}", c, int(round(v * 100)), 1, False)
        for c, v in spends.items()
        if v > 0
    )
    return Basket(bid, cust, datetime.fromisoformat(when), lines)


def one_cat_baskets(n_per_customer, customers, cat, value=10.0):
    baskets = []
    for cust in customers:
        for i in range(n_per_customer):
            baskets.append(basket(f"b_{cust}_{i}", cust, {cat: value}))
    return baskets


def test_rfm_expert_bounds_split_at_threshold(tmp_path):
    baskets = [
        basket("b1", "recent", {"K00": 5.0}, "2025-03-20"),
        basket("b2", "stale", {"K00": 5.0}, "2025-01-10"),
    ]
    ds = make_dataset(baskets)
    bounds_file = tmp_path / "bounds.json"
    bounds_file.write_text(json.dumps({"recency_days": [30]}))
    report = run_rfm(ds, mode="expert", bounds=load_expert_bounds(bounds_file))
    assert report.assignment["recent"] != report.assignment["stale"]
    assert sum(report.shares.values()) == pytest.approx(1.0)


def test_expert_bounds_non_monotone_rejected(tmp_path):
    bounds_file = tmp_path / "bounds.json"
    bounds_file.write_text(json.dumps({"frequency": [0.5, 0.2]}))
    with pytest.raises(PipelineError, match="increasing"):
        load_expert_bounds(bounds_file)


def test_rfm_single_customer_single_cluster():
    ds = make_dataset([basket("b1", "only", {"K00": 3.0})])
    report = run_rfm(ds, k=1, seed=0)
    assert report.shares == {0: 1.0}


def test_rfm_kmeans_recovers_planted_personas(small_planted):
    _, _, truth, dataset = small_planted
    report = run_rfm(dataset, k=3, seed=7)
    assert purity(report.assignment, truth.customer_persona) >= 0.9


def test_rfm_requires_k_in_kmeans_mode():
    ds = make_dataset([basket("b1", "c", {"K00": 3.0})])
    with pytest.raises(PipelineError, match="requires k"):
        run_rfm(ds, mode="kmeans")


def test_pps_degenerate_one_hot_triggers_repair():
    # All customers one-hot in the same category but at two distinct spend
    # patterns is still 1 effective blob; k=2 exercises empty-cluster repair.
    baskets = one_cat_baskets(2, [f"c{i}" for i in range(6)], "K01")
    baskets += [basket("b_odd", "c0", {"K01": 4.0, "K02": 0.01}, "2025-02-03")]
    ds = make_dataset(baskets)
    report = run_pps(ds, k=2, seed=0)
    assert sum(report.shares.values()) == pytest.approx(1.0)
    assert set(report.assignment.values()) == {0, 1}


def test_pps_recovers_planted_structure(small_planted):
    _, cfg, truth, dataset = small_planted
    # 4 focused populations + 1 generalist blob at the customer level:
    # missions serve as a coarse proxy since personas do not move ratios.
    report = run_pps(dataset, k=5, seed=3)
    assert sum(report.shares.values()) == pytest.approx(1.0, abs=1e-9)


def test_cluster_labels_dominant_vs_general():
    centers = np.array([[0.8, 0.1, 0.1], [0.3, 0.3, 0.4]])
    labels = label_clusters(centers, ["a", "b", "c"], threshold=0.5)
    assert labels == ["Specialized -- a", "General"]


def test_run_sm_planted_recovery(small_planted):
    _, _, truth, dataset = small_planted
    model, basket_report, customer_report = run_sm(
        dataset, k_b=6, k_sm=9, seed=42
    )
    assert purity(basket_report.assignment, truth.basket_archetype) >= 0.9
    assert purity(customer_report.assignment, truth.customer_mission) >= 0.85
    assert sum(basket_report.shares.values()) == pytest.approx(1.0, abs=1e-9)
    assert sum(customer_report.shares.values()) == pytest.approx(1.0, abs=1e-9)


def test_single_archetype_customers_one_hot_centers():
    baskets = []
    for i, cat in enumerate(["K00", "K01", "K02"]):
        for cust in range(8):
            for b in range(4):
                value = 5.0 + 0.1 * b + 0.01 * cust
                baskets.append(
                    basket(f"b{i}_{cust}_{b}", f"c{i}_{cust}", {cat: value})
                )
    ds = make_dataset(baskets)
    model, _, customer_report = run_sm(ds, k_b=3, k_sm=3, seed=1)
    assert (model.customer_model.centers.max(axis=1) >= 0.95).all()


def test_run_sm_kb1_degenerates_with_warning():
    baskets = one_cat_baskets(3, [f"c{i}" for i in range(10)], "K00")
    # vary values so k-means has distinct rows at stage 1
    baskets = [
        basket(b.basket_id, b.customer_id, {"K00": 5.0 + i * 0.1})
        for i, b in enumerate(baskets)
    ]
    ds = make_dataset(baskets)
    with pytest.warns(UserWarning, match="reducing k_sm"):
        model, _, customer_report = run_sm(ds, k_b=1, k_sm=3, seed=0)
    assert model.customer_model.k == 1
    assert customer_report.shares == {0: 1.0}


def test_run_sm_rejects_stage2_rows_not_summing_to_one(monkeypatch):
    from shopmission import pipeline

    real = pipeline.feat.customer_sm_features

    def doubled(*args):
        matrix = real(*args)
        matrix.X[0] *= 2.0
        return matrix

    monkeypatch.setattr(pipeline.feat, "customer_sm_features", doubled)
    baskets = one_cat_baskets(5, ["c1", "c2"], "K00") + one_cat_baskets(
        5, ["c3", "c4"], "K01"
    )
    with pytest.raises(PipelineError, match="sums to 2.0"):
        run_sm(make_dataset(baskets), k_b=2, k_sm=2, seed=0)


def test_score_reproduces_training_assignments(small_planted):
    _, _, _, dataset = small_planted
    model, _, customer_report = run_sm(dataset, k_b=6, k_sm=9, seed=42)
    assert score(model, dataset) == customer_report.assignment


def test_score_reuses_frozen_q95(small_planted):
    _, _, _, dataset = small_planted
    model, _, _ = run_sm(dataset, k_b=6, k_sm=9, seed=42)
    trained_q95 = model.q95.q95
    # Scoring a tiny subset (q95 of the subset would differ wildly) must
    # leave the model untouched and still work below the 20-basket floor.
    subset = Dataset(
        categories=dataset.categories,
        baskets=dataset.baskets[:5],
        window=dataset.window,
    )
    score(model, subset)
    assert model.q95.q95 == trained_q95


def test_score_unknown_categories_rejected(small_planted):
    _, _, _, dataset = small_planted
    model, _, _ = run_sm(dataset, k_b=6, k_sm=9, seed=42)
    from shopmission.txmodel import Category

    extra = dict(dataset.categories)
    extra["K99"] = Category("K99", "Mystery")
    weird = Dataset(categories=extra, baskets=dataset.baskets, window=dataset.window)
    with pytest.raises(ValidationError, match="K99"):
        score(model, weird)


def test_score_held_out_customers(tmp_path):
    from shopmission.syngen import default_config, generate, load_truth
    from shopmission.txmodel import ingest_receipts

    train_dir = tmp_path / "train"
    test_dir = tmp_path / "test"
    generate(default_config(n_customers=300, seed=11, baskets_range=(12, 20)), train_dir)
    truth = generate(
        default_config(n_customers=150, seed=99, baskets_range=(12, 20)), test_dir
    )
    train = ingest_receipts(
        train_dir / "receipts.csv", train_dir / "categories.csv", WINDOW
    )
    held_out = ingest_receipts(
        test_dir / "receipts.csv", test_dir / "categories.csv", WINDOW
    )
    model, _, _ = run_sm(train, k_b=6, k_sm=9, seed=42)
    assignment = score(model, held_out)
    assert purity(assignment, truth.customer_mission) >= 0.8


def test_end_to_end_determinism(small_planted):
    _, _, _, dataset = small_planted
    m1, _, _ = run_sm(dataset, k_b=6, k_sm=9, seed=42)
    m2, _, _ = run_sm(dataset, k_b=6, k_sm=9, seed=42)
    assert m1.to_json() == m2.to_json()
    assert m1.dataset_fingerprint == dataset.fingerprint()


def test_sm_model_json_roundtrip(small_planted):
    _, _, _, dataset = small_planted
    model, _, _ = run_sm(dataset, k_b=6, k_sm=9, seed=42)
    restored = SmPipelineModel.from_json(model.to_json())
    assert restored.to_json() == model.to_json()
    assert score(restored, dataset) == score(model, dataset)


def test_report_files_written(tmp_path, small_planted):
    _, _, _, dataset = small_planted
    _, basket_report, _ = run_sm(dataset, k_b=6, k_sm=9, seed=42)
    basket_report.write(tmp_path, "sm_baskets")
    for suffix in ("assignments.csv", "shares.csv", "centers.csv", "metrics.json"):
        assert (tmp_path / f"sm_baskets_{suffix}").exists()
    shares = (tmp_path / "sm_baskets_shares.csv").read_text().splitlines()[1:]
    total = sum(float(line.split(",")[-1]) for line in shares)
    assert total == pytest.approx(1.0, abs=1e-9)
