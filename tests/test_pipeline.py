import json
import tempfile
import warnings
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    WINDOW,
    as_assignment,
    basket_rows,
    write_categories,
    write_receipts,
)
from shopmission import pipeline
from shopmission.features import FeatureError, pps_features, rfm_features
from shopmission.pipeline import (
    PipelineError,
    SmPipelineModel,
    label_clusters,
    load_expert_bounds,
    run_pps,
    run_rfm,
    run_rfm_expert,
    run_sm,
    score,
    stage1_matrix,
)
from shopmission.syngen import default_config, generate
from shopmission.txmodel import AnalysisWindow, ValidationError, ingest_receipts
from shopmission.validity import purity, select_k

CATS = [f"K{i:02d}" for i in range(4)]


def one_cat_rows(n_per_customer, customers, cat, value=10.0):
    rows = []
    for cust in customers:
        for i in range(n_per_customer):
            rows += basket_rows(f"b_{cust}_{i}", cust, {cat: value})
    return rows


@pytest.mark.parametrize("bounds, message", [
    pytest.param({"recency": [30.0]}, "unknown RFM dimension 'recency'",
                 id="misspelt-dimension"),
    pytest.param({"monetary": [5.0, 1.0]},
                 "bin edges for monetary are not strictly increasing",
                 id="decreasing"),
    pytest.param({"monetary": [float("nan")]},
                 "bin_edge must be a finite number, got nan", id="nan"),
    pytest.param({"monetary": "abc"},
                 "bin edges for 'monetary' must be a list of numbers, got 'abc'",
                 id="not-a-list"),
    pytest.param({"frequency": [True]},
                 "bin_edge must be a finite number, got True", id="boolean"),
    pytest.param({"frequency": [10**400]},
                 "bin_edge must be a finite number, got 1000", id="huge-int"),
    pytest.param([[30.0]], "expected a JSON object of edge lists",
                 id="not-a-dict"),
])
def test_rfm_expert_checks_the_bounds_it_is_given(small_planted, bounds,
                                                  message):
    with pytest.raises(PipelineError, match=message):
        run_rfm_expert(small_planted[3], bounds)


def test_rfm_expert_takes_int_edges_as_floats(small_planted):
    dataset = small_planted[3]
    floats = run_rfm_expert(dataset, {"recency_days": [30.0], "monetary": [20.0]})
    ints = run_rfm_expert(dataset, {"recency_days": [30], "monetary": [np.int64(20)]})
    assert ints.labels.tolist() == floats.labels.tolist()
    assert ints.centers.tobytes() == floats.centers.tobytes()


def test_rfm_expert_bounds_split_at_threshold(tmp_path, make_dataset):
    rows = basket_rows("b1", "recent", {"K00": 5.0}, "2025-03-20")
    rows += basket_rows("b2", "stale", {"K00": 5.0}, "2025-01-10")
    ds = make_dataset(rows, CATS)
    bounds_file = tmp_path / "bounds.json"
    bounds_file.write_text(json.dumps({"recency_days": [30]}))
    report = run_rfm_expert(ds, load_expert_bounds(bounds_file))
    labels = as_assignment(report.ids, report.labels)
    assert labels["recent"] != labels["stale"]
    assert report.shares.sum() == pytest.approx(1.0)


def test_expert_bounds_non_monotone_rejected(tmp_path):
    bounds_file = tmp_path / "bounds.json"
    bounds_file.write_text(json.dumps({"frequency": [0.5, 0.2]}))
    with pytest.raises(PipelineError, match="increasing"):
        load_expert_bounds(bounds_file)


def test_expert_bounds_cap_the_segment_count(tmp_path):
    bounds_file = tmp_path / "bounds.json"
    edges = {"recency_days": list(range(99)), "frequency": list(range(99))}
    bounds_file.write_text(json.dumps(edges))
    assert len(load_expert_bounds(bounds_file)["frequency"]) == 99
    edges["monetary"] = [0]
    bounds_file.write_text(json.dumps(edges))
    with pytest.raises(PipelineError, match="make 20000 RFM segments"):
        load_expert_bounds(bounds_file)


def loop_rfm_expert(matrix, bounds):
    """Reference: expert RFM segments, centers and names, one cell at a
    time, with the segment index built digit by digit."""
    edges = [np.asarray(bounds.get(d, []), dtype=float) for d in matrix.schema]
    n_bins = [len(e) + 1 for e in edges]
    bins = np.stack(
        [np.digitize(matrix.X[:, i], edges[i]) for i in range(3)], axis=1
    )
    segment = (bins[:, 0] * n_bins[1] + bins[:, 1]) * n_bins[2] + bins[:, 2]
    n_segments = n_bins[0] * n_bins[1] * n_bins[2]
    centers = np.zeros((n_segments, 3))
    names = []
    for c in range(n_segments):
        mask = segment == c
        if mask.any():
            centers[c] = matrix.X[mask].mean(axis=0)
        r, rest = divmod(c, n_bins[1] * n_bins[2])
        names.append(f"rec{r}|frq{rest // n_bins[2]}|mon{rest % n_bins[2]}")
    return segment, centers, names


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rfm_expert_matches_the_cell_loop(small_planted, data):
    dataset = small_planted[3]
    matrix = rfm_features(dataset)
    bounds = {}
    for i, dim in enumerate(matrix.schema):
        # Edges at data values too, where np.digitize must break ties.
        column = sorted(set(matrix.X[:, i].tolist()))
        edge = st.sampled_from(column) | st.floats(
            column[0] - 1, column[-1] + 1
        )
        edges = data.draw(st.lists(edge, max_size=5, unique=True))
        if edges or data.draw(st.booleans()):
            bounds[dim] = sorted(edges)
    report = run_rfm_expert(dataset, bounds)
    segment, centers, names = loop_rfm_expert(matrix, bounds)
    assert report.labels.tolist() == segment.tolist()
    assert report.centers.tobytes() == centers.tobytes()
    assert report.cluster_labels == names
    assert report.metrics == {"k": len(names), "mode": "expert"}


def test_rfm_single_customer_single_cluster(make_dataset):
    ds = make_dataset(basket_rows("b1", "only", {"K00": 3.0}), CATS)
    report = run_rfm(ds, k=1, seed=0)
    assert report.shares.tolist() == [1.0]


def test_rfm_kmeans_recovers_planted_personas(small_planted):
    _, _, truth, dataset = small_planted
    report = run_rfm(dataset, k=3, seed=7)
    found = as_assignment(report.ids, report.labels)
    assert purity(found, truth.customer_persona) >= 0.9


def test_pps_degenerate_one_hot_triggers_repair(make_dataset):
    # All customers one-hot in the same category but at two distinct spend
    # patterns is still 1 effective blob; k=2 exercises empty-cluster repair.
    rows = one_cat_rows(2, [f"c{i}" for i in range(6)], "K01")
    rows += basket_rows("b_odd", "c0", {"K01": 4.0, "K02": 0.01}, "2025-02-03")
    ds = make_dataset(rows, CATS)
    report = run_pps(ds, k=2, seed=0)
    assert report.shares.sum() == pytest.approx(1.0)
    assert set(report.labels.tolist()) == {0, 1}


def test_pps_recovers_planted_structure(small_planted):
    _, cfg, truth, dataset = small_planted
    # 4 focused populations + 1 generalist blob at the customer level:
    # missions serve as a coarse proxy since personas do not move ratios.
    report = run_pps(dataset, k=5, seed=3)
    assert report.shares.sum() == pytest.approx(1.0, abs=1e-9)


def test_cluster_labels_dominant_vs_general():
    centers = np.array([[0.8, 0.1, 0.1], [0.3, 0.3, 0.4]])
    labels = label_clusters(centers, ["a", "b", "c"], threshold=0.5)
    assert labels == ["Specialized -- a", "General"]


def test_run_sm_planted_recovery(small_planted):
    _, _, truth, dataset = small_planted
    model, basket_report, customer_report = run_sm(
        dataset, k_b=6, k_sm=9, seed=42
    )
    baskets = as_assignment(basket_report.ids, basket_report.labels)
    customers = as_assignment(customer_report.ids, customer_report.labels)
    assert purity(baskets, truth.basket_archetype) >= 0.9
    assert purity(customers, truth.customer_mission) >= 0.85
    assert basket_report.shares.sum() == pytest.approx(1.0, abs=1e-9)
    assert customer_report.shares.sum() == pytest.approx(1.0, abs=1e-9)


def test_single_archetype_customers_one_hot_centers(make_dataset):
    rows = []
    for i, cat in enumerate(["K00", "K01", "K02"]):
        for cust in range(8):
            for b in range(4):
                value = 5.0 + 0.1 * b + 0.01 * cust
                rows += basket_rows(f"b{i}_{cust}_{b}", f"c{i}_{cust}", {cat: value})
    ds = make_dataset(rows, CATS)
    model, _, customer_report = run_sm(ds, k_b=3, k_sm=3, seed=1)
    assert (model.customer_model.centers.max(axis=1) >= 0.95).all()


def test_run_sm_kb1_degenerates_with_warning(make_dataset):
    # vary values so k-means has distinct rows at stage 1
    owners = [(f"c{i}", j) for i in range(10) for j in range(3)]
    rows = []
    for i, (cust, j) in enumerate(owners):
        rows += basket_rows(f"b_{cust}_{j}", cust, {"K00": 5.0 + i * 0.1})
    ds = make_dataset(rows, CATS)
    with pytest.warns(UserWarning, match="reducing k_sm"):
        model, _, customer_report = run_sm(ds, k_b=1, k_sm=3, seed=0)
    assert model.customer_model.k == 1
    assert customer_report.shares.tolist() == [1.0]


def fits_and_warnings(dataset, **fit):
    """(name, converged) of each k-means fit of run_rfm, run_pps, run_sm and
    select_k, in fit order, and the messages of the warnings they raise."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rfm = run_rfm(dataset, 4, **fit)
        pps = run_pps(dataset, 4, **fit)
        model, _, _ = run_sm(dataset, 6, 4, **fit)
        sweep = select_k(pps_features(dataset), (2, 6), 0, **fit)
    fits = [
        ("rfm", rfm.metrics["converged"]),
        ("pps", pps.metrics["converged"]),
        ("stage-1 basket", model.basket_model.converged),
        ("stage-2 customer", model.customer_model.converged),
    ] + [(f"k={row['k']}", row["converged"]) for row in sweep.rows]
    return fits, [str(w.message) for w in caught]


@pytest.mark.parametrize("max_iter", [1, 5])
def test_each_fit_stopped_at_max_iter_warns_once(small_planted, max_iter):
    # max_iter=5 stops some fits of small_planted early and not others.
    fits, messages = fits_and_warnings(small_planted[3], max_iter=max_iter)
    assert messages == [
        f"{name} k-means fit stopped at max_iter before converging"
        for name, done in fits if not done
    ]
    if max_iter == 1:
        assert not any(done for _, done in fits)
    else:
        assert 0 < len(messages) < len(fits)


def test_fits_with_default_settings_do_not_warn(small_planted):
    fits, messages = fits_and_warnings(small_planted[3])
    assert messages == []
    assert all(done for _, done in fits)


def test_run_sm_rejects_stage2_rows_not_summing_to_one(monkeypatch, make_dataset):

    real = pipeline.feat.customer_sm_features

    def doubled(*args):
        matrix = real(*args)
        matrix.X[0] *= 2.0
        return matrix

    monkeypatch.setattr(pipeline.feat, "customer_sm_features", doubled)
    rows = one_cat_rows(5, ["c1", "c2"], "K00") + one_cat_rows(
        5, ["c3", "c4"], "K01"
    )
    with pytest.raises(PipelineError, match="sums to 2.0"):
        run_sm(make_dataset(rows, CATS), k_b=2, k_sm=2, seed=0)


def test_score_reproduces_training_assignments(small_planted):
    _, _, _, dataset = small_planted
    model, _, customer_report = run_sm(dataset, k_b=6, k_sm=9, seed=42)
    assert np.array_equal(score(model, dataset), customer_report.labels)


@settings(max_examples=8, deadline=None)
@given(
    data_seed=st.integers(0, 2**32 - 1),
    customers=st.integers(30, 150),
    k_b=st.integers(2, 6),
    k_sm=st.integers(2, 9),
    seed=st.integers(0, 10**6),
)
def test_score_reproduces_training_labels_property(
    data_seed, customers, k_b, k_sm, seed
):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        generate(default_config(n_customers=customers, seed=data_seed), out)
        dataset = ingest_receipts(
            out / "receipts.csv", out / "categories.csv", WINDOW
        )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # k_sm reduced to the distinct rows
        model, _, customer_report = run_sm(
            dataset, k_b=k_b, k_sm=k_sm, seed=seed, n_init=2
        )
    labels = score(model, dataset)
    assert labels.shape == (len(dataset.customer_ids),)
    assert np.array_equal(labels, customer_report.labels)


def test_score_reuses_frozen_q95(small_planted, tmp_path):
    out, _, _, dataset = small_planted
    model, _, _ = run_sm(dataset, k_b=6, k_sm=9, seed=42)
    trained_q95 = model.q95.q95
    # Scoring a tiny subset (q95 of the subset would differ wildly) must
    # leave the model untouched and still work below the 20-basket floor.
    first = set(dataset.basket_ids[:5])
    lines = (out / "receipts.csv").read_text().splitlines()[1:]
    write_receipts(
        tmp_path / "subset.csv",
        [line for line in lines if line.split(",")[0] in first],
    )
    subset = ingest_receipts(
        tmp_path / "subset.csv", out / "categories.csv", dataset.window
    )
    assert subset.n_baskets == 5
    score(model, subset)
    assert model.q95.q95 == trained_q95


def test_score_unknown_categories_rejected(small_planted, tmp_path):
    out, _, _, dataset = small_planted
    model, _, _ = run_sm(dataset, k_b=6, k_sm=9, seed=42)
    write_categories(tmp_path / "categories.csv", dataset.category_ids + ["K99"])
    weird = ingest_receipts(
        out / "receipts.csv", tmp_path / "categories.csv", dataset.window
    )
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
    labels = score(model, held_out)
    found = as_assignment(held_out.customer_ids, labels)
    assert purity(found, truth.customer_mission) >= 0.8


# Training purity minus held-out purity ran from -0.013 to 0.054 over seeds
# 11, 17, 23, 29, 31, 37, 41, 43, 47 and 53 at 600 customers.
FROZEN_MODEL_MAX_DROP = 0.10


@pytest.mark.parametrize("seed", [11, 23, 41])
def test_frozen_sm_model_keeps_its_segments_over_time(tmp_path, seed):
    # A model trained on the first half of the quarter scores the second
    # half about as well as it segmented its own training customers.
    truth = generate(default_config(n_customers=600, seed=seed), tmp_path)
    receipts, categories = tmp_path / "receipts.csv", tmp_path / "categories.csv"
    train = ingest_receipts(receipts, categories, AnalysisWindow(
        date(2025, 1, 1), date(2025, 2, 14)
    ))
    later = ingest_receipts(receipts, categories, AnalysisWindow(
        date(2025, 2, 15), date(2025, 3, 31)
    ))
    model, _, customer_report = run_sm(train, k_b=6, k_sm=9, seed=42)

    def mission_purity(ids, labels):
        found = as_assignment(ids, labels)
        return purity(found, {c: truth.customer_mission[c] for c in found})

    trained = mission_purity(customer_report.ids, customer_report.labels)
    scored = mission_purity(later.customer_ids, score(model, later))
    assert scored >= trained - FROZEN_MODEL_MAX_DROP


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
    assert np.array_equal(score(restored, dataset), score(model, dataset))


@pytest.mark.parametrize(
    "value_weight, shown", [(-1.0, "-1.0"), (float("nan"), "nan"),
                            (float("inf"), "inf"), (True, "True")],
)
def test_value_weight_outside_the_model_range_rejected(
    small_planted, value_weight, shown
):
    # The same wording as SmPipelineModel.from_json, which reads no such
    # model back.
    _, _, _, dataset = small_planted
    message = f"value_weight must be a finite number >= 0, got {shown}$"
    with pytest.raises(FeatureError, match=message):
        stage1_matrix(dataset, value_weight)
    with pytest.raises(FeatureError, match=message):
        run_sm(dataset, k_b=3, k_sm=2, value_weight=value_weight)


@pytest.mark.parametrize("threshold", [float("nan"), float("-inf"), "0.3"])
def test_dominance_threshold_checked_before_the_first_fit(
    small_planted, monkeypatch, threshold
):
    # A NaN threshold would label every cluster "General".
    _, _, _, dataset = small_planted

    def no_fit(*args, **kwargs):
        raise AssertionError("kmeans_fit called")

    monkeypatch.setattr(pipeline, "kmeans_fit", no_fit)
    message = f"dominance_threshold must be a finite number, got {threshold!r}$"
    with pytest.raises(PipelineError, match=message):
        run_pps(dataset, 3, dominance_threshold=threshold)
    with pytest.raises(PipelineError, match=message):
        run_sm(dataset, 3, 2, dominance_threshold=threshold)


def test_zero_value_weight_model_roundtrips(small_planted):
    _, _, _, dataset = small_planted
    model, _, _ = run_sm(dataset, k_b=6, k_sm=9, seed=42, value_weight=0.0)
    restored = SmPipelineModel.from_json(model.to_json())
    assert restored.value_weight == 0.0
    assert restored.to_json() == model.to_json()


def test_report_files_written(tmp_path, small_planted):
    _, _, _, dataset = small_planted
    _, basket_report, _ = run_sm(dataset, k_b=6, k_sm=9, seed=42)
    basket_report.write(tmp_path, "sm_baskets")
    for suffix in ("assignments.csv", "shares.csv", "centers.csv", "metrics.json"):
        assert (tmp_path / f"sm_baskets_{suffix}").exists()
    shares = (tmp_path / "sm_baskets_shares.csv").read_text().splitlines()[1:]
    total = sum(float(line.split(",")[-1]) for line in shares)
    assert total == pytest.approx(1.0, abs=1e-9)
