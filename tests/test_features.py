import math
from datetime import date, datetime

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import AWARE_DAYS, WINDOW, basket_rows
from shopmission import features as feat
from shopmission.features import FeatureError, QuantileSpec
from shopmission.txmodel import AnalysisWindow, Dataset

CATS = ["hair", "body", "face"]


def quantile_oracle(values, p):
    # brute-force linear-interpolation quantile over the sorted array
    s = sorted(values)
    h = (len(s) - 1) * p
    lo = math.floor(h)
    if lo + 1 >= len(s):
        return float(s[-1])
    return s[lo] + (h - lo) * (s[lo + 1] - s[lo])


def one_value_baskets(values):
    rows = []
    for i, v in enumerate(values):
        rows += basket_rows(f"b{i:04d}", "c1", {"hair": v})
    return rows


def test_rfm_direct_substitution(make_dataset):
    ds = make_dataset(basket_rows("b1", "c1", {"hair": 90.0}, "2025-03-31"), CATS)
    matrix = feat.rfm_features(ds)
    rec, frq, mon = matrix.row("c1")
    assert rec == 0.0
    assert frq == pytest.approx(1 / 89)
    assert mon == pytest.approx(90.0 / 89)


def test_rfm_identical_customers_identical_vectors(make_dataset):
    rows = basket_rows("b1", "c1", {"hair": 5.0})
    rows += basket_rows("b2", "c2", {"hair": 5.0})
    matrix = feat.rfm_features(make_dataset(rows, CATS))
    assert np.array_equal(matrix.row("c1"), matrix.row("c2"))


def test_rfm_permutation_invariant_in_basket_order(make_dataset):
    baskets = [
        basket_rows(f"b{i}", "c1", {"hair": float(i + 1)}, f"2025-02-{i + 1:02d}")
        for i in range(5)
    ]
    fwd = make_dataset(sum(baskets, []), CATS)
    rev = make_dataset(sum(reversed(baskets), []), CATS)
    assert np.array_equal(
        feat.rfm_features(fwd).row("c1"), feat.rfm_features(rev).row("c1")
    )


# Every day of AWARE_DAYS inside: one instant written in two UTC offsets
# falls on either side of midnight, and each basket counts its local date.
WIDE_WINDOW = AnalysisWindow(start=date(2024, 12, 1), end=date(2025, 4, 30))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(baskets=st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from(AWARE_DAYS),
              st.integers(1, 99_999)),
    min_size=1, max_size=12,
))
@example(baskets=[(0, AWARE_DAYS[2], 100), (1, AWARE_DAYS[3], 100)])
def test_rfm_matches_a_per_basket_loop(make_dataset, baskets):
    rows, per_customer = [], {}
    for b, (c, day, cents) in enumerate(baskets):
        rows += basket_rows(f"b{b:02d}", f"c{c}", {"hair": cents / 100}, day)
        per_customer.setdefault(f"c{c}", []).append((day, cents))
    end, days = WIDE_WINDOW.end, WIDE_WINDOW.length_days
    want = [
        [
            float(min(
                (end - datetime.fromisoformat(day).date()).days
                for day, _ in own
            )),
            len(own) / days,
            sum(cents for _, cents in own) / 100.0 / days,
        ]
        for _, own in sorted(per_customer.items())
    ]
    matrix = feat.rfm_features(make_dataset(rows, CATS, WIDE_WINDOW))
    assert matrix.ids == sorted(per_customer)
    assert matrix.X.tobytes() == np.array(want).tobytes()


def test_pps_single_category_is_one_hot(make_dataset):
    ds = make_dataset(basket_rows("b1", "c1", {"face": 4.0}), CATS)
    matrix = feat.pps_features(ds)
    assert matrix.schema == ["cat:body", "cat:face", "cat:hair"]
    assert list(matrix.row("c1")) == [0.0, 1.0, 0.0]


def test_pps_equal_split(make_dataset):
    rows = basket_rows("b1", "c1", {"hair": 3.0, "body": 3.0})
    matrix = feat.pps_features(make_dataset(rows, CATS + ["other"]))
    assert dict(zip(matrix.schema, matrix.row("c1"))) == {
        "cat:hair": 0.5, "cat:body": 0.5, "cat:face": 0.0, "cat:other": 0.0,
    }


def test_q95_uniform_1_to_100(make_dataset):
    values = [float(i) for i in range(1, 101)]
    q = feat.compute_q95(make_dataset(one_value_baskets(values), CATS))
    assert q.q95 == pytest.approx(95.05, abs=1e-12)
    assert q.q95 == pytest.approx(quantile_oracle(values, 0.95), abs=1e-12)


def test_q95_constant_values(make_dataset):
    ds = make_dataset(one_value_baskets([7.0] * 25), CATS)
    assert feat.compute_q95(ds).q95 == 7.0


def test_q95_too_few_baskets(make_dataset):
    ds = make_dataset(one_value_baskets([1.0] * 19), CATS)
    with pytest.raises(FeatureError, match="at least 20"):
        feat.compute_q95(ds)


def test_q95_matches_oracle_on_random_inputs(make_dataset):
    rng = np.random.default_rng(5)
    for _ in range(50):
        values = rng.lognormal(2.0, 1.0, size=rng.integers(20, 200))
        values = [float(v) for v in np.round(values, 2)]
        q = feat.compute_q95(make_dataset(one_value_baskets(values), CATS))
        assert q.q95 == pytest.approx(quantile_oracle(values, 0.95), abs=1e-12)


def test_basket_sm_paper_example_ratios(make_dataset):
    q = QuantileSpec(q95=50.0)
    rows = basket_rows("S1", "c1", {"hair": 5.0, "body": 3.0})
    rows += basket_rows("S2", "c2", {"hair": 25.0, "body": 15.0})
    matrix = feat.basket_sm_features(make_dataset(rows, CATS), CATS, q)
    assert list(matrix.row("S1")) == pytest.approx([0.625, 0.375, 0.0, 8 / 50])
    assert list(matrix.row("S2")) == pytest.approx([0.625, 0.375, 0.0, 40 / 50])


def test_value_coord_clips_at_one(make_dataset):
    q = QuantileSpec(q95=10.0)
    ds = make_dataset(basket_rows("b1", "c1", {"hair": 20.0}), CATS)
    assert feat.basket_sm_features(ds, CATS, q).row("b1")[-1] == 1.0


def test_value_weight_scales_value_coordinate(make_dataset):
    q = QuantileSpec(q95=10.0)
    ds = make_dataset(basket_rows("b1", "c1", {"hair": 5.0}), CATS)
    matrix = feat.basket_sm_features(ds, CATS, q, value_weight=0.5)
    assert matrix.row("b1")[-1] == pytest.approx(0.25)


def test_category_ratios_scale_invariant(make_dataset):
    q = QuantileSpec(q95=100.0)
    rng = np.random.default_rng(6)
    rows = []
    for case in range(50):
        values = {c: float(np.round(rng.uniform(0.5, 20), 2)) for c in CATS}
        rows += basket_rows(f"b{case}", "c", values)
        rows += basket_rows(f"s{case}", "c", {c: 3 * v for c, v in values.items()})
    matrix = feat.basket_sm_features(make_dataset(rows, CATS), CATS, q)
    for case in range(50):
        r1, r2 = matrix.row(f"b{case}"), matrix.row(f"s{case}")
        assert r1[:-1] == pytest.approx(r2[:-1], abs=1e-12)
        assert r2[-1] >= r1[-1]


def test_customer_sm_all_in_one_cluster(make_dataset):
    ds = make_dataset(one_value_baskets([1.0] * 4), CATS)
    matrix = feat.customer_sm_features(ds, [2] * ds.n_baskets, 3)
    assert list(matrix.row("c1")) == [0.0, 0.0, 1.0]


def test_customer_sm_even_split(make_dataset):
    ds = make_dataset(one_value_baskets([1.0] * 4), CATS)
    matrix = feat.customer_sm_features(ds, np.array([0, 0, 1, 1]), 2)
    assert list(matrix.row("c1")) == [0.5, 0.5]


def test_customer_sm_needs_one_label_per_basket(make_dataset):
    ds = make_dataset(basket_rows("b0", "c1", {"hair": 1.0}), CATS)
    for labels in ([], [0, 1]):
        with pytest.raises(FeatureError, match="expected 1 basket archetype"):
            feat.customer_sm_features(ds, labels, 2)


def test_customer_sm_cluster_out_of_range_names_basket(make_dataset):
    ds = make_dataset(basket_rows("b0", "c1", {"hair": 1.0}), CATS)
    with pytest.raises(FeatureError, match="'b0' assigned to cluster 2"):
        feat.customer_sm_features(ds, [2], 2)


def test_ratio_vectors_unit_sum_on_planted_data(small_planted):
    _, _, _, dataset = small_planted
    pps = feat.pps_features(dataset)
    assert np.allclose(pps.X.sum(axis=1), 1.0, atol=1e-9)
    assert (pps.X >= 0).all()
    q = feat.compute_q95(dataset)
    sm = feat.basket_sm_features(dataset, dataset.category_ids, q)
    assert np.allclose(sm.X[:, :-1].sum(axis=1), 1.0, atol=1e-9)
    assert ((sm.X[:, -1] >= 0) & (sm.X[:, -1] <= 1)).all()


def test_n_distinct_counts_rows_once():
    matrix = feat.FeatureMatrix(
        ids=["a", "b", "c"], X=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        schema=["x", "y"],
    )
    assert matrix.n_distinct == 2
    assert "n_distinct" in vars(matrix)  # cached on the instance
    # -0.0 equals 0.0, as in np.unique; an empty matrix has no rows.
    X = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0]])
    assert feat.FeatureMatrix(["a", "b", "c"], X, ["x", "y"]).n_distinct == 2
    assert feat.FeatureMatrix([], np.zeros((0, 2)), ["x", "y"]).n_distinct == 0


@pytest.mark.parametrize(
    "ids, message",
    [(["b", "a"], "'a' follows 'b'"), (["a", "b", "b"], "'b' follows 'b'")],
)
def test_feature_matrix_ids_must_be_sorted_and_unique(ids, message):
    with pytest.raises(FeatureError, match=message):
        feat.FeatureMatrix(ids=ids, X=np.zeros((len(ids), 1)), schema=["x"])


def value_dataset(cents):
    """One-category dataset whose baskets are worth ``cents``."""
    n = len(cents)
    return Dataset(
        categories={"K00": "only"},
        window=WINDOW,
        basket_ids=[f"b{i:05d}" for i in range(n)],
        customer_ids=["c1"],
        basket_customer=np.zeros(n, dtype=np.intp),
        times=[datetime(2025, 2, 1)],
        basket_time=np.zeros(n, dtype=np.int64),
        spend_cents=np.asarray(cents, dtype=np.int64)[:, None],
    )


# numpy interpolates down from the upper neighbour when the fraction is at
# least 0.5 and up from the lower one otherwise; each example rounds
# differently if its other formula is used.
@example(n=62, n_values=30, scale=11, seed=409)
@example(n=98, n_values=45, scale=9, seed=114)
@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(feat.MIN_BASKETS_FOR_Q95, 400),
    n_values=st.integers(1, 400),
    scale=st.integers(0, 13),
    seed=st.integers(0, 2**32 - 1),
)
def test_q95_has_the_bits_of_np_quantile(n, n_values, scale, seed):
    # Few distinct values give heavy ties at the interpolation points.
    rng = np.random.default_rng(seed)
    pool = rng.integers(1, 10**scale + 2, size=n_values)
    cents = pool[rng.integers(n_values, size=n)]
    want = np.quantile(cents / 100.0, 0.95)
    got = feat.compute_q95(value_dataset(cents)).q95
    assert np.float64(got).tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(0, 40),
    d=st.integers(0, 4),
    n_rows=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_n_distinct_counts_what_np_unique_counts(n, d, n_rows, seed):
    # Rows repeat a few rows of values that include both -0.0 and 0.0.
    rng = np.random.default_rng(seed)
    pool = rng.choice([-0.0, 0.0, 1.0, -2.5, 1e-300], size=(n_rows, d))
    X = pool[rng.integers(n_rows, size=n)]
    matrix = feat.FeatureMatrix(
        [f"e{i:03d}" for i in range(n)], X, [f"x{j}" for j in range(d)]
    )
    assert matrix.n_distinct == np.unique(X, axis=0).shape[0]
