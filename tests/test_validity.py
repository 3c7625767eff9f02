import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import matrix_from, oracle_bvr, oracle_db, oracle_purity
from shopmission import validity
from shopmission.features import FeatureMatrix
from shopmission.kmeans import kmeans_fit
from shopmission.validity import (
    CrosstabMatrix,
    ValidityError,
    between_variance_ratio,
    crosstab,
    davies_bouldin,
    fit_summary,
    purity,
    select_k,
)


def test_bvr_k1_is_zero():
    matrix = matrix_from(np.random.default_rng(0).normal(size=(10, 2)))
    assert between_variance_ratio(matrix, [0] * 10) == 0.0


def test_bvr_singletons_is_one():
    matrix = matrix_from(np.arange(8, dtype=float).reshape(-1, 1))
    assert between_variance_ratio(matrix, range(8)) == pytest.approx(1.0)


def test_bvr_constant_data_warns_and_returns_zero():
    matrix = matrix_from(np.ones((5, 2)))
    labels = [0, 0, 1, 1, 1]
    with pytest.warns(UserWarning):
        assert between_variance_ratio(matrix, labels) == 0.0


def test_bvr_matches_oracle_random():
    rng = np.random.default_rng(1)
    for _ in range(20):
        X = rng.normal(size=(50, 3))
        labels = rng.integers(0, 3, size=50)
        matrix = matrix_from(X)
        assert between_variance_ratio(matrix, labels) == pytest.approx(
            oracle_bvr(X, list(labels)), rel=1e-9
        )


def test_db_two_singletons_is_zero():
    matrix = matrix_from([[0.0, 0.0], [1.0, 0.0]])
    assert davies_bouldin(matrix, [0, 1]) == 0.0


def test_db_symmetric_two_cluster_hand_case():
    eps = 0.1
    X = np.array(
        [[-1 - eps, 0.0], [-1 + eps, 0.0], [1 - eps, 0.0], [1 + eps, 0.0]]
    )
    matrix = matrix_from(X)
    labels = [0, 0, 1, 1]
    # s_0 = s_1 = eps, d = 2  ->  DB = (eps + eps) / 2 = eps
    assert davies_bouldin(matrix, labels) == pytest.approx(eps, abs=1e-12)
    assert davies_bouldin(matrix, labels) == pytest.approx(
        oracle_db(X, [0, 0, 1, 1]), abs=1e-12
    )


def test_db_matches_oracle_random():
    rng = np.random.default_rng(2)
    for _ in range(20):
        X = rng.normal(size=(40, 4))
        labels = rng.integers(0, 4, size=40)
        if len(set(labels)) < 2:
            continue
        matrix = matrix_from(X)
        assert davies_bouldin(matrix, labels) == pytest.approx(
            oracle_db(X, list(labels)), rel=1e-9
        )


def test_db_requires_k_at_least_two():
    matrix = matrix_from([[0.0], [1.0]])
    with pytest.raises(ValidityError):
        davies_bouldin(matrix, [0, 0])


def test_db_coincident_centers_named():
    X = np.array([[0.0, 1.0], [0.0, -1.0], [0.0, 2.0], [0.0, -2.0]])
    matrix = matrix_from(X)
    labels = [0, 0, 1, 1]
    with pytest.raises(ValidityError, match="coincident"):
        davies_bouldin(matrix, labels)


def loop_davies_bouldin(matrix, labels):
    """Reference: the Davies-Bouldin index with one Python loop over every
    ordered pair of clusters, summing each row's worst ratio in turn."""
    X = matrix.X
    labels = np.asarray(labels)
    clusters = np.flatnonzero(np.bincount(labels))
    k = len(clusters)
    centers, dispersion = np.empty((k, X.shape[1])), np.empty(k)
    for i, j in enumerate(clusters):
        pts = X[labels == j]
        centers[i] = pts.mean(axis=0)
        pts -= centers[i]
        dispersion[i] = np.sqrt(np.square(pts, out=pts).sum(axis=1)).mean()
    db = 0.0
    for i in range(k):
        worst = 0.0
        for j in range(k):
            if i == j:
                continue
            d = float(np.sqrt(((centers[i] - centers[j]) ** 2).sum()))
            if d == 0.0:
                raise ValidityError(
                    f"clusters {clusters[i]} and {clusters[j]} have "
                    "coincident centers"
                )
            worst = max(worst, (dispersion[i] + dispersion[j]) / d)
        db += worst
    return float(db / k)


@st.composite
def clustered_rows(draw):
    """(matrix, labels): k in 2..15 clusters, some label values unused, over
    1..20 columns of real numbers or of a small integer grid, where centers
    can coincide."""
    k = draw(st.integers(2, 15))
    d = draw(st.integers(1, 20))
    n = draw(st.integers(k, k + 30))
    values = draw(st.sampled_from([
        st.floats(-1e3, 1e3, allow_subnormal=False),
        st.integers(-1, 1).map(float),
    ]))
    X = draw(st.lists(
        st.lists(values, min_size=d, max_size=d), min_size=n, max_size=n
    ))
    step = draw(st.integers(1, 3))
    rest = draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
    labels = [c * step for c in [*range(k), *rest]]
    return matrix_from(X), labels


@settings(max_examples=300, deadline=None)
@given(case=clustered_rows())
def test_db_is_bit_equal_to_the_pairwise_loop(case):
    matrix, labels = case
    try:
        want = loop_davies_bouldin(matrix, labels)
    except ValidityError as exc:
        with pytest.raises(ValidityError) as got:
            davies_bouldin(matrix, labels)
        assert str(got.value) == str(exc)
    else:
        assert davies_bouldin(matrix, labels) == want


def test_db_coincident_centers_name_the_first_pair():
    # Clusters 0 and 2, then 1 and 3, share a center; 0 and 2 come first.
    X = [[0.0], [5.0], [1.0], [-1.0], [4.0], [6.0]]
    labels = [0, 1, 2, 2, 3, 3]
    with pytest.raises(
        ValidityError, match="^clusters 0 and 2 have coincident centers$"
    ):
        davies_bouldin(matrix_from(X), labels)


@pytest.mark.parametrize("metric", [between_variance_ratio, davies_bouldin])
def test_metrics_need_one_label_per_row(metric):
    matrix = matrix_from([[0.0], [1.0], [2.0]])
    with pytest.raises(ValidityError, match="one label per row"):
        metric(matrix, [0, 1])


def test_fit_summary_ignores_matrix_layout():
    # The metrics reduce along rows, which numpy adds in another order for
    # a Fortran-ordered or strided matrix; FeatureMatrix stores C order.
    rng = np.random.default_rng(23)
    for _ in range(40):
        n, d = rng.integers(20, 60), rng.integers(2, 7)
        W = rng.normal(size=(n, 2 * d)) * 10.0 ** rng.integers(-3, 4, size=2 * d)
        copies = [np.ascontiguousarray(W[:, ::2]), np.asfortranarray(W[:, ::2]),
                  W[:, ::2]]
        got = set()
        for X in copies:
            matrix = FeatureMatrix(
                ids=list(range(n)), X=X, schema=[f"f{j}" for j in range(d)]
            )
            assert matrix.X.flags.c_contiguous
            model, labels = kmeans_fit(matrix, 4, seed=0, n_init=2)
            summary = fit_summary(matrix, model, labels)
            got.add((model.centers.tobytes(), labels.tobytes(),
                     repr(sorted(summary.items()))))
        assert len(got) == 1


def test_select_k_single_row_sweep():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 2))
    sweep = select_k(matrix_from(X), (2, 2), seed=0)
    assert len(sweep.rows) == 1
    assert sweep.recommended_k == 2
    elbow = select_k(matrix_from(X), (2, 2), seed=0, policy="variance_elbow")
    assert elbow.recommended_k == 2


def test_select_k_policies(monkeypatch):
    rng = np.random.default_rng(4)
    X = np.vstack([rng.normal(loc=c, scale=0.2, size=(15, 2)) for c in (0, 5, 10)])
    matrix = matrix_from(X)
    db = select_k(matrix, (2, 6), seed=1, policy="db_min")
    assert db.recommended_k == 3
    report = select_k(matrix, (2, 6), seed=1, policy="report_only")
    assert report.recommended_k is None
    elbow = select_k(matrix, (2, 6), seed=1, policy="variance_elbow")
    assert elbow.recommended_k == 3

    def no_fit(*args, **kwargs):
        raise AssertionError("kmeans_fit called")

    # An unknown policy fails before the first fit.
    monkeypatch.setattr(validity, "kmeans_fit", no_fit)
    with pytest.raises(ValidityError, match="unknown policy 'nope'"):
        select_k(matrix, (2, 6), seed=1, policy="nope")


def test_select_k_range_validation():
    matrix = matrix_from(np.random.default_rng(5).normal(size=(10, 2)))
    with pytest.raises(ValidityError):
        select_k(matrix, (1, 5), seed=0)
    with pytest.raises(ValidityError):
        select_k(matrix, (2, 10), seed=0)
    for k_range, bound in [((2.0, 5), 2.0), ((2, 5.5), 5.5)]:
        message = f"k must be an int >= 1, got {bound}$"
        with pytest.raises(ValidityError, match=message):
            select_k(matrix, k_range, seed=0)


@pytest.mark.parametrize("k_range", [5, (2, 3, 4), (2,), "23", None])
def test_select_k_range_is_a_pair(k_range):
    matrix = matrix_from(np.random.default_rng(5).normal(size=(10, 2)))
    message = f"k_range must be a list of 2 numbers, got {k_range!r}"
    with pytest.raises(ValidityError, match=f"^{re.escape(message)}$"):
        select_k(matrix, k_range, seed=0)


def test_select_k_constant_dataset_errors():
    matrix = matrix_from(np.ones((10, 2)))
    with pytest.raises(Exception, match="distinct"):
        select_k(matrix, (2, 4), seed=0)


def test_purity_identical_clusterings():
    a = {f"e{i}": i % 3 for i in range(12)}
    assert purity(a, dict(a)) == 1.0


def test_purity_asymmetry_witness():
    n = 10
    one = {f"e{i}": 0 for i in range(n)}
    singles = {f"e{i}": i for i in range(n)}
    assert purity(one, singles) == pytest.approx(1 / n)
    assert purity(singles, one) == 1.0


def test_purity_matches_exhaustive_counting():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        a = {f"e{i}": int(rng.integers(0, 3)) for i in range(n)}
        b = {f"e{i}": int(rng.integers(0, 3)) for i in range(n)}
        assert purity(a, b) == oracle_purity(a, b)


def test_purity_mismatched_entity_sets():
    a = {"x": 0, "y": 1}
    b = {"x": 0, "z": 1}
    with pytest.raises(ValidityError, match="different entity sets"):
        purity(a, b)
    with pytest.raises(ValidityError, match="assignments are empty"):
        purity({}, {})


def test_crosstab_identity():
    a = {f"e{i}": i % 3 for i in range(9)}
    table = crosstab(a, dict(a))
    assert np.allclose(table.values, np.eye(3))


def test_crosstab_rows_sum_to_one_and_empty_cells_zero():
    a = {"e0": 0, "e1": 0, "e2": 1, "e3": 1}
    b = {"e0": 0, "e1": 1, "e2": 1, "e3": 1}
    table = crosstab(a, b)
    assert np.allclose(table.values.sum(axis=1), 1.0)
    assert table.values[1][0] == 0.0


def test_crosstab_purity_consistency_identity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(5, 40))
        a = {f"e{i}": int(rng.integers(0, 4)) for i in range(n)}
        b = {f"e{i}": int(rng.integers(0, 4)) for i in range(n)}
        table = crosstab(a, b)
        sizes = {c: sum(1 for v in a.values() if v == c) for c in set(a.values())}
        recomposed = sum(
            (sizes[c] / n) * table.values[i].max()
            for i, c in enumerate(table.row_labels)
        )
        assert recomposed == pytest.approx(purity(a, b), abs=1e-12)


def test_relabeling_invariance():
    rng = np.random.default_rng(8)
    a = {f"e{i}": int(rng.integers(0, 4)) for i in range(30)}
    b = {f"e{i}": int(rng.integers(0, 4)) for i in range(30)}
    relabel = {0: 3, 1: 2, 2: 0, 3: 1}
    a2 = {e: relabel[c] for e, c in a.items()}
    assert purity(a2, b) == purity(a, b)
    rows1 = sorted(tuple(r) for r in crosstab(a, b).values)
    rows2 = sorted(tuple(r) for r in crosstab(a2, b).values)
    assert rows1 == pytest.approx(rows2)


def test_crosstab_orders_integer_labels_by_value(tmp_path):
    # Twelve row and eleven column clusters: as text, "10" sorts before "2".
    a = {f"e{i}": str(i % 12) for i in range(48)}
    b = {e: str(int(label) % 11) for e, label in a.items()}
    table = crosstab(a, b)
    assert table.row_labels == [str(j) for j in range(12)]
    assert table.col_labels == [str(j) for j in range(11)]
    assert table.values[10][10] == table.values[11][0] == 1.0
    table.to_csv(tmp_path / "ct.csv")
    header = (tmp_path / "ct.csv").read_text().splitlines()[0]
    assert header == "," + ",".join(str(j) for j in range(11))


def test_crosstab_orders_other_labels_as_text():
    a = {"e0": "C10", "e1": "C2", "e2": "7", "e3": "10"}
    assert crosstab(a, a).row_labels == ["10", "7", "C10", "C2"]


def test_crosstab_exports(tmp_path):
    table = CrosstabMatrix(
        row_labels=[0, 1],
        col_labels=[0, 1],
        values=np.array([[1.0, 0.0], [0.25, 0.75]]),
    )
    table.to_csv(tmp_path / "ct.csv")
    assert (tmp_path / "ct.csv").read_text().splitlines()[0] == ",0,1"
    payload = table.to_json_payload()
    assert '"values"' in payload
