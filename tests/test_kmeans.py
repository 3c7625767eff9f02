import hashlib
import itertools
import json
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from conftest import WINDOW, matrix_from
from shopmission import kmeans, validity
from shopmission.features import FeatureMatrix, basket_sm_features, compute_q95
from shopmission.kmeans import ClusterModel, KMeansError, assign, kmeans_fit
from shopmission.syngen import default_config, generate
from shopmission.txmodel import ingest_receipts


def exhaustive_best_inertia(X, k=2):
    """Minimum within-cluster SS over all k-partitions (k=2, n <= 12)."""
    n = len(X)
    best = np.inf
    for bits in range(1, 2 ** (n - 1)):
        mask = np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
        if not mask.any() or mask.all():
            continue
        inertia = 0.0
        for part in (X[mask], X[~mask]):
            inertia += ((part - part.mean(axis=0)) ** 2).sum()
        best = min(best, inertia)
    return best


def test_k1_center_is_mean():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20, 3))
    model, labels = kmeans_fit(matrix_from(X), k=1, seed=0)
    assert model.centers[0] == pytest.approx(X.mean(axis=0))
    assert model.inertia == pytest.approx(((X - X.mean(axis=0)) ** 2).sum())
    assert set(labels.tolist()) == {0}


def test_two_blobs_match_exhaustive_partition_optimum():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X = np.vstack(
            [
                rng.normal(loc=0.0, scale=0.3, size=(6, 2)),
                rng.normal(loc=5.0, scale=0.3, size=(6, 2)),
            ]
        )
        model, labels = kmeans_fit(matrix_from(X), k=2, seed=seed)
        assert model.inertia == pytest.approx(
            exhaustive_best_inertia(X), rel=1e-9
        )
        labels = labels.tolist()
        assert len(set(labels[:6])) == 1 and len(set(labels[6:])) == 1
        assert labels[0] != labels[6]


def test_duplicate_rows_get_identical_assignments():
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [5.0, 5.0]])
    _, labels = kmeans_fit(matrix_from(X), k=2, seed=3)
    assert labels[0] == labels[1]


def test_inertia_non_increasing_over_max_iter():
    # A fit stopped after m iterations reports the inertia of the m-th
    # update, so these are the inertias of one run, iteration by iteration.
    rng = np.random.default_rng(12)
    matrix = matrix_from(rng.normal(size=(80, 4)))
    model, _ = kmeans_fit(matrix, k=4, seed=12, n_init=1)
    inertias = [
        kmeans_fit(matrix, k=4, seed=12, n_init=1, max_iter=m)[0].inertia
        for m in range(1, model.iterations_run + 1)
    ]
    assert len(inertias) > 2 and inertias[-1] == model.inertia
    for a, b in zip(inertias, inertias[1:]):
        assert b <= a * (1 + 1e-9)


def test_fixed_seed_bit_identical():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(50, 3))
    m1, a1 = kmeans_fit(matrix_from(X), k=3, seed=77)
    m2, a2 = kmeans_fit(matrix_from(X), k=3, seed=77)
    assert m1.centers.tobytes() == m2.centers.tobytes()
    assert m1.inertia == m2.inertia
    assert np.array_equal(a1, a2)


def test_row_order_irrelevant_given_sorted_ids():
    # Feature builders emit rows sorted by entity id, so the order in which
    # entities were produced must not matter.
    def sorted_matrix(mapping):
        ids = sorted(mapping)
        X = np.array([mapping[i] for i in ids])
        return FeatureMatrix(ids=ids, X=X, schema=["a", "b", "c"])

    rng = np.random.default_rng(21)
    rows = {f"e{i:03d}": rng.normal(size=3) for i in range(30)}
    fwd = sorted_matrix(rows)
    rev = sorted_matrix(dict(reversed(list(rows.items()))))
    m1, a1 = kmeans_fit(fwd, k=3, seed=5)
    m2, a2 = kmeans_fit(rev, k=3, seed=5)
    assert m1.centers.tobytes() == m2.centers.tobytes()
    assert np.array_equal(a1, a2)


def test_assign_reproduces_training_assignment():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(60, 3))
    matrix = matrix_from(X)
    model, labels = kmeans_fit(matrix, k=4, seed=14)
    assert np.array_equal(assign(model, matrix), labels)


def test_assign_point_on_center():
    centers = np.array([[0.0, 0], [1, 0], [2, 0], [3, 0]])
    model = ClusterModel(4, centers, ["f0", "f1"], 0, 0.0, 0)
    matrix = FeatureMatrix(ids=["p"], X=np.array([[3.0, 0.0]]), schema=["f0", "f1"])
    assert assign(model, matrix).tolist() == [3]


def test_assign_tie_breaks_to_lowest_index():
    centers = np.array([[0.0], [2.0], [2.0], [0.0]])
    model = ClusterModel(4, centers, ["f0"], 0, 0.0, 0)
    matrix = FeatureMatrix(ids=["p"], X=np.array([[1.0]]), schema=["f0"])
    assert assign(model, matrix).tolist() == [0]


def test_assign_schema_mismatch():
    model = ClusterModel(1, np.zeros((1, 2)), ["f0", "f1"], 0, 0.0, 0)
    matrix = FeatureMatrix(ids=["p"], X=np.zeros((1, 2)), schema=["x", "y"])
    with pytest.raises(KMeansError, match="schema"):
        assign(model, matrix)


def test_prism_geometry_s1_s2():
    # Identical category ratios, different clipped values, different clusters:
    # the low-value basket lands on the low-value specialist center, the
    # high-value basket on the high-value general center.
    centers = np.array(
        [
            [1 / 3, 1 / 3, 1 / 3, 0.9],  # C1: high-value general
            [1.0, 0.0, 0.0, 0.3],  # C2
            [0.0, 0.0, 1.0, 0.3],  # C3
            [0.6, 0.4, 0.0, 0.2],  # C4: low-value hair/body
        ]
    )
    schema = ["cat:hair", "cat:body", "cat:face", "value"]
    model = ClusterModel(4, centers, schema, 0, 0.0, 0)
    q95 = 50.0
    s1 = [0.625, 0.375, 0.0, 8 / q95]
    s2 = [0.625, 0.375, 0.0, 40 / q95]
    matrix = FeatureMatrix(ids=["S1", "S2"], X=np.array([s1, s2]), schema=schema)
    s1_label, s2_label = assign(model, matrix)
    assert s1_label == 3  # C4 analog
    assert s2_label == 0  # C1 analog


def test_k_greater_than_distinct_rows_rejected():
    X = np.array([[1.0, 1.0]] * 5 + [[2.0, 2.0]] * 5)
    with pytest.raises(KMeansError, match="distinct"):
        kmeans_fit(matrix_from(X), k=3, seed=0)


def test_distinct_row_error_comes_before_the_overflow_error():
    # Two distinct rows, so k=3 fails the distinct-row count before the
    # range check that would also fail.
    X = [[0.0, 0.0], [0.0, 0.0], [1e200, 1e200]]
    with pytest.raises(KMeansError, match=r"k=3 exceeds .* \(2\)"):
        kmeans_fit(matrix_from(X), k=3, seed=0)
    with pytest.raises(KMeansError, match=r"k=4 exceeds .* \(3\)"):
        kmeans_fit(matrix_from([[0.0], [1.0], [2.0]]), k=4, seed=0)


def test_distinct_rows_are_counted_only_when_the_seeding_needs_them():
    rng = np.random.default_rng(6)
    matrix = matrix_from(rng.normal(size=(40, 3)))
    kmeans_fit(matrix, k=5, seed=1)
    assert "n_distinct" not in vars(matrix)
    # 0 and 1e-200 are distinct rows at a squared distance that underflows
    # to 0, so the seeding total reaches 0 before the third pick. The count
    # proves three distinct rows, so the fit stops there: no squared
    # distance separates those two rows. A fourth center exceeds the count.
    matrix = matrix_from([[0.0], [1e-200], [5.0], [5.0]])
    with pytest.raises(KMeansError, match="underflow"):
        kmeans_fit(matrix, k=3, seed=0)
    assert vars(matrix)["n_distinct"] == 3
    with pytest.raises(KMeansError, match=r"k=4 exceeds .* \(3\)"):
        kmeans_fit(matrix, k=4, seed=0)


@pytest.mark.parametrize("seed", range(4))
def test_rows_no_squared_distance_separates_are_named(seed):
    # Seeding and Lloyd both see 0 and 1e-200 as one point, so a third
    # center would stay empty whatever the seed; the error names that
    # cause. Two centers separate the rows that a distance can.
    matrix = matrix_from([[0.0], [1e-200], [5.0], [5.0]])
    with pytest.raises(
        KMeansError, match="distinct rows are at squared distances that "
        "underflow to 0, so no squared distance separates them",
    ):
        kmeans_fit(matrix, k=3, seed=seed)
    model, labels = kmeans_fit(matrix, k=2, seed=seed)
    assert sorted(labels.tolist()) == [0, 0, 1, 1]


ENTROPY_INTS = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 + 5]) | st.integers(
    2**64, 2**130
) | st.integers(0, 2**40)
DRAW_BOUNDS = [1, 2, 13, 15997, 2**31 + 11, 2**32]


@settings(max_examples=300, deadline=None)
@given(
    seed=ENTROPY_INTS,
    restart=st.integers(0, 12),
    draws=st.lists(st.sampled_from(DRAW_BOUNDS) | st.none(), max_size=24),
)
def test_seeding_draws_match_numpy_default_rng(seed, restart, draws):
    # None is a random() draw, an int n an integers(n) draw; runs of
    # integers calls use the buffered high half of a 64-bit output, and
    # n = 2**31 + 11 rejects about half its draws.
    want = np.random.default_rng((seed, restart))
    got = kmeans._Pcg64Draws((seed, restart))
    for n in draws:
        if n is None:
            assert got.random() == want.random()
        else:
            assert got.integers(n) == want.integers(n)
    assert got.random() == want.random()


def test_seeding_draws_reject_more_than_2_to_the_32_rows():
    with pytest.raises(KMeansError, match="at most 2\\*\\*32"):
        kmeans._Pcg64Draws((0, 0)).integers(2**32 + 1)


def test_non_finite_rejected():
    X = np.array([[1.0], [np.nan]])
    with pytest.raises(KMeansError, match="non-finite"):
        kmeans_fit(matrix_from(X), k=1, seed=0)
    model = ClusterModel(1, np.zeros((1, 1)), ["f0"], 0, 0.0, 0)
    with pytest.raises(KMeansError, match="non-finite"):
        assign(model, matrix_from(X))


def test_overflowing_squared_distances_rejected():
    # Finite rows whose squared distances overflow: the k-means++ draw would
    # search a cdf of NaN.
    X = [[0, 0], [1e200, 0], [0, 1e200], [1e200, 1e200], [5, 5]]
    with pytest.raises(KMeansError, match="overflow"):
        kmeans_fit(matrix_from(X), k=3, seed=0)


def test_no_orphan_centers():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 2))
    model, labels = kmeans_fit(matrix_from(X), k=6, seed=3)
    assert set(labels.tolist()) == set(range(6))
    assert model.inertia >= 0


def test_model_json_roundtrip_bit_exact():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(25, 3))
    model, _ = kmeans_fit(matrix_from(X), k=3, seed=8)
    restored = ClusterModel.from_dict(json.loads(json.dumps(model.to_dict())))
    assert restored.centers.tobytes() == model.centers.tobytes()
    assert restored.inertia == model.inertia
    assert restored.feature_schema == model.feature_schema
    assert restored.seed == model.seed


def test_model_dict_with_misshapen_centers_rejected():
    model = ClusterModel(2, np.zeros((2, 2)), ["f0", "f1"], 0, 0.0, 0)
    doc = model.to_dict()
    doc["centers"] = [[0.0], [1.0]]
    with pytest.raises(KMeansError, match=r"centers of shape \(2, 1\)"):
        ClusterModel.from_dict(doc)


@pytest.mark.parametrize("centers, message", [
    pytest.param([5], "a model center row must be a list of numbers, got 5",
                 id="number-row"),
    pytest.param("ab", "model centers must be a list of rows, got 'ab'",
                 id="text"),
    pytest.param([[0.0, "1"], [1.0, 1.0]],
                 "center must be a finite number, got '1'", id="text-entry"),
    pytest.param([[0.0, 1e400], [1.0, 1.0]],
                 "center must be a finite number, got inf", id="inf-entry"),
])
def test_model_dict_centers_are_rows_of_numbers(centers, message):
    doc = ClusterModel(2, np.zeros((2, 2)), ["f0", "f1"], 0, 0.0, 1).to_dict()
    doc["centers"] = centers
    with pytest.raises(KMeansError, match=f"^{re.escape(message)}$"):
        ClusterModel.from_dict(doc)


@pytest.mark.parametrize("key, value, message", [
    pytest.param("centers", [[0.0], [1.0, 1.0]],
                 "model center rows have lengths [1, 2]", id="ragged-rows"),
    pytest.param("feature_schema", 5,
                 "model feature_schema must be a list of strings, got 5",
                 id="schema-number"),
    pytest.param("feature_schema", "ab",
                 "model feature_schema must be a list of strings, got 'ab'",
                 id="schema-text"),
    pytest.param("feature_schema", ["f0", 1],
                 "model feature_schema must be a list of strings, "
                 "got ['f0', 1]", id="schema-entry"),
])
def test_model_dict_parts_have_their_shape(key, value, message):
    doc = ClusterModel(2, np.zeros((2, 2)), ["f0", "f1"], 0, 0.0, 1).to_dict()
    doc[key] = value
    with pytest.raises(KMeansError, match=f"^{re.escape(message)}$"):
        ClusterModel.from_dict(doc)


def test_restart_count_and_tol_validation():
    X = np.arange(10, dtype=float).reshape(-1, 1)
    with pytest.raises(KMeansError):
        kmeans_fit(matrix_from(X), k=2, seed=0, max_iter=0)
    with pytest.raises(KMeansError):
        kmeans_fit(matrix_from(X), k=2, seed=0, tol=0.0)


@pytest.mark.parametrize("n_init", [0, -1])
def test_n_init_below_one_rejected(n_init):
    X = np.arange(10, dtype=float).reshape(-1, 1)
    with pytest.raises(KMeansError, match=f"n_init must be an int >= 1, got {n_init}"):
        kmeans_fit(matrix_from(X), k=2, seed=0, n_init=n_init)


def test_negative_seed_rejected():
    X = np.arange(10, dtype=float).reshape(-1, 1)
    with pytest.raises(KMeansError, match="seed must be an int >= 0, got -1"):
        kmeans_fit(matrix_from(X), k=2, seed=-1)


def test_fit_reports_convergence():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(60, 3))
    model, _ = kmeans_fit(matrix_from(X), k=4, seed=4)
    assert model.converged
    stopped, _ = kmeans_fit(matrix_from(X), k=4, seed=4, max_iter=1)
    assert not stopped.converged
    assert stopped.iterations_run == 1
    doc = json.loads(json.dumps(stopped.to_dict()))
    assert ClusterModel.from_dict(doc).converged is False


def test_model_json_without_converged_field_loads():
    model, _ = kmeans_fit(matrix_from(np.eye(3)), k=2, seed=0)
    doc = json.loads(json.dumps(model.to_dict()))
    del doc["converged"]
    assert ClusterModel.from_dict(doc).converged is True


# --- Differential oracle: the plain Lloyd engine the pruned one replaced. ---
# Brute-force (n, k, d) distances, masked means and np.unique empty-cluster
# checks. The engine must match it bit for bit, restart by restart.
#
# The repair loops of both engines can cycle forever, for example with
# more centers than distinct rows, where two centers always share the rows
# of one value. The oracle gives up after a fixed number of passes, and the
# tests reject such draws before the engine sees them, so no draw can hang
# the suite.

_MAX_REPAIRS = 100


class _RepairCycle(Exception):
    pass


def _oracle_squared_distances(X, centers):
    diff = X[:, None, :] - centers[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _oracle_plusplus_init(X, k, rng):
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    closest = np.full(n, np.inf)
    for j in range(1, k):
        d2 = np.einsum("nd,nd->n", X - centers[j - 1], X - centers[j - 1])
        np.minimum(closest, d2, out=closest)
        centers[j] = X[rng.choice(n, p=closest / closest.sum())]
    return centers


class _NoFreeRow(Exception):
    pass


def _oracle_repair_empty(X, centers, labels, d2):
    """Re-seed each empty cluster on the farthest row whose coordinates no
    earlier empty cluster of this pass took."""
    k = centers.shape[0]
    own = d2[np.arange(len(labels)), labels].copy()
    taken = np.zeros(len(labels), dtype=bool)
    for j in range(k):
        if np.any(labels == j):
            continue
        if taken.all():
            raise _NoFreeRow
        idx = int(np.argmax(np.where(taken, -np.inf, own)))
        centers[j] = X[idx]
        labels[idx] = j
        taken |= (X == X[idx]).all(axis=1)
    return centers, labels


def _seed_repair_empty(X, centers, labels, d2):
    """The seed's repair: it can re-seed two empty clusters on equal rows,
    and the higher index then stays empty."""
    k = centers.shape[0]
    own = d2[np.arange(len(labels)), labels].copy()
    for j in range(k):
        if np.any(labels == j):
            continue
        idx = int(np.argmax(own))
        centers[j] = X[idx]
        labels[idx] = j
        own[idx] = 0.0
    return centers, labels


def _oracle_lloyd(X, centers, max_iter, tol, repair=_oracle_repair_empty,
                  recheck=True):
    """Plain Lloyd. In each iteration the repair repeats until no cluster is
    empty; ``recheck=False`` makes one pass, as the seed did, so a
    re-seeded center can leave another cluster empty with a NaN mean."""
    centers = centers.copy()
    history = []
    iterations = 0
    for _ in range(max_iter):
        d2 = _oracle_squared_distances(X, centers)
        labels = np.argmin(d2, axis=1)
        repairs = 0
        while len(np.unique(labels)) < centers.shape[0]:
            repairs += 1
            if repairs > _MAX_REPAIRS:
                raise _RepairCycle
            centers, labels = repair(X, centers, labels, d2)
            d2 = _oracle_squared_distances(X, centers)
            labels = np.argmin(d2, axis=1)
            if not recheck:
                break
        history.append(float(d2[np.arange(len(labels)), labels].sum()))
        new_centers = np.empty_like(centers)
        for j in range(centers.shape[0]):
            new_centers[j] = X[labels == j].mean(axis=0)
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        iterations += 1
        if shift < tol:
            break
    d2 = _oracle_squared_distances(X, centers)
    labels = np.argmin(d2, axis=1)
    repairs = 0
    while len(np.unique(labels)) < centers.shape[0]:
        repairs += 1
        if repairs > _MAX_REPAIRS:
            raise _RepairCycle
        centers, labels = repair(X, centers, labels, d2)
        for j in range(centers.shape[0]):
            centers[j] = X[labels == j].mean(axis=0)
        d2 = _oracle_squared_distances(X, centers)
        labels = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(len(labels)), labels].sum())
    history.append(inertia)
    return centers, labels, inertia, iterations, history


def engine_init(X, k, rng):
    """The seeding's centers and the first assignment it hands to Lloyd,
    with ``kmeans_fit``'s distinct-row check."""
    def check_distinct():
        n_distinct = np.unique(X, axis=0).shape[0]
        if k > n_distinct:
            raise KMeansError(
                f"k={k} exceeds number of distinct rows ({n_distinct})"
            )

    return kmeans._plusplus_init(
        np.ascontiguousarray(X.T), k, rng, np.empty(X.shape), check_distinct
    )


def engine_lloyd(X, init, max_iter, tol, assignment=None):
    """``kmeans._lloyd`` with the transpose, scratch buffer and slack a fit
    makes, from ``assignment`` or, for a custom init, from ``_nearest``."""
    XT = np.ascontiguousarray(X.T)
    buf = np.empty(X.shape)
    slack = 1e-9 * np.sqrt((np.ptp(X, axis=0) ** 2).sum())
    if assignment is None:
        assignment = kmeans._nearest(XT, init, buf)
    return kmeans._lloyd(XT, init, assignment, max_iter, tol, buf, slack)


def oracle_or_reject(X, centers, max_iter, tol):
    """The oracle's run, or a rejected draw if its final repair cycles."""
    try:
        return _oracle_lloyd(X, centers, max_iter, tol)
    except _RepairCycle:
        reject()


def assert_same_run(got, want):
    """Exact equality of the runs' (centers, labels, inertia, iterations)."""
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert np.float64(got[2]).tobytes() == np.float64(want[2]).tobytes()
    assert got[3] == want[3]


@st.composite
def fit_inputs(draw):
    """Matrices with exact distance ties and duplicates, and a k near the
    number of distinct rows."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["normal", "grid", "duplicated"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "normal":
        X = rng.normal(size=(n, d)) * 10.0 ** draw(st.integers(-3, 3))
    elif kind == "grid":
        X = rng.integers(-2, 3, size=(n, d)).astype(float)
    else:
        base = rng.normal(size=(draw(st.integers(1, n)), d))
        X = base[rng.integers(len(base), size=n)]
    n_distinct = np.unique(X, axis=0).shape[0]
    k = max(1, n_distinct - draw(st.integers(0, 3)))
    return X, k


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    inputs=fit_inputs(),
    seed=st.integers(0, 10**6),
    n_init=st.integers(1, 4),
    max_iter=st.integers(1, 60),
    tol=st.sampled_from([1e-1, 1e-6, 1e-12]),
)
def test_engine_matches_plain_lloyd_oracle(inputs, seed, n_init, max_iter,
                                           tol):
    X, k = inputs
    best = None
    for restart in range(n_init):
        stream = (seed, restart)
        init = _oracle_plusplus_init(X, k, np.random.default_rng(stream))
        got_init, assignment = engine_init(
            X, k, np.random.default_rng(stream)
        )
        assert got_init.tobytes() == init.tobytes()
        want = oracle_or_reject(X, init, max_iter, tol)
        got = engine_lloyd(X, init, max_iter, tol, assignment)
        assert_same_run(got, want)
        if best is None or want[2] < best[2]:
            best = want

    matrix = matrix_from(X)
    model, labels = kmeans_fit(
        matrix, k, seed=seed, max_iter=max_iter, tol=tol, n_init=n_init
    )
    assert_same_run(
        (model.centers, labels, model.inertia, model.iterations_run), best
    )
    assert np.array_equal(assign(model, matrix), labels)


# The repair can leave a cluster empty; its NaN mean warns in both engines.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 30),
    d=st.integers(1, 4),
    grid=st.booleans(),
    far_init=st.booleans(),
    data_seed=st.integers(0, 2**32 - 1),
    max_iter=st.integers(1, 8),
)
def test_custom_inits_match_oracle(n, d, grid, far_init, data_seed, max_iter):
    # Inits k-means++ never makes. A center far outside the data starts with
    # an empty cluster that must be repaired; grid centers over grid rows put
    # rows exactly midway between centers, where the lowest index must win.
    rng = np.random.default_rng(data_seed)
    X = rng.integers(0, 3, size=(n, d)) if grid else rng.normal(size=(n, d))
    X = np.unique(X.astype(float), axis=0)
    rng.shuffle(X)
    if far_init:
        k = int(rng.integers(1, len(X) + 1))
        init = X[:k].copy()
        init[rng.integers(k)] = X.max(axis=0) + 10 * np.ptp(X, axis=0) + 1
    else:
        init = rng.integers(-1, 4, size=(int(rng.integers(1, len(X) + 1)), d))
        init = np.unique(init.astype(float), axis=0)
        rng.shuffle(init)
    want = oracle_or_reject(X, init, max_iter, 1e-6)
    assert_same_run(engine_lloyd(X, init, max_iter, 1e-6), want)


def test_row_midway_between_centers_matches_oracle():
    # Row 5, [2, 3], starts on center 1. One update leaves it exactly half
    # the center gap from centers 0 and 1, so the bound cannot settle it:
    # the engine must recompute it and hand it to center 0, as argmin does.
    X = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 3.0], [1.0, 0.0],
                  [2.0, 0.0], [2.0, 3.0], [3.0, 3.0]])
    init = np.array([[3.0, 2.0], [2.0, 3.0], [1.0, 0.0]])
    got = engine_lloyd(X, init, 3, 1e-6)
    assert_same_run(got, _oracle_lloyd(X, init, 3, 1e-6))
    assert got[1][5] == 0


def test_final_repair_matches_oracle():
    X = np.array([[0.0, 4.0], [2.0, 4.0], [3.0, 1.0], [3.0, 2.0]])
    init = np.array([[5.0, 5.0], [1.0, 5.0], [0.0, 4.0]])
    # One update leaves center 2 without rows, so only the final repair
    # loop keeps k clusters.
    first = np.argmin(_oracle_squared_distances(X, init), axis=1)
    updated = np.array([X[first == j].mean(axis=0) for j in range(3)])
    final = np.argmin(_oracle_squared_distances(X, updated), axis=1)
    assert len(np.unique(first)) == 3 and len(np.unique(final)) < 3
    got = engine_lloyd(X, init, 1, 1e-6)
    assert_same_run(got, _oracle_lloyd(X, init, 1, 1e-6))
    assert sorted(set(got[1])) == [0, 1, 2]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_final_repair_cycle_raises():
    # Four centers on three distinct values: two centers always share the
    # rows of one value, so the final repair re-seeds an empty cluster
    # forever. It must give up after a bounded number of passes.
    X = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 5.0, 5.0])[:, None]
    init = np.array([[0.0], [1.0], [5.0], [2.0]])
    with pytest.raises(KMeansError, match="did not settle after 100 passes"):
        engine_lloyd(X, init, 300, 1e-6)
    with pytest.raises(_RepairCycle):
        _oracle_lloyd(X, init, 300, 1e-6)


def test_plusplus_init_matches_choice_on_duplicate_rows():
    # Rows repeat four values, so every row equal to a chosen center has a
    # ``closest`` entry of exactly 0, which neither draw may pick. Both must
    # leave the generator in the same state. With k above four the total
    # reaches 0 before the k-th pick and the distinct-row check raises.
    rng = np.random.default_rng(5)
    X = rng.normal(size=(4, 3))[rng.integers(4, size=60)]
    for k in range(2, 7):
        for seed in range(40):
            want_rng, got_rng = (np.random.default_rng(seed) for _ in "ab")
            if k > 4:
                with pytest.raises(KMeansError, match=r"distinct rows \(4\)"):
                    engine_init(X, k, got_rng)
                continue
            want = _oracle_plusplus_init(X, k, want_rng)
            assert engine_init(X, k, got_rng)[0].tobytes() == want.tobytes()
            assert got_rng.random() == want_rng.random()


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 40),
    d=st.integers(1, 4),
    kind=st.sampled_from(["normal", "grid", "duplicated", "equal"]),
    extra_k=st.integers(-3, 2),
    data_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 10**6),
)
def test_seeding_hands_lloyd_the_nearest_assignment(n, d, kind, extra_k,
                                                    data_seed, seed):
    # The assignment the seeding tracks must be the one a full distance pass
    # gives, bit for bit: ties on the integer grid and duplicate rows go to
    # the lowest index, and k = 1 has no runner-up. A k above the
    # distinct-row count raises once the seeding total reaches 0.
    rng = np.random.default_rng(data_seed)
    if kind == "normal":
        X = rng.normal(size=(n, d))
    elif kind == "grid":
        X = rng.integers(-2, 3, size=(n, d)).astype(float)
    elif kind == "duplicated":
        X = rng.normal(size=(int(rng.integers(1, n + 1)), d))
        X = X[rng.integers(len(X), size=n)]
    else:
        X = np.full((n, d), rng.normal())
    n_distinct = np.unique(X, axis=0).shape[0]
    k = max(1, n_distinct + extra_k)
    if k > n_distinct:
        with pytest.raises(KMeansError, match="exceeds number of distinct"):
            engine_init(X, k, np.random.default_rng(seed))
        return
    centers, (labels, own, lower) = engine_init(
        X, k, np.random.default_rng(seed)
    )
    want = kmeans._nearest(X.T, centers, np.empty(X.shape))
    for got, expected in zip((labels, own, lower), want):
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


def _outcome(run, *args):
    """("ok", run) or ("raise", None), and whether a cluster mean was taken
    over no rows (a NaN center)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ("ok", run(*args))
        except (KMeansError, _RepairCycle, _NoFreeRow):
            result = ("raise", None)
    return result, any("Mean of empty slice" in str(w.message) for w in caught)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(2, 24),
    d=st.integers(1, 3),
    n_values=st.integers(1, 5),
    extra_k=st.integers(0, 2),
    data_seed=st.integers(0, 2**32 - 1),
    max_iter=st.integers(1, 8),
)
def test_repair_never_reseeds_equal_rows(n, d, n_values, extra_k, data_seed,
                                         max_iter):
    # Rows repeat a few grid values and the inits are arbitrary grid points,
    # so several clusters can be empty at once while equal rows are the
    # farthest. The engine must match the oracle, whose repair skips rows
    # equal to one an earlier empty cluster of the pass took. Where the
    # seed's repair gives another run, that run raised, carried NaN in its
    # inertia history or took a mean over an empty cluster.
    rng = np.random.default_rng(data_seed)
    X = rng.integers(0, 3, size=(n_values, d))[rng.integers(n_values, size=n)]
    X = X.astype(float)
    k = int(rng.integers(1, len(np.unique(X, axis=0)) + 1)) + extra_k
    init = rng.integers(-1, 4, size=(k, d)).astype(float)
    want, _ = _outcome(_oracle_lloyd, X, init, max_iter, 1e-6)
    got, _ = _outcome(engine_lloyd, X, init, max_iter, 1e-6)
    assert got[0] == want[0]
    if want[0] == "ok":
        assert_same_run(got[1], want[1])
    seed_run, seed_nan_center = _outcome(
        _oracle_lloyd, X, init, max_iter, 1e-6, _seed_repair_empty, False
    )
    if seed_run[0] == "ok" and want[0] == "ok":
        same = all(
            np.asarray(a).tobytes() == np.asarray(b).tobytes()
            for a, b in zip(seed_run[1], want[1])
        )
        if same or seed_nan_center:
            return
        assert np.isnan(seed_run[1][4]).any()
    elif seed_run[0] == "ok":
        # Only more clusters than distinct rows leave no free row.
        assert k > len(np.unique(X, axis=0))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_repair_of_two_empty_clusters_takes_distinct_rows():
    # The first update leaves clusters 1 and 2 empty, and the rows at 3 are
    # the farthest from center 0. The seed's repair put both clusters on
    # them; cluster 2 stayed empty and its mean was NaN.
    X = np.array([[0.0], [0.0], [1.0], [3.0], [3.0]])
    init = np.array([[0.0], [-5.0], [-6.0]])
    got = engine_lloyd(X, init, 10, 1e-6)
    want = _oracle_lloyd(X, init, 10, 1e-6)
    assert_same_run(got, want)
    # The oracle's inertia of every iteration is finite, so no mean of the
    # run it shares with the engine was over an empty cluster.
    assert np.isfinite(want[4]).all() and np.isfinite(got[0]).all()
    assert sorted(set(got[1])) == [0, 1, 2]
    with pytest.warns(RuntimeWarning, match="Mean of empty slice"):
        seed = _oracle_lloyd(X, init, 10, 1e-6, _seed_repair_empty, False)
    assert np.isnan(seed[4]).any()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_main_loop_repeats_repair_until_no_cluster_is_empty():
    # Every row starts on center 0, so center 1 is re-seeded on the row at
    # 2. That center then wins the rows at 3 too, while center 0 has not
    # moved: a second pass must re-seed center 0. With one pass, as in the
    # seed, cluster 0's mean was NaN for all 300 iterations.
    X = np.array([[2.0], [3.0], [3.0]])
    init = np.array([[5.0], [-2.0]])
    got = engine_lloyd(X, init, 300, 1e-6)
    assert_same_run(got, _oracle_lloyd(X, init, 300, 1e-6))
    assert got[0].ravel().tolist() == [3.0, 2.0]
    assert got[1].tolist() == [1, 0, 0]
    assert got[2:] == (0.0, 1, True)
    with pytest.warns(RuntimeWarning, match="Mean of empty slice"):
        seed = _oracle_lloyd(X, init, 300, 1e-6, recheck=False)
    assert seed[3] == 300 and np.isnan(seed[4][1:-1]).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_repair_without_a_free_row_raises():
    # Every row goes to center 0, so three clusters are empty, but the rows
    # hold only two distinct values to re-seed them on.
    X = np.array([[0.0], [0.0], [1.0]])
    init = np.array([[0.5], [9.0], [10.0], [11.0]])
    with pytest.raises(KMeansError, match="cannot re-seed empty cluster 3"):
        engine_lloyd(X, init, 10, 1e-6)
    with pytest.raises(_NoFreeRow):
        _oracle_lloyd(X, init, 10, 1e-6)


# k-sweep on the 150-customer syngen set of seed 1, select_k seed 42, as
# recorded from the engine before the fit reused its buffers: per k,
# float.hex(inertia), iterations_run and a sha256 prefix of the labels.
PINNED_SWEEP = {
    2: ("0x1.67880c9de84d6p+8", 2, "4a03de65cc4478d3"),
    3: ("0x1.077f8993bbbf2p+8", 2, "e073f6b9833a6088"),
    4: ("0x1.3d920ed59dee5p+7", 2, "4566a79ba7fdbde6"),
    5: ("0x1.31dbd2952376ap+6", 2, "927970b7dbdd8061"),
    6: ("0x1.794a7ea191187p+3", 2, "cc4d5d795f5e7632"),
    7: ("0x1.38f9e6174c9b9p+3", 6, "98c0d561b87907d6"),
    8: ("0x1.29a504cdfbc22p+3", 10, "ed514e5d3a1b6ece"),
    9: ("0x1.1d4e913ce58eap+3", 22, "6ba8cf92e7355470"),
    10: ("0x1.137122dc04188p+3", 23, "0f4a5af1336cb5b3"),
    11: ("0x1.0dd56a5d4d4cfp+3", 12, "64e2a7354c96d84b"),
    12: ("0x1.063893e64dd77p+3", 17, "403cf4fdd9349808"),
}


def _syngen_basket_matrix(config, path):
    generate(config, path)
    dataset = ingest_receipts(path / "receipts.csv", path / "categories.csv",
                              WINDOW)
    return basket_sm_features(
        dataset, dataset.category_ids, compute_q95(dataset), 1.0
    )


def _recorded_sweep(matrix, k_range, monkeypatch):
    """``select_k(matrix, k_range, seed=42)`` and, per k, the fit's
    float.hex(inertia), iterations_run and a sha256 prefix of the labels."""
    fits = {}

    def recording_fit(matrix, k, **kwargs):
        model, labels = kmeans_fit(matrix, k, **kwargs)
        digest = hashlib.sha256(labels.astype(np.int64).tobytes()).hexdigest()
        fits[k] = (float(model.inertia).hex(), model.iterations_run, digest[:16])
        return model, labels

    monkeypatch.setattr(validity, "kmeans_fit", recording_fit)
    sweep = validity.select_k(matrix, k_range, seed=42)
    assert [row["inertia"] for row in sweep.rows] == [
        float.fromhex(fits[k][0]) for k in range(k_range[0], k_range[1] + 1)
    ]
    return fits, sweep


def test_select_k_sweep_pinned_on_syngen_baskets(tmp_path, monkeypatch):
    matrix = _syngen_basket_matrix(default_config(n_customers=150, seed=1),
                                   tmp_path)
    assert matrix.X.shape == (1153, 9)
    fits, _ = _recorded_sweep(matrix, (2, 12), monkeypatch)
    assert fits == PINNED_SWEEP


# The same record for k=2..10 on the 200-customer, 48-category syngen set of
# seed 1, taken from the engine that worked out every row's distance to its
# own center in every Lloyd iteration. Dozens of categories is the paper's
# regime, and the one where the upper bound saves the most.
PINNED_SWEEP_48 = {
    2: ("0x1.1e76a6681b5f0p+9", 3, "c92e8d86286eb337"),
    3: ("0x1.9444dd8138546p+8", 3, "dce8222d8c0c34f1"),
    4: ("0x1.0275e8f1b6046p+8", 2, "e30db9fd8bf9df4b"),
    5: ("0x1.eee47a8d61fd5p+6", 3, "b2a7dbf7255bacc0"),
    6: ("0x1.2bb7c937984e9p+4", 2, "11133c6fdd343111"),
    7: ("0x1.e946daf24638cp+3", 3, "7db252bdeb9f86ef"),
    8: ("0x1.cece581cf5f95p+3", 8, "2aad4a4e4274f5c4"),
    9: ("0x1.c58d4e621c590p+3", 9, "b99dc271927b29ce"),
    10: ("0x1.c35fc6f77a947p+3", 27, "0129f9fdb8d57279"),
}


def test_select_k_sweep_pinned_at_48_categories(tmp_path, monkeypatch):
    config = default_config(n_customers=200, seed=1, n_categories=48)
    matrix = _syngen_basket_matrix(config, tmp_path)
    assert matrix.X.shape == (1664, 49)
    fits, sweep = _recorded_sweep(matrix, (2, 10), monkeypatch)
    assert fits == PINNED_SWEEP_48
    assert sweep.recommended_k == 6


def _counting(monkeypatch, counts, name):
    real = getattr(kmeans, name)

    def counted(*args):
        counts[name] += 1
        return real(*args)

    monkeypatch.setattr(kmeans, name, counted)


def test_full_own_distance_pass_runs_once_per_restart_and_repair(
        tmp_path, monkeypatch):
    # The upper bound stands in for the exact distances inside the loop:
    # the full pass runs once after each restart's iterations, and once
    # before each main-loop repair pass, never once per iteration.
    counts = dict.fromkeys(
        ["_own_distances", "_lloyd", "_reassign", "_repair_empty"], 0
    )
    for name in counts:
        _counting(monkeypatch, counts, name)
    matrix = _syngen_basket_matrix(default_config(n_customers=150, seed=1),
                                   tmp_path)
    validity.select_k(matrix, (2, 12), seed=42)
    assert counts == {"_own_distances": 110, "_lloyd": 110,
                      "_reassign": 1101, "_repair_empty": 0}
    # Two main-loop repair passes in the first iteration (see
    # test_main_loop_repeats_repair_until_no_cluster_is_empty).
    counts.update(dict.fromkeys(counts, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        engine_lloyd(np.array([[2.0], [3.0], [3.0]]),
                     np.array([[5.0], [-2.0]]), 300, 1e-6)
    assert counts == {"_own_distances": 3, "_lloyd": 1, "_reassign": 1,
                      "_repair_empty": 2}
    # The final repair reads the distances of the pass after the loop and
    # then those of ``_nearest`` (see test_final_repair_matches_oracle).
    counts.update(dict.fromkeys(counts, 0))
    engine_lloyd(np.array([[0.0, 4.0], [2.0, 4.0], [3.0, 1.0], [3.0, 2.0]]),
                 np.array([[5.0, 5.0], [1.0, 5.0], [0.0, 4.0]]), 1, 1e-6)
    assert counts == {"_own_distances": 1, "_lloyd": 1, "_reassign": 1,
                      "_repair_empty": 1}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    inputs=fit_inputs(),
    seed=st.integers(0, 10**6),
    n_init=st.integers(1, 3),
    max_iter=st.integers(1, 30),
)
def test_pruning_bounds_hold_after_every_iteration(inputs, seed, n_init,
                                                   max_iter):
    # After each reassignment, every row's upper bound plus the slack must
    # reach its exact distance to its own center, and its lower bound must
    # not pass its exact distance to the nearest other center by more than
    # the slack. The bounds are checked themselves, so a bound that drifts
    # the wrong way fails here even where the labels come out right.
    X, k = inputs
    reassign = kmeans._reassign
    iterations = []

    def checked_reassign(XT, centers, labels, upper, lower, slack, buf):
        reassign(XT, centers, labels, upper, lower, slack, buf)
        dist = np.sqrt(_oracle_squared_distances(XT.T, centers))
        rows = np.arange(len(labels))
        assert np.all(upper + slack >= dist[rows, labels])
        dist[rows, labels] = np.inf
        assert np.all(lower <= dist.min(axis=1) + slack)
        iterations.append(1)

    with mock.patch.object(kmeans, "_reassign", checked_reassign):
        model, _ = kmeans_fit(matrix_from(X), k, seed=seed,
                              max_iter=max_iter, n_init=n_init)
    assert len(iterations) >= n_init
    assert len(iterations) >= model.iterations_run


# --- The order in which every squared distance adds up. ---


def _pinned_sum_of_squares(row):
    """A row's sum of squares in Python floats, step for step as numpy's
    baseline x86-64 einsum kernel adds it: two lanes from 0.0, each block of
    eight adding ``x * x + lane`` for its pairs from last to first, then the
    tail pair by pair with a missing odd partner read as 0.0, then
    ``lane 0 + lane 1``."""
    d = len(row)
    full = d - d % 8
    lanes = [0.0, 0.0]
    for block in range(0, full, 8):
        for i in (6, 4, 2, 0):
            for lane in (0, 1):
                x = row[block + i + lane]
                lanes[lane] = x * x + lanes[lane]
    for start in range(full, d, 2):
        for lane in (0, 1):
            x = row[start + lane] if start + lane < d else 0.0
            lanes[lane] = x * x + lanes[lane]
    return lanes[0] + lanes[1]


def _rows_of_kind(kind, n, d, rng):
    if kind == "normal":
        return rng.normal(size=(n, d))
    if kind == "heavy-tailed":
        return rng.standard_cauchy(size=(n, d))
    if kind == "integer-grid":
        return rng.integers(-3, 4, size=(n, d)).astype(float)
    if kind == "zero":
        return np.zeros((n, d))
    if kind == "subnormal":
        # Squares from 2**-1100 to 2**-1000: subnormal, or lost to 0.
        return rng.normal(size=(n, d)) * 2.0 ** rng.integers(-550, -500, (n, d))
    # Near sqrt(float max): squares near the largest double, whose sums
    # overflow to inf.
    return rng.uniform(-1, 1, size=(n, d)) * np.sqrt(np.finfo(float).max)


@settings(max_examples=300, deadline=None)
@given(
    d=st.integers(1, 20),
    n=st.integers(1, 40),
    kind=st.sampled_from(["normal", "heavy-tailed", "integer-grid", "zero",
                          "subnormal", "near-sqrt-max"]),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_sum_squares_adds_in_the_pinned_order(d, n, kind, data_seed):
    # Bit for bit, the routine must equal the pinned order in Python floats
    # and the einsum the engine's recorded outputs came from. If only the
    # einsum comparison fails, this numpy build's einsum adds in another
    # order; the engine's outputs do not depend on it.
    X = _rows_of_kind(kind, n, d, np.random.default_rng(data_seed))
    with np.errstate(over="ignore", under="ignore"):
        pinned = np.array([_pinned_sum_of_squares(row) for row in X.tolist()])
        einsum = np.einsum("nd,nd->n", X, X)
        got = kmeans._sum_squares(X.T.copy())
        into = np.empty(n)
        assert kmeans._sum_squares(X.T.copy(), into) is into
    assert got.tobytes() == pinned.tobytes()
    assert into.tobytes() == pinned.tobytes()
    assert einsum.tobytes() == pinned.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(0, 40),
    d=st.integers(1, 6),
    k=st.integers(1, 8),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_cluster_means_match_masked_means(n, d, k, data_seed):
    # Labels drawn at random leave some clusters empty: their rows are 0,
    # where a masked mean would warn and give NaN.
    rng = np.random.default_rng(data_seed)
    X = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=d)
    labels = rng.integers(k, size=n)
    counts = np.bincount(labels, minlength=k)
    want = np.zeros((k, d))
    for j in np.flatnonzero(counts):
        want[j] = X[labels == j].mean(axis=0)
    for XT in (X.T, np.ascontiguousarray(X.T)):
        got = kmeans.cluster_means(XT, labels, counts)
        assert got.tobytes() == want.tobytes()


# tracemalloc's peak of ``kmeans_fit(k=6, seed=42)`` on the stage-1 basket
# matrix of the 2,000-customer syngen set of seed 1, the ``sm`` benchmark's
# shape, for the engine that subtracted one center at a time from the
# row-major matrix and summed each row with einsum.
ROW_MAJOR_FIT_PEAK = 4_295_237


def test_fit_memory_peak_on_a_2k_customer_basket_matrix(tmp_path):
    # Distances over the feature-major matrix carve every block from the
    # fit's scratch buffer, so the fit's traced peak must not grow. On the
    # seed-4711 set, almost every row goes stale in one iteration, so a
    # copy of the stale columns would break the cap there.
    for seed, shape in ((1, (15997, 9)), (4711, (15933, 9))):
        data = tmp_path / f"seed{seed}"
        generate(default_config(n_customers=2000, seed=seed), data)
        dataset = ingest_receipts(
            data / "receipts.csv", data / "categories.csv", WINDOW
        )
        matrix = basket_sm_features(
            dataset, dataset.category_ids, compute_q95(dataset), 1.0
        )
        assert matrix.X.shape == shape
        tracemalloc.start()
        try:
            kmeans_fit(matrix, 6, seed=42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ROW_MAJOR_FIT_PEAK + 64 * 1024, (seed, peak)
