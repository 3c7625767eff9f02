import itertools
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from shopmission import kmeans
from shopmission.features import FeatureMatrix
from shopmission.kmeans import ClusterModel, KMeansError, assign, kmeans_fit


def matrix_from(X, prefix="e"):
    X = np.asarray(X, dtype=float)
    ids = [f"{prefix}{i:03d}" for i in range(len(X))]
    return FeatureMatrix(ids=ids, X=X, schema=[f"f{j}" for j in range(X.shape[1])])


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
    model, assignment = kmeans_fit(matrix_from(X), k=1, seed=0)
    assert model.centers[0] == pytest.approx(X.mean(axis=0))
    assert model.inertia == pytest.approx(((X - X.mean(axis=0)) ** 2).sum())
    assert set(assignment.values()) == {0}


def test_two_blobs_match_exhaustive_partition_optimum():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X = np.vstack(
            [
                rng.normal(loc=0.0, scale=0.3, size=(6, 2)),
                rng.normal(loc=5.0, scale=0.3, size=(6, 2)),
            ]
        )
        model, assignment = kmeans_fit(matrix_from(X), k=2, seed=seed)
        assert model.inertia == pytest.approx(
            exhaustive_best_inertia(X), rel=1e-9
        )
        labels = list(assignment.values())
        assert len(set(labels[:6])) == 1 and len(set(labels[6:])) == 1
        assert labels[0] != labels[6]


def test_duplicate_rows_get_identical_assignments():
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [5.0, 5.0]])
    _, assignment = kmeans_fit(matrix_from(X), k=2, seed=3)
    assert assignment["e000"] == assignment["e001"]


def test_inertia_history_non_increasing():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(80, 4))
    model, _ = kmeans_fit(matrix_from(X), k=4, seed=12, n_init=1)
    hist = model.inertia_history
    for a, b in zip(hist, hist[1:]):
        assert b <= a * (1 + 1e-9)


def test_fixed_seed_bit_identical():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(50, 3))
    m1, a1 = kmeans_fit(matrix_from(X), k=3, seed=77)
    m2, a2 = kmeans_fit(matrix_from(X), k=3, seed=77)
    assert m1.centers.tobytes() == m2.centers.tobytes()
    assert m1.inertia == m2.inertia
    assert a1 == a2


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
    assert a1 == a2


def test_assign_reproduces_training_assignment():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(60, 3))
    matrix = matrix_from(X)
    model, assignment = kmeans_fit(matrix, k=4, seed=14)
    assert assign(model, matrix) == assignment


def test_assign_point_on_center():
    centers = np.array([[0.0, 0], [1, 0], [2, 0], [3, 0]])
    model = ClusterModel(4, centers, ["f0", "f1"], 0, 0.0, 0)
    matrix = FeatureMatrix(ids=["p"], X=np.array([[3.0, 0.0]]), schema=["f0", "f1"])
    assert assign(model, matrix) == {"p": 3}


def test_assign_tie_breaks_to_lowest_index():
    centers = np.array([[0.0], [2.0], [2.0], [0.0]])
    model = ClusterModel(4, centers, ["f0"], 0, 0.0, 0)
    matrix = FeatureMatrix(ids=["p"], X=np.array([[1.0]]), schema=["f0"])
    assert assign(model, matrix) == {"p": 0}


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
    result = assign(model, matrix)
    assert result["S1"] == 3  # C4 analog
    assert result["S2"] == 0  # C1 analog


def test_k_greater_than_distinct_rows_rejected():
    X = np.array([[1.0, 1.0]] * 5 + [[2.0, 2.0]] * 5)
    with pytest.raises(KMeansError, match="distinct"):
        kmeans_fit(matrix_from(X), k=3, seed=0)


def test_non_finite_rejected():
    X = np.array([[1.0], [np.nan]])
    with pytest.raises(KMeansError, match="non-finite"):
        kmeans_fit(matrix_from(X), k=1, seed=0)


def test_no_orphan_centers():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(30, 2))
    model, assignment = kmeans_fit(matrix_from(X), k=6, seed=3)
    assert set(assignment.values()) == set(range(6))
    assert model.inertia >= 0


def test_model_json_roundtrip_bit_exact():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(25, 3))
    model, _ = kmeans_fit(matrix_from(X), k=3, seed=8)
    restored = ClusterModel.from_json(model.to_json())
    assert restored.centers.tobytes() == model.centers.tobytes()
    assert restored.inertia == model.inertia
    assert restored.feature_schema == model.feature_schema
    assert restored.seed == model.seed


def test_restart_count_and_tol_validation():
    X = np.arange(10, dtype=float).reshape(-1, 1)
    with pytest.raises(KMeansError):
        kmeans_fit(matrix_from(X), k=2, seed=0, max_iter=0)
    with pytest.raises(KMeansError):
        kmeans_fit(matrix_from(X), k=2, seed=0, tol=0.0)


def test_fit_reports_convergence():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(60, 3))
    model, _ = kmeans_fit(matrix_from(X), k=4, seed=4)
    assert model.converged
    stopped, _ = kmeans_fit(matrix_from(X), k=4, seed=4, max_iter=1)
    assert not stopped.converged
    assert stopped.iterations_run == 1
    assert ClusterModel.from_json(stopped.to_json()).converged is False


def test_model_json_without_converged_field_loads():
    model, _ = kmeans_fit(matrix_from(np.eye(3)), k=2, seed=0)
    doc = json.loads(model.to_json())
    del doc["converged"]
    assert ClusterModel.from_json(json.dumps(doc)).converged is True


# --- Differential oracle: the plain Lloyd engine the pruned one replaced. ---
# Brute-force (n, k, d) distances, masked means and np.unique empty-cluster
# checks. The engine must match it bit for bit, restart by restart.
#
# The final repair loop of both engines can cycle forever: once two empty
# clusters are re-seeded on equal rows, one stays empty with a NaN mean that
# draws every row. The oracle gives up after a fixed number of passes, and
# the tests reject such draws before the engine sees them, so no draw can
# hang the suite.

_MAX_FINAL_REPAIRS = 100


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
        total = closest.sum()
        if total <= 0:
            centers[j] = X[rng.integers(n)]
            continue
        centers[j] = X[rng.choice(n, p=closest / total)]
    return centers


def _oracle_repair_empty(X, centers, labels, d2):
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


def _oracle_lloyd(X, centers, max_iter, tol):
    centers = centers.copy()
    history = []
    iterations = 0
    for _ in range(max_iter):
        d2 = _oracle_squared_distances(X, centers)
        labels = np.argmin(d2, axis=1)
        if len(np.unique(labels)) < centers.shape[0]:
            centers, labels = _oracle_repair_empty(X, centers, labels, d2)
            d2 = _oracle_squared_distances(X, centers)
            labels = np.argmin(d2, axis=1)
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
        if repairs > _MAX_FINAL_REPAIRS:
            raise _RepairCycle
        centers, labels = _oracle_repair_empty(X, centers, labels, d2)
        for j in range(centers.shape[0]):
            centers[j] = X[labels == j].mean(axis=0)
        d2 = _oracle_squared_distances(X, centers)
        labels = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(len(labels)), labels].sum())
    history.append(inertia)
    return centers, labels, inertia, iterations, history


def oracle_or_reject(X, centers, max_iter, tol):
    """The oracle's run, or a rejected draw if its final repair cycles."""
    try:
        return _oracle_lloyd(X, centers, max_iter, tol)
    except _RepairCycle:
        reject()


def assert_same_run(got, want):
    """Exact equality of (centers, labels, inertia, iterations, history)."""
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert np.float64(got[2]).tobytes() == np.float64(want[2]).tobytes()
    assert got[3] == want[3]
    # Compared as bytes so that equal NaN entries count as equal.
    assert np.array(got[4]).tobytes() == np.array(want[4]).tobytes()


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
        engine_init = kmeans._plusplus_init(X, k, np.random.default_rng(stream))
        assert engine_init.tobytes() == init.tobytes()
        want = oracle_or_reject(X, init, max_iter, tol)
        assert_same_run(kmeans._lloyd(X, init, max_iter, tol)[:5], want)
        if best is None or want[2] < best[2]:
            best = want

    matrix = matrix_from(X)
    model, assignment = kmeans_fit(
        matrix, k, seed=seed, max_iter=max_iter, tol=tol, n_init=n_init
    )
    labels = np.array([assignment[eid] for eid in matrix.ids])
    assert_same_run(
        (model.centers, labels, model.inertia, model.iterations_run,
         model.inertia_history),
        best,
    )
    assert assign(model, matrix) == assignment


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
    assert_same_run(kmeans._lloyd(X, init, max_iter, 1e-6)[:5], want)


def test_row_midway_between_centers_matches_oracle():
    # Row 5, [2, 3], starts on center 1. One update leaves it exactly half
    # the center gap from centers 0 and 1, so the bound cannot settle it:
    # the engine must recompute it and hand it to center 0, as argmin does.
    X = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 3.0], [1.0, 0.0],
                  [2.0, 0.0], [2.0, 3.0], [3.0, 3.0]])
    init = np.array([[3.0, 2.0], [2.0, 3.0], [1.0, 0.0]])
    got = kmeans._lloyd(X, init, 3, 1e-6)
    assert_same_run(got[:5], _oracle_lloyd(X, init, 3, 1e-6))
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
    got = kmeans._lloyd(X, init, 1, 1e-6)
    assert_same_run(got[:5], _oracle_lloyd(X, init, 1, 1e-6))
    assert sorted(set(got[1])) == [0, 1, 2]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_final_repair_cycle_raises():
    # Four centers on three distinct values: two centers always share the
    # rows of one value, so the final repair re-seeds an empty cluster
    # forever. It must give up after a bounded number of passes.
    X = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 5.0, 5.0])[:, None]
    init = np.array([[0.0], [1.0], [5.0], [2.0]])
    with pytest.raises(KMeansError, match="did not settle after 100 passes"):
        kmeans._lloyd(X, init, 300, 1e-6)
    with pytest.raises(_RepairCycle):
        _oracle_lloyd(X, init, 300, 1e-6)
