"""Seedable k-means with k-means++ initialization and restarts.

Deterministic given (matrix, k, seed): rows are sorted by entity id before
any sampling, restarts use seeds derived from the run seed, and all
reductions are single-threaded numpy.

Lloyd's iterations skip distance evaluations with triangle-inequality
bounds (Hamerly, "Making k-means even faster", SDM 2010). The pruning is
exact: a point skips its distance row only when its current center
provably wins by a margin larger than any rounding error, so centers,
labels, inertia and iteration counts are bit-identical to plain Lloyd
with lowest-index tie-breaking.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .features import FeatureMatrix


# Passes of the final empty-cluster repair in ``_lloyd`` before it gives up.
MAX_FINAL_REPAIRS = 100


class KMeansError(Exception):
    pass


@dataclass
class ClusterModel:
    k: int
    centers: np.ndarray  # shape (k, d)
    feature_schema: list
    seed: int
    inertia: float
    iterations_run: int
    inertia_history: list = field(default_factory=list)
    # False when the kept restart stopped at max_iter with shift >= tol.
    converged: bool = True

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "feature_schema": self.feature_schema,
            "seed": self.seed,
            "inertia": self.inertia,
            "iterations_run": self.iterations_run,
            "inertia_history": self.inertia_history,
            "converged": self.converged,
            "centers": [list(row) for row in self.centers],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, doc: dict) -> "ClusterModel":
        return cls(
            k=doc["k"],
            centers=np.array(doc["centers"], dtype=float),
            feature_schema=doc["feature_schema"],
            seed=doc["seed"],
            inertia=doc["inertia"],
            iterations_run=doc["iterations_run"],
            inertia_history=doc.get("inertia_history", []),
            # Files written before the field existed did not record it.
            converged=doc.get("converged", True),
        )

    @classmethod
    def from_json(cls, text: str) -> "ClusterModel":
        return cls.from_dict(json.loads(text))


def _squared_distances(X, centers):
    """(n, k) squared Euclidean distances, one center at a time."""
    d2 = np.empty((X.shape[0], centers.shape[0]))
    buf = np.empty(X.shape)
    for j, c in enumerate(centers):
        np.subtract(X, c, out=buf)
        np.einsum("nd,nd->n", buf, buf, out=d2[:, j])
    return d2


def _plusplus_init(X, k, rng):
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    closest = np.full(n, np.inf)
    for j in range(1, k):
        diff = X - centers[j - 1]
        d2 = np.einsum("nd,nd->n", diff, diff)
        np.minimum(closest, d2, out=closest)
        total = closest.sum()
        if total <= 0:
            centers[j] = X[rng.integers(n)]
            continue
        centers[j] = X[rng.choice(n, p=closest / total)]
    return centers


def _nearest(X, centers):
    """Nearest-center labels (lowest index on ties), their squared
    distances, and each row's distance to its runner-up center."""
    d2 = _squared_distances(X, centers)
    labels = np.argmin(d2, axis=1)
    rows = np.arange(len(labels))
    own = d2[rows, labels]
    d2[rows, labels] = np.inf
    return labels, own, np.sqrt(d2.min(axis=1))


def _reassign(X, centers, labels, lower, slack):
    """Move each row to its nearest center, in place; return the squared
    distances to the new labels.

    A row keeps its label without a distance row when its distance to that
    center, plus ``slack``, is below half the gap to the nearest other
    center or below ``lower``, its bound on the distance to every other
    center. NaN fails the test, so such rows are recomputed.
    """
    diff = X - centers[labels]
    own = np.einsum("nd,nd->n", diff, diff)
    gap = np.sqrt(((centers[:, None] - centers) ** 2).sum(axis=2))
    np.fill_diagonal(gap, np.inf)
    bound = np.maximum(gap.min(axis=1)[labels] / 2, lower)
    stale = np.flatnonzero(~(np.sqrt(own) + slack < bound))
    if stale.size:
        labels[stale], own[stale], lower[stale] = _nearest(X[stale], centers)
    return own


def _cluster_means(X, labels, counts):
    """Per-cluster means, bit-identical to ``X[labels == j].mean(axis=0)``."""
    k = len(counts)
    if X.shape[1] == 1:
        # numpy sums a lone column pairwise, where bincount sums row by row.
        return np.array([X[labels == j].mean(axis=0) for j in range(k)])
    sums = np.stack(
        [np.bincount(labels, weights=col, minlength=k) for col in X.T], axis=1
    )
    return sums / counts[:, None]


def _repair_empty(X, centers, labels, own):
    """Re-seed each empty cluster at the point farthest from its own center.

    ``own`` holds each row's squared distance to its center; it is consumed.
    """
    for j in range(centers.shape[0]):
        if np.any(labels == j):
            continue
        idx = int(np.argmax(own))
        centers[j] = X[idx]
        labels[idx] = j
        own[idx] = 0.0
    return centers, labels


def _lloyd(X, centers, max_iter, tol):
    centers = centers.copy()
    k = centers.shape[0]
    # Centers are rows or means of rows, so every distance is at most the
    # data's bounding-box diagonal, and the bounds gather a few ulps of it
    # per iteration. The slack stays above that error for some 10^5
    # iterations, so a row that skips its distance row has a strictly
    # nearest center: the label an argmin would give.
    slack = 1e-9 * np.sqrt(((X.max(axis=0) - X.min(axis=0)) ** 2).sum())
    labels, own, lower = _nearest(X, centers)
    history = []
    iterations = 0
    converged = False
    for _ in range(max_iter):
        if iterations:
            own = _reassign(X, centers, labels, lower, slack)
        counts = np.bincount(labels, minlength=k)
        if counts.min() == 0:
            centers, labels = _repair_empty(X, centers, labels, own)
            labels, own, lower = _nearest(X, centers)
            counts = np.bincount(labels, minlength=k)
        history.append(float(own.sum()))
        new_centers = _cluster_means(X, labels, counts)
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        lower -= shift
        iterations += 1
        if shift < tol:
            converged = True
            break
    own = _reassign(X, centers, labels, lower, slack)
    counts = np.bincount(labels, minlength=k)
    # Final assignment may orphan a center; repair keeps k as requested.
    # Re-seeding two empty clusters on equal rows can cycle, so give up
    # after a fixed number of passes.
    passes = 0
    while counts.min() == 0:
        passes += 1
        if passes > MAX_FINAL_REPAIRS:
            raise KMeansError(
                f"empty-cluster repair did not settle after "
                f"{MAX_FINAL_REPAIRS} passes (k={k})"
            )
        centers, labels = _repair_empty(X, centers, labels, own)
        centers = _cluster_means(X, labels, np.bincount(labels, minlength=k))
        labels, own, lower = _nearest(X, centers)
        counts = np.bincount(labels, minlength=k)
    inertia = float(own.sum())
    history.append(inertia)
    return centers, labels, inertia, iterations, history, converged


def kmeans_fit(
    matrix: FeatureMatrix,
    k: int,
    seed: int,
    max_iter: int = 300,
    tol: float = 1e-6,
    n_init: int = 10,
):
    """Fit k-means; returns (ClusterModel, assignment dict entity_id -> cluster)."""
    X = matrix.X
    if not np.all(np.isfinite(X)):
        raise KMeansError("feature matrix contains non-finite values")
    if k < 1:
        raise KMeansError(f"k must be >= 1, got {k}")
    if max_iter < 1 or tol <= 0:
        raise KMeansError("max_iter must be >= 1 and tol > 0")
    if k > matrix.n_distinct:
        raise KMeansError(
            f"k={k} exceeds number of distinct rows ({matrix.n_distinct})"
        )

    best = None
    for restart in range(n_init):
        rng = np.random.default_rng((seed, restart))
        init = _plusplus_init(X, k, rng)
        fit = _lloyd(X, init, max_iter, tol)
        if best is None or fit[2] < best[2]:
            best = fit

    centers, labels, inertia, iterations, history, converged = best
    model = ClusterModel(
        k=k,
        centers=centers,
        feature_schema=list(matrix.schema),
        seed=seed,
        inertia=inertia,
        iterations_run=iterations,
        inertia_history=history,
        converged=converged,
    )
    assignment = {eid: int(c) for eid, c in zip(matrix.ids, labels)}
    return model, assignment


def assign(model: ClusterModel, matrix: FeatureMatrix) -> dict:
    """Nearest-center assignment; ties broken by lowest cluster index."""
    if list(matrix.schema) != list(model.feature_schema):
        raise KMeansError(
            f"schema mismatch: model {model.feature_schema} vs "
            f"matrix {matrix.schema}"
        )
    if not np.all(np.isfinite(matrix.X)):
        raise KMeansError("feature matrix contains non-finite values")
    labels = np.argmin(_squared_distances(matrix.X, model.centers), axis=1)
    return {eid: int(c) for eid, c in zip(matrix.ids, labels)}
