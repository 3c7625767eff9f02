"""Seedable k-means with k-means++ initialization and restarts.

Deterministic given (matrix, k, seed): ``FeatureMatrix`` rows are in
strictly increasing id order (checked when the matrix is built), restarts
use seeds derived from the run seed, and all reductions are single-threaded
numpy. Labels are integer arrays aligned with ``matrix.ids``.

Lloyd's iterations skip distance evaluations with triangle-inequality
bounds (Hamerly, "Making k-means even faster", SDM 2010). The pruning is
exact: a point skips its distance row only when its current center
provably wins by a margin larger than any rounding error, so centers,
labels, inertia and iteration counts are bit-identical to plain Lloyd
with lowest-index tie-breaking.

A fit makes ``X.T`` contiguous once, for the ``bincount`` means, and its
restarts share one (n, d) scratch buffer for every distance row, so an
iteration writes its own distances in place instead of allocating. The
k-means++ draws search the cdf that ``rng.choice(n, p=...)`` builds, on the
same ``rng.random()`` double, so the seeding keeps ``rng.choice``'s draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .features import FeatureMatrix


# Passes of each empty-cluster repair loop in ``_lloyd`` (the main loop's
# and the final one) before it gives up.
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

    @classmethod
    def from_dict(cls, doc: dict) -> "ClusterModel":
        centers = np.array(doc["centers"], dtype=float)
        if centers.shape != (doc["k"], len(doc["feature_schema"])):
            raise KMeansError(
                f"centers of shape {centers.shape} do not match k={doc['k']} "
                f"and {len(doc['feature_schema'])} features"
            )
        return cls(
            k=doc["k"],
            centers=centers,
            feature_schema=doc["feature_schema"],
            seed=doc["seed"],
            inertia=doc["inertia"],
            iterations_run=doc["iterations_run"],
            inertia_history=doc.get("inertia_history", []),
            # Files written before the field existed did not record it.
            converged=doc.get("converged", True),
        )


def _squared_distances(X, centers, buf):
    """(k, n) squared Euclidean distances, one center at a time; ``buf`` is
    (n, d) scratch."""
    d2 = np.empty((centers.shape[0], X.shape[0]))
    for j, c in enumerate(centers):
        np.subtract(X, c, out=buf)
        np.einsum("nd,nd->n", buf, buf, out=d2[j])
    return d2


def _plusplus_init(X, k, rng, buf):
    """k-means++ seeding; ``buf`` is (n, d) scratch.

    Each draw searches the cdf of ``closest / total`` exactly as
    ``rng.choice(n, p=closest / total)`` builds and searches it, on the same
    ``rng.random()`` double, so every pick is the one ``rng.choice`` makes.
    """
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    closest = np.full(n, np.inf)
    d2 = np.empty(n)
    cdf = np.empty(n)
    for j in range(1, k):
        np.subtract(X, centers[j - 1], out=buf)
        np.einsum("nd,nd->n", buf, buf, out=d2)
        np.minimum(closest, d2, out=closest)
        total = closest.sum()
        if total <= 0:
            centers[j] = X[rng.integers(n)]
            continue
        np.divide(closest, total, out=cdf)
        np.cumsum(cdf, out=cdf)
        cdf /= cdf[-1]
        centers[j] = X[cdf.searchsorted(rng.random(), side="right")]
    return centers


def _nearest(X, centers, buf):
    """Nearest-center labels (lowest index on ties), their squared
    distances, and each row's distance to its runner-up center."""
    d2 = _squared_distances(X, centers, buf)
    labels = np.argmin(d2, axis=0)
    own = d2.min(axis=0)
    d2[labels, np.arange(len(labels))] = np.inf
    return labels, own, np.sqrt(d2.min(axis=0))


def _reassign(X, centers, labels, lower, slack, buf, own):
    """Move each row to its nearest center, in place, and write the squared
    distances to the new labels into ``own``; ``buf`` is (n, d) scratch.

    A row keeps its label without a distance row when its distance to that
    center, plus ``slack``, is below half the gap to the nearest other
    center or below ``lower``, its bound on the distance to every other
    center. NaN fails the test, so such rows are recomputed.
    """
    # Labels are always in range; mode="raise" would copy ``buf`` first.
    np.take(centers, labels, axis=0, out=buf, mode="clip")
    np.subtract(X, buf, out=buf)
    np.einsum("nd,nd->n", buf, buf, out=own)
    gap = np.sqrt(((centers[:, None] - centers) ** 2).sum(axis=2))
    np.fill_diagonal(gap, np.inf)
    bound = np.take(gap.min(axis=1) / 2, labels)
    np.maximum(bound, lower, out=bound)
    dist = np.sqrt(own)
    dist += slack
    stale = np.flatnonzero(~(dist < bound))
    if stale.size:
        labels[stale], own[stale], lower[stale] = _nearest(
            X[stale], centers, buf[: stale.size]
        )


def _cluster_means(X, XT, labels, counts):
    """Per-cluster means, bit-identical to ``X[labels == j].mean(axis=0)``;
    ``XT`` is ``X.T`` made contiguous."""
    k = len(counts)
    if X.shape[1] == 1:
        # numpy sums a lone column pairwise, where bincount sums row by row.
        return np.array([X[labels == j].mean(axis=0) for j in range(k)])
    means = np.empty((k, X.shape[1]))
    for col, row in enumerate(XT):
        means[:, col] = np.bincount(labels, weights=row, minlength=k)
    means /= counts[:, None]
    return means


def _repair_empty(X, centers, labels, own):
    """Re-seed each empty cluster at the point farthest from its own center.

    Two empty clusters never take rows with equal coordinates: the nearer
    index would win every such row and leave the other empty again.
    ``own`` holds each row's squared distance to its center; it is consumed.
    """
    for j in range(centers.shape[0]):
        if np.any(labels == j):
            continue
        idx = int(np.argmax(own))
        if own[idx] == -np.inf:
            raise KMeansError(
                f"cannot re-seed empty cluster {j}: every distinct row "
                f"already seeds one"
            )
        centers[j] = X[idx]
        labels[idx] = j
        own[(X == X[idx]).all(axis=1)] = -np.inf
    return centers, labels


def _count_repair(passes, k):
    """One more pass of a repair loop; raises once it exceeds the limit."""
    if passes >= MAX_FINAL_REPAIRS:
        raise KMeansError(
            f"empty-cluster repair did not settle after "
            f"{MAX_FINAL_REPAIRS} passes (k={k})"
        )
    return passes + 1


def _lloyd(X, XT, centers, max_iter, tol, buf):
    """Lloyd's iterations from ``centers``; ``XT`` is ``X.T`` made
    contiguous and ``buf`` is (n, d) scratch, both shared by the restarts of
    a fit."""
    centers = centers.copy()
    k = centers.shape[0]
    # Centers are rows or means of rows, so every distance is at most the
    # data's bounding-box diagonal, and the bounds gather a few ulps of it
    # per iteration. The slack stays above that error for some 10^5
    # iterations, so a row that skips its distance row has a strictly
    # nearest center: the label an argmin would give.
    slack = 1e-9 * np.sqrt(((XT.max(axis=1) - XT.min(axis=1)) ** 2).sum())
    labels, own, lower = _nearest(X, centers, buf)
    history = []
    iterations = 0
    converged = False
    for _ in range(max_iter):
        if iterations:
            _reassign(X, centers, labels, lower, slack, buf, own)
        counts = np.bincount(labels, minlength=k)
        # A re-seeded center can take every row of a cluster whose center
        # has not moved yet, so repair until no cluster is empty.
        passes = 0
        while counts.min() == 0:
            passes = _count_repair(passes, k)
            centers, labels = _repair_empty(X, centers, labels, own)
            labels, own, lower = _nearest(X, centers, buf)
            counts = np.bincount(labels, minlength=k)
        history.append(float(own.sum()))
        new_centers = _cluster_means(X, XT, labels, counts)
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        lower -= shift
        iterations += 1
        if shift < tol:
            converged = True
            break
    _reassign(X, centers, labels, lower, slack, buf, own)
    counts = np.bincount(labels, minlength=k)
    # Final assignment may orphan a center; repair keeps k as requested.
    # With more centers than distinct rows, which only custom inits allow,
    # the repair can cycle, so give up after a fixed number of passes.
    passes = 0
    while counts.min() == 0:
        passes = _count_repair(passes, k)
        centers, labels = _repair_empty(X, centers, labels, own)
        centers = _cluster_means(
            X, XT, labels, np.bincount(labels, minlength=k)
        )
        labels, own, lower = _nearest(X, centers, buf)
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
    """Fit k-means; returns (ClusterModel, labels aligned with matrix.ids)."""
    X = matrix.X
    if not np.all(np.isfinite(X)):
        raise KMeansError("feature matrix contains non-finite values")
    if k < 1:
        raise KMeansError(f"k must be >= 1, got {k}")
    if max_iter < 1 or not tol > 0:
        raise KMeansError("max_iter must be >= 1 and tol > 0")
    if n_init < 1:
        raise KMeansError(f"n_init must be >= 1, got {n_init}")
    if seed < 0:
        raise KMeansError(f"seed must be >= 0, got {seed}")
    if k > matrix.n_distinct:
        raise KMeansError(
            f"k={k} exceeds number of distinct rows ({matrix.n_distinct})"
        )
    # Every squared distance between rows is at most the squared
    # bounding-box diagonal, so the seeding total and the inertia are at most
    # n times it; an overflow there would corrupt the k-means++ draws.
    with np.errstate(over="ignore"):
        diagonal2 = (np.ptp(X, axis=0) ** 2).sum()
    if not np.isfinite(len(X) * diagonal2):
        raise KMeansError(
            "feature values span too wide a range: squared distances "
            "overflow float64"
        )

    XT = np.ascontiguousarray(X.T)
    buf = np.empty(X.shape)
    best = None
    for restart in range(n_init):
        rng = np.random.default_rng((seed, restart))
        init = _plusplus_init(X, k, rng, buf)
        fit = _lloyd(X, XT, init, max_iter, tol, buf)
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
    return model, labels


def assign(model: ClusterModel, matrix: FeatureMatrix) -> np.ndarray:
    """Nearest-center labels aligned with ``matrix.ids``; ties go to the
    lowest cluster index."""
    if list(matrix.schema) != list(model.feature_schema):
        raise KMeansError(
            f"schema mismatch: model {model.feature_schema} vs "
            f"matrix {matrix.schema}"
        )
    if not np.all(np.isfinite(matrix.X)):
        raise KMeansError("feature matrix contains non-finite values")
    d2 = _squared_distances(matrix.X, model.centers, np.empty(matrix.X.shape))
    return np.argmin(d2, axis=0)
