"""Cluster-count selection metrics and cross-segmentation comparison.

The metrics take one cluster label per row of a ``FeatureMatrix``; purity
and crosstab take entity id -> label mappings, as read from files.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import ShopmissionError, number, number_list
from .features import FeatureMatrix
from .kmeans import kmeans_fit
from .txmodel import write_csv


class ValidityError(ShopmissionError):
    pass


def _check_labels(matrix: FeatureMatrix, labels) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.shape != (len(matrix.ids),):
        raise ValidityError(
            f"expected one label per row ({len(matrix.ids)}), got {labels.shape}"
        )
    return labels


def between_variance_ratio(matrix: FeatureMatrix, labels) -> float:
    """1 - within-cluster SS / total SS, both about group / global means."""
    X = matrix.X
    labels = _check_labels(matrix, labels)
    dev = X - X.mean(axis=0)
    total_ss = float(np.square(dev, out=dev).sum())
    del dev
    if total_ss == 0.0:
        warnings.warn(
            "total sum of squares is zero; between-variance ratio undefined, "
            "returning 0.0"
        )
        return 0.0
    within_ss = 0.0
    for j in np.flatnonzero(np.bincount(labels)):
        pts = X[labels == j]
        pts -= pts.mean(axis=0)
        within_ss += float(np.square(pts, out=pts).sum())
    return 1.0 - within_ss / total_ss


def davies_bouldin(matrix: FeatureMatrix, labels) -> float:
    """Davies-Bouldin index with mean distance-to-center dispersion."""
    X = matrix.X
    labels = _check_labels(matrix, labels)
    clusters = np.flatnonzero(np.bincount(labels))
    k = len(clusters)
    if k < 2:
        raise ValidityError(f"Davies-Bouldin needs k >= 2, got {k}")
    centers, dispersion = np.empty((k, X.shape[1])), np.empty(k)
    for i, j in enumerate(clusters):
        pts = X[labels == j]
        centers[i] = pts.mean(axis=0)
        pts -= centers[i]
        dispersion[i] = np.sqrt(np.square(pts, out=pts).sum(axis=1)).mean()
    gap = np.sqrt(((centers[:, None] - centers) ** 2).sum(axis=2))
    np.fill_diagonal(gap, np.inf)
    if not gap.all():
        i, j = np.argwhere(gap == 0)[0]
        raise ValidityError(
            f"clusters {clusters[i]} and {clusters[j]} have coincident centers"
        )
    worst = ((dispersion[:, None] + dispersion) / gap).max(axis=1)
    # Summed left to right: np.sum adds pairwise, which can change the last
    # bit of the index that select-k's db_min compares.
    return float(np.cumsum(worst)[-1] / k)


def fit_summary(matrix: FeatureMatrix, model, labels, name) -> dict:
    """What a segmentation's ``*_metrics.json`` and a ``select_k`` sweep row
    hold of one fit: k, inertia, seed, whether it converged and, for
    k >= 2, the between-variance ratio and Davies-Bouldin index. Warns,
    naming the fit ``name``, when it stopped at max_iter."""
    summary = {
        "k": model.k,
        "inertia": model.inertia,
        "seed": model.seed,
        "converged": model.converged,
    }
    if model.k >= 2:
        summary["between_variance_ratio"] = between_variance_ratio(
            matrix, labels
        )
        summary["davies_bouldin"] = davies_bouldin(matrix, labels)
    if not model.converged:
        warnings.warn(
            f"{name} k-means fit stopped at max_iter before converging"
        )
    return summary


SWEEP_COLUMNS = ["k", "inertia", "between_variance_ratio", "davies_bouldin"]
POLICIES = ("db_min", "variance_elbow", "report_only")


@dataclass
class KSweepResult:
    rows: list  # fit_summary of each fit, ascending k
    recommended_k: int | None
    policy: str

    def to_csv(self, path):
        rows = ([row[c] for c in SWEEP_COLUMNS] for row in self.rows)
        write_csv(path, SWEEP_COLUMNS, rows)


def _elbow_k(rows) -> int:
    """k whose variance-ratio point is farthest below the chord of the curve."""
    if len(rows) == 1:
        return rows[0]["k"]
    ks = np.array([r["k"] for r in rows], dtype=float)
    vs = np.array([r["between_variance_ratio"] for r in rows])
    chord = vs[0] + (vs[-1] - vs[0]) * (ks - ks[0]) / (ks[-1] - ks[0])
    return rows[int(np.argmax(vs - chord))]["k"]


def select_k(
    matrix: FeatureMatrix,
    k_range,
    seed: int,
    policy: str = "db_min",
    **fit_kwargs,
) -> KSweepResult:
    """Sweep k over a range, summarizing each fit with ``fit_summary``.

    The recommendation is advisory (the sweep table is always emitted so a
    human can overrule it); ``policy`` is one of ``POLICIES``.
    """
    seed = number("seed", seed, ValidityError)
    if policy not in POLICIES:
        raise ValidityError(f"unknown policy {policy!r}")
    k_min, k_max = number_list(("k", "k"), k_range, ValidityError, "k_range")
    if not 2 <= k_min <= k_max < len(matrix.ids):
        raise ValidityError(
            f"k range [{k_min}, {k_max}] must be non-empty and lie within "
            f"[2, rows-1]"
        )
    rows = []
    for k in range(k_min, k_max + 1):
        model, labels = kmeans_fit(matrix, k, seed=seed + k, **fit_kwargs)
        rows.append(fit_summary(matrix, model, labels, f"k={k}"))
    if policy == "db_min":
        recommended = min(rows, key=itemgetter("davies_bouldin", "k"))["k"]
    elif policy == "variance_elbow":
        recommended = _elbow_k(rows)
    else:
        recommended = None
    return KSweepResult(rows=rows, recommended_k=recommended, policy=policy)


def _check_same_entities(assignment_i: dict, assignment_ii: dict):
    if assignment_i.keys() != assignment_ii.keys():
        only_i = len(assignment_i.keys() - assignment_ii.keys())
        only_ii = len(assignment_ii.keys() - assignment_i.keys())
        raise ValidityError(
            f"assignments cover different entity sets "
            f"({only_i} only in first, {only_ii} only in second)"
        )
    if not assignment_i:
        raise ValidityError("assignments are empty")


def _label_order(labels) -> list:
    """The distinct labels, by value when every one is a decimal integer (so
    cluster 2 comes before 10), else as text."""
    labels = set(labels)
    if all(str(label).isdecimal() for label in labels):
        return sorted(labels, key=lambda label: (int(label), label))
    return sorted(labels)


def _contingency(assignment_i: dict, assignment_ii: dict):
    _check_same_entities(assignment_i, assignment_ii)
    rows = _label_order(assignment_i.values())
    cols = _label_order(assignment_ii.values())
    row_idx = {c: i * len(cols) for i, c in enumerate(rows)}  # row * n_cols
    col_idx = {c: i for i, c in enumerate(cols)}
    cells = [row_idx[ci] + col_idx[assignment_ii[eid]]
             for eid, ci in assignment_i.items()]
    counts = np.bincount(cells, minlength=len(rows) * len(cols))
    return rows, cols, counts.reshape(len(rows), len(cols))


def purity(assignment_i: dict, assignment_ii: dict) -> float:
    """How well clusters of I are contained in single clusters of II.

    (1/n) sum over I-clusters of the largest overlap with any II-cluster.
    Not symmetric.
    """
    _, _, counts = _contingency(assignment_i, assignment_ii)
    return float(counts.max(axis=1).sum() / counts.sum())


@dataclass
class CrosstabMatrix:
    row_labels: list
    col_labels: list
    values: np.ndarray  # row-normalized shares

    def to_csv(self, path):
        rows = zip(self.row_labels, self.values.tolist())
        header = [""] + [str(c) for c in self.col_labels]
        write_csv(path, header, ([str(label)] + row for label, row in rows))

    def to_json_payload(self) -> str:
        return json.dumps(
            {
                "row_labels": [str(r) for r in self.row_labels],
                "col_labels": [str(c) for c in self.col_labels],
                "values": [list(row) for row in self.values],
            }
        )


def crosstab(assignment_i: dict, assignment_ii: dict) -> CrosstabMatrix:
    """Row-normalized contingency matrix: how I-clusters split over II."""
    rows, cols, counts = _contingency(assignment_i, assignment_ii)
    return CrosstabMatrix(
        row_labels=rows,
        col_labels=cols,
        values=counts / counts.sum(axis=1, keepdims=True),
    )
