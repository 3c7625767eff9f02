"""Cluster-count selection metrics and cross-segmentation comparison.

The metrics take one cluster label per row of a ``FeatureMatrix``; purity
and crosstab take entity id -> label mappings, as read from files.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .features import FeatureMatrix
from .kmeans import kmeans_fit


class ValidityError(Exception):
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
    total_ss = float(((X - X.mean(axis=0)) ** 2).sum())
    if total_ss == 0.0:
        warnings.warn(
            "total sum of squares is zero; between-variance ratio undefined, "
            "returning 0.0"
        )
        return 0.0
    within_ss = 0.0
    for j in np.flatnonzero(np.bincount(labels)):
        pts = X[labels == j]
        within_ss += float(((pts - pts.mean(axis=0)) ** 2).sum())
    return 1.0 - within_ss / total_ss


def davies_bouldin(matrix: FeatureMatrix, labels) -> float:
    """Davies-Bouldin index with mean distance-to-center dispersion."""
    X = matrix.X
    labels = _check_labels(matrix, labels)
    clusters = np.flatnonzero(np.bincount(labels))
    k = len(clusters)
    if k < 2:
        raise ValidityError(f"Davies-Bouldin needs k >= 2, got {k}")
    centers = np.array([X[labels == j].mean(axis=0) for j in clusters])
    dispersion = np.array(
        [
            np.sqrt(((X[labels == j] - centers[i]) ** 2).sum(axis=1)).mean()
            for i, j in enumerate(clusters)
        ]
    )
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


@dataclass
class KSweepRow:
    k: int
    inertia: float
    between_variance_ratio: float
    davies_bouldin: float
    converged: bool


@dataclass
class KSweepResult:
    rows: list  # list of KSweepRow, ascending k
    recommended_k: int | None
    policy: str

    def to_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(
                ["k", "inertia", "between_variance_ratio", "davies_bouldin"]
            )
            for row in self.rows:
                writer.writerow(
                    [
                        row.k,
                        repr(row.inertia),
                        repr(row.between_variance_ratio),
                        repr(row.davies_bouldin),
                    ]
                )


def _elbow_k(rows) -> int:
    """k whose variance-ratio point is farthest below the chord of the curve."""
    if len(rows) == 1:
        return rows[0].k
    ks = np.array([r.k for r in rows], dtype=float)
    vs = np.array([r.between_variance_ratio for r in rows])
    chord = vs[0] + (vs[-1] - vs[0]) * (ks - ks[0]) / (ks[-1] - ks[0])
    return rows[int(np.argmax(vs - chord))].k


def select_k(
    matrix: FeatureMatrix,
    k_range,
    seed: int,
    policy: str = "db_min",
    **fit_kwargs,
) -> KSweepResult:
    """Sweep k over a range, computing the selection metrics per fit.

    The recommendation is advisory (the sweep table is always emitted so a
    human can overrule it); ``policy`` is one of db_min, variance_elbow,
    report_only.
    """
    k_min, k_max = k_range
    if k_min < 2 or k_max >= len(matrix.ids):
        raise ValidityError(
            f"k range [{k_min}, {k_max}] must lie within [2, rows-1]"
        )
    rows = []
    for k in range(k_min, k_max + 1):
        model, labels = kmeans_fit(matrix, k, seed=seed + k, **fit_kwargs)
        rows.append(
            KSweepRow(
                k=k,
                inertia=model.inertia,
                between_variance_ratio=between_variance_ratio(matrix, labels),
                davies_bouldin=davies_bouldin(matrix, labels),
                converged=model.converged,
            )
        )
    if policy == "db_min":
        recommended = min(rows, key=lambda r: (r.davies_bouldin, r.k)).k
    elif policy == "variance_elbow":
        recommended = _elbow_k(rows)
    elif policy == "report_only":
        recommended = None
    else:
        raise ValidityError(f"unknown policy {policy!r}")
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


def _contingency(assignment_i: dict, assignment_ii: dict):
    rows = sorted(set(assignment_i.values()))
    cols = sorted(set(assignment_ii.values()))
    row_idx = {c: i for i, c in enumerate(rows)}
    col_idx = {c: i for i, c in enumerate(cols)}
    counts = np.zeros((len(rows), len(cols)))
    for eid, ci in assignment_i.items():
        counts[row_idx[ci], col_idx[assignment_ii[eid]]] += 1
    return rows, cols, counts


def purity(assignment_i: dict, assignment_ii: dict) -> float:
    """How well clusters of I are contained in single clusters of II.

    (1/n) sum over I-clusters of the largest overlap with any II-cluster.
    Not symmetric.
    """
    _check_same_entities(assignment_i, assignment_ii)
    _, _, counts = _contingency(assignment_i, assignment_ii)
    return float(counts.max(axis=1).sum() / counts.sum())


@dataclass
class CrosstabMatrix:
    row_labels: list
    col_labels: list
    values: np.ndarray  # row-normalized shares

    def to_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow([""] + [str(c) for c in self.col_labels])
            for label, row in zip(self.row_labels, self.values.tolist()):
                writer.writerow([str(label)] + [repr(v) for v in row])

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
    _check_same_entities(assignment_i, assignment_ii)
    rows, cols, counts = _contingency(assignment_i, assignment_ii)
    return CrosstabMatrix(
        row_labels=rows,
        col_labels=cols,
        values=counts / counts.sum(axis=1, keepdims=True),
    )
