"""End-to-end segmentation pipelines: RFM, PPS and the two-stage SM method."""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import features as feat
from .features import FeatureMatrix, QuantileSpec
from .kmeans import ClusterModel, assign, kmeans_fit
from .txmodel import Dataset, ValidationError
from .validity import between_variance_ratio, davies_bouldin

STAGE2_SEED_OFFSET = 7919
DEFAULT_DOMINANCE_THRESHOLD = 0.30


class PipelineError(Exception):
    pass


def write_assignment_csv(path, ids, labels):
    """``entity_id,cluster`` rows in ``ids`` order (sorted by id)."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["entity_id", "cluster"])
        writer.writerows(zip(ids, np.asarray(labels).tolist()))


@dataclass
class SegmentationReport:
    ids: list  # entity ids, sorted
    labels: np.ndarray  # cluster index of each id
    centers: np.ndarray  # clusters x features
    feature_schema: list
    cluster_labels: list  # human-readable names, len = n clusters
    metrics: dict

    @property
    def shares(self) -> np.ndarray:
        """Fraction of entities in each cluster."""
        counts = np.bincount(self.labels, minlength=len(self.centers))
        return counts / len(self.labels)

    def write(self, out_dir, prefix):
        out_dir.mkdir(parents=True, exist_ok=True)
        write_assignment_csv(
            out_dir / f"{prefix}_assignments.csv", self.ids, self.labels
        )
        with open(out_dir / f"{prefix}_shares.csv", "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["cluster", "label", "share"])
            for c, share in enumerate(self.shares.tolist()):
                writer.writerow([c, self.cluster_labels[c], repr(share)])
        with open(out_dir / f"{prefix}_centers.csv", "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["cluster", "label"] + list(self.feature_schema))
            for c, row in enumerate(self.centers.tolist()):
                writer.writerow(
                    [c, self.cluster_labels[c]] + [repr(v) for v in row]
                )
        with open(out_dir / f"{prefix}_metrics.json", "w") as f:
            json.dump(self.metrics, f, indent=2)


def label_clusters(
    centers, feature_names, threshold=DEFAULT_DOMINANCE_THRESHOLD
) -> list:
    """Name each cluster after its dominant feature, or "General" if none
    exceeds the dominance threshold."""
    labels = []
    for row in centers:
        top = int(np.argmax(row))
        if row[top] > threshold:
            labels.append(f"Specialized -- {feature_names[top]}")
        else:
            labels.append("General")
    return labels


def _report_from_fit(
    matrix, model, labels, ratio_features: bool, dominance_threshold
) -> SegmentationReport:
    metrics = {
        "k": model.k,
        "inertia": model.inertia,
        "seed": model.seed,
        "converged": model.converged,
    }
    if model.k >= 2:
        metrics["between_variance_ratio"] = between_variance_ratio(
            matrix, labels
        )
        metrics["davies_bouldin"] = davies_bouldin(matrix, labels)
    if ratio_features:
        names = label_clusters(
            model.centers, matrix.schema, dominance_threshold
        )
    else:
        names = [f"C{c + 1:02d}" for c in range(model.k)]
    return SegmentationReport(
        ids=matrix.ids,
        labels=labels,
        centers=model.centers,
        feature_schema=list(matrix.schema),
        cluster_labels=names,
        metrics=metrics,
    )


def _zscore(matrix: FeatureMatrix) -> FeatureMatrix:
    std = matrix.X.std(axis=0)
    std[std == 0] = 1.0
    return FeatureMatrix(
        ids=matrix.ids,
        X=(matrix.X - matrix.X.mean(axis=0)) / std,
        schema=matrix.schema,
    )


def load_expert_bounds(path) -> dict:
    """Expert RFM bin edges: a JSON object of lists of finite numbers,
    {"recency_days": [...], ...}, strictly increasing per dimension."""
    with open(path, "rb") as f:
        try:
            # Numbers become floats, as binning uses them; huge ints -> inf.
            bounds = json.load(f, parse_int=float)
        except ValueError as exc:  # bad JSON or invalid UTF-8
            raise PipelineError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(bounds, dict):
        raise PipelineError(f"{path}: expected a JSON object of edge lists")
    for dim, edges in bounds.items():
        if dim not in feat.RFM_SCHEMA:
            raise PipelineError(
                f"unknown RFM dimension {dim!r}, expected one of {feat.RFM_SCHEMA}"
            )
        if not isinstance(edges, list) or not all(
            isinstance(e, float) and math.isfinite(e) for e in edges
        ):
            raise PipelineError(
                f"bin edges for {dim!r} must be a list of finite numbers, "
                f"got {edges!r}"
            )
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise PipelineError(
                f"bin edges for {dim} are not strictly increasing: {edges}"
            )
    return bounds


def run_rfm(
    dataset: Dataset,
    k: int | None = None,
    seed: int = 0,
    mode: str = "kmeans",
    bounds: dict | None = None,
    standardize: bool = True,
    **fit_kwargs,
) -> SegmentationReport:
    """RFM segmentation: k-means on (recency, frequency, monetary) vectors,
    or expert threshold binning."""
    matrix = feat.rfm_features(dataset)
    if mode == "kmeans":
        if k is None:
            raise PipelineError("kmeans mode requires k")
        fit_matrix = _zscore(matrix) if standardize else matrix
        model, labels = kmeans_fit(fit_matrix, k, seed=seed, **fit_kwargs)
        report = _report_from_fit(
            fit_matrix, model, labels, False, DEFAULT_DOMINANCE_THRESHOLD
        )
        # Report centers in raw feature units for interpretability.
        report.centers = np.array(
            [matrix.X[labels == c].mean(axis=0) for c in range(k)]
        )
        return report
    if mode == "expert":
        if bounds is None:
            raise PipelineError("expert mode requires a bounds file")
        return _run_rfm_expert(matrix, bounds)
    raise PipelineError(f"unknown RFM mode {mode!r}")


def _run_rfm_expert(matrix: FeatureMatrix, bounds: dict) -> SegmentationReport:
    edges = [np.asarray(bounds.get(d, []), dtype=float) for d in matrix.schema]
    n_bins = [len(e) + 1 for e in edges]
    bins = np.stack(
        [np.digitize(matrix.X[:, i], edges[i]) for i in range(3)], axis=1
    )
    segment = bins[:, 0] * n_bins[1] * n_bins[2] + bins[:, 1] * n_bins[2] + bins[:, 2]
    n_segments = n_bins[0] * n_bins[1] * n_bins[2]
    centers = np.zeros((n_segments, 3))
    for c in range(n_segments):
        mask = segment == c
        if mask.any():
            centers[c] = matrix.X[mask].mean(axis=0)
    labels = []
    for c in range(n_segments):
        r, rem = divmod(c, n_bins[1] * n_bins[2])
        fq, m = divmod(rem, n_bins[2])
        labels.append(f"rec{r}|frq{fq}|mon{m}")
    return SegmentationReport(
        ids=matrix.ids,
        labels=segment,
        centers=centers,
        feature_schema=list(matrix.schema),
        cluster_labels=labels,
        metrics={"k": n_segments, "mode": "expert"},
    )


def run_pps(
    dataset: Dataset,
    k: int,
    seed: int = 0,
    dominance_threshold: float = DEFAULT_DOMINANCE_THRESHOLD,
    **fit_kwargs,
) -> SegmentationReport:
    """PPS segmentation: k-means on per-customer category spend ratios."""
    matrix = feat.pps_features(dataset)
    model, labels = kmeans_fit(matrix, k, seed=seed, **fit_kwargs)
    return _report_from_fit(matrix, model, labels, True, dominance_threshold)


@dataclass
class SmPipelineModel:
    q95: QuantileSpec
    basket_model: ClusterModel
    customer_model: ClusterModel
    category_ids: list
    value_weight: float
    dataset_fingerprint: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "q95": self.q95.q95,
                "value_weight": self.value_weight,
                "category_ids": self.category_ids,
                "dataset_fingerprint": self.dataset_fingerprint,
                "basket_model": self.basket_model.to_dict(),
                "customer_model": self.customer_model.to_dict(),
            }
        )

    @classmethod
    def from_json(cls, text) -> "SmPipelineModel":
        """Parse a model file's text (str, or bytes in UTF-8)."""
        try:
            doc = json.loads(text)
            return cls(
                q95=QuantileSpec(q95=doc["q95"]),
                basket_model=ClusterModel.from_dict(doc["basket_model"]),
                customer_model=ClusterModel.from_dict(doc["customer_model"]),
                category_ids=doc["category_ids"],
                value_weight=doc["value_weight"],
                dataset_fingerprint=doc["dataset_fingerprint"],
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise PipelineError(
                f"not a valid SM model: {type(exc).__name__}: {exc}"
            ) from None


def run_sm(
    dataset: Dataset,
    k_b: int,
    k_sm: int,
    seed: int = 0,
    value_weight: float = 1.0,
    dominance_threshold: float = DEFAULT_DOMINANCE_THRESHOLD,
    **fit_kwargs,
):
    """Two-stage shopping-mission segmentation.

    Stage 1 clusters baskets on category ratios plus the q95-clipped value
    coordinate; stage 2 clusters customers on their ratios of stage-1
    basket archetypes. Returns (SmPipelineModel, basket report, customer
    report).
    """
    q = feat.compute_q95(dataset)
    basket_matrix = feat.basket_sm_features(
        dataset, dataset.category_ids, q, value_weight
    )
    basket_model, basket_labels = kmeans_fit(
        basket_matrix, k_b, seed=seed, **fit_kwargs
    )

    customer_matrix = feat.customer_sm_features(dataset, basket_labels, k_b)
    row_sums = customer_matrix.X.sum(axis=1)
    if not np.allclose(row_sums, 1.0, atol=1e-9):
        worst = float(row_sums[np.argmax(np.abs(row_sums - 1.0))])
        raise PipelineError(
            f"stage-2 customer rows must sum to 1; worst row sums to {worst!r}"
        )

    n_distinct = customer_matrix.n_distinct
    if k_sm > n_distinct:
        warnings.warn(
            f"stage 2 has only {n_distinct} distinct customer vectors; "
            f"reducing k_sm from {k_sm} to {n_distinct}"
        )
        k_sm = n_distinct
    customer_model, customer_labels = kmeans_fit(
        customer_matrix, k_sm, seed=seed + STAGE2_SEED_OFFSET, **fit_kwargs
    )

    sm_model = SmPipelineModel(
        q95=q,
        basket_model=basket_model,
        customer_model=customer_model,
        category_ids=list(dataset.category_ids),
        value_weight=value_weight,
        dataset_fingerprint=dataset.fingerprint(),
    )
    basket_report = _report_from_fit(
        basket_matrix, basket_model, basket_labels, True, dominance_threshold
    )
    customer_report = _report_from_fit(
        customer_matrix, customer_model, customer_labels, True,
        dominance_threshold,
    )
    return sm_model, basket_report, customer_report


def score(model: SmPipelineModel, dataset: Dataset) -> np.ndarray:
    """Assign new customers to SM segments with the frozen trained model;
    returns labels aligned with ``dataset.customer_ids``.

    q95 is reused from training, never recomputed, so the value axis is
    stable over time.
    """
    unknown = set(dataset.category_ids) - set(model.category_ids)
    if unknown:
        raise ValidationError(
            f"dataset has categories unknown to the model: {sorted(unknown)}"
        )
    # Project onto the training category axis (missing categories -> 0).
    basket_matrix = feat.basket_sm_features(
        dataset, model.category_ids, model.q95, model.value_weight
    )
    customer_matrix = feat.customer_sm_features(
        dataset, assign(model.basket_model, basket_matrix), model.basket_model.k
    )
    return assign(model.customer_model, customer_matrix)
