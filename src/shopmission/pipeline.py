"""End-to-end segmentation pipelines: RFM, PPS and the two-stage SM method."""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import ShopmissionError, features as feat, number, number_list
from .features import FeatureMatrix, QuantileSpec
from .kmeans import ClusterModel, KMeansError, assign, cluster_means, kmeans_fit
from .txmodel import Dataset, ValidationError, naming, write_csv, write_text
from .validity import fit_summary

ASSIGNMENT_COLUMNS = ["entity_id", "cluster"]
STAGE2_SEED_OFFSET = 7919
DEFAULT_DOMINANCE_THRESHOLD = 0.30
# Expert RFM allocates, labels and writes every cell of its bin grid.
MAX_EXPERT_SEGMENTS = 10_000


class PipelineError(ShopmissionError):
    pass


def write_assignment_csv(path, ids, labels):
    """``entity_id,cluster`` rows in ``ids`` order (sorted by id)."""
    write_csv(path, ASSIGNMENT_COLUMNS, zip(ids, np.asarray(labels).tolist()))


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
        write_assignment_csv(
            out_dir / f"{prefix}_assignments.csv", self.ids, self.labels
        )
        names = self.cluster_labels
        centers = self.centers.tolist()
        write_csv(
            out_dir / f"{prefix}_shares.csv", ["cluster", "label", "share"],
            zip(range(len(names)), names, self.shares.tolist()),
        )
        write_csv(
            out_dir / f"{prefix}_centers.csv",
            ["cluster", "label"] + list(self.feature_schema),
            ([c, names[c]] + row for c, row in enumerate(centers)),
        )
        text = json.dumps(self.metrics, indent=2)
        write_text(out_dir / f"{prefix}_metrics.json", text)


def label_clusters(
    centers, feature_names, threshold=DEFAULT_DOMINANCE_THRESHOLD
) -> list:
    """Name each cluster after its dominant feature, or "General" if none
    exceeds the dominance threshold."""
    top = np.argmax(centers, axis=1)
    return [
        f"Specialized -- {feature_names[t]}" if row[t] > threshold
        else "General"
        for row, t in zip(centers, top)
    ]


def _report_from_fit(
    matrix, model, labels, dominance_threshold, name
) -> SegmentationReport:
    return SegmentationReport(
        ids=matrix.ids,
        labels=labels,
        centers=model.centers,
        feature_schema=list(matrix.schema),
        cluster_labels=label_clusters(
            model.centers, matrix.schema, dominance_threshold
        ),
        metrics=fit_summary(matrix, model, labels, name),
    )


def _zscore(matrix: FeatureMatrix) -> FeatureMatrix:
    std = matrix.X.std(axis=0)
    std[std == 0] = 1.0
    return FeatureMatrix(
        ids=matrix.ids,
        X=(matrix.X - matrix.X.mean(axis=0)) / std,
        schema=matrix.schema,
    )


def rfm_matrix(dataset: Dataset, standardize_rfm: bool = True):
    """(raw RFM vectors, the matrix that RFM k-means fits): the fitted one is
    z-scored per column unless ``standardize_rfm`` is false."""
    standardize_rfm = number("standardize_rfm", standardize_rfm, PipelineError)
    matrix = feat.rfm_features(dataset)
    return matrix, _zscore(matrix) if standardize_rfm else matrix


def stage1_matrix(dataset: Dataset, value_weight: float = 1.0):
    """(q95 spec, basket matrix) of the SM stage 1: category ratios plus the
    q95-clipped value coordinate."""
    q = feat.compute_q95(dataset)
    return q, feat.basket_sm_features(
        dataset, dataset.category_ids, q, value_weight
    )


def _unique_keys(pairs) -> dict:
    """The JSON readers' ``object_pairs_hook``: it refuses a repeated key."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise PipelineError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def _check_bounds(bounds) -> dict:
    """``bounds`` with each edge as a float, when it maps some of
    ``RFM_SCHEMA`` to lists of finite real numbers, strictly increasing per
    list, that cut at most ``MAX_EXPERT_SEGMENTS`` segments; else raises
    ``PipelineError``."""
    if not isinstance(bounds, dict):
        raise PipelineError("expected a JSON object of edge lists")
    checked = {}
    for dim, edges in bounds.items():
        if dim not in feat.RFM_SCHEMA:
            raise PipelineError(
                f"unknown RFM dimension {dim!r}, expected one of "
                f"{feat.RFM_SCHEMA}"
            )
        what = f"bin edges for {dim!r}"
        edges = checked[dim] = number_list("bin_edge", edges, PipelineError, what)
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise PipelineError(
                f"bin edges for {dim} are not strictly increasing: {edges}"
            )
    segments = math.prod(len(edges) + 1 for edges in checked.values())
    if segments > MAX_EXPERT_SEGMENTS:
        raise PipelineError(
            f"the bin edges make {segments} RFM segments, more than "
            f"{MAX_EXPERT_SEGMENTS}"
        )
    return checked


def load_expert_bounds(path) -> dict:
    """Expert RFM bin edges: a JSON object of lists of finite numbers,
    {"recency_days": [...], ...}, strictly increasing per dimension."""
    with naming(path), open(path, "rb") as f:
        try:
            # Numbers become floats, as binning uses them; huge ints -> inf.
            bounds = json.load(
                f, parse_int=float, object_pairs_hook=_unique_keys
            )
        except ValueError as exc:  # bad JSON or invalid UTF-8
            raise PipelineError(f"not valid JSON: {exc}") from None
        return _check_bounds(bounds)


def run_rfm(
    dataset: Dataset,
    k: int,
    seed: int = 0,
    standardize_rfm: bool = True,
    **fit_kwargs,
) -> SegmentationReport:
    """RFM segmentation: k-means on the ``rfm_matrix`` vectors. Clusters are
    named C01, C02, ... and their centers are in raw feature units."""
    matrix, fit_matrix = rfm_matrix(dataset, standardize_rfm)
    model, labels = kmeans_fit(fit_matrix, k, seed=seed, **fit_kwargs)
    X, counts = matrix.X, np.bincount(labels, minlength=k)
    return SegmentationReport(
        ids=matrix.ids,
        labels=labels,
        centers=cluster_means(X.T, labels, counts),
        feature_schema=list(matrix.schema),
        cluster_labels=[f"C{c + 1:02d}" for c in range(k)],
        metrics=fit_summary(fit_matrix, model, labels, "rfm"),
    )


def run_rfm_expert(dataset: Dataset, bounds: dict) -> SegmentationReport:
    """Expert RFM segmentation: one segment per cell of the bins that the
    ``load_expert_bounds`` edges cut each dimension into (one bin where a
    dimension has no edges). An empty segment's center is all zeros."""
    bounds = _check_bounds(bounds)
    matrix = feat.rfm_features(dataset)
    edges = [bounds.get(dim, []) for dim in matrix.schema]
    shape = [len(e) + 1 for e in edges]
    segment = np.ravel_multi_index(
        [np.digitize(x, e) for x, e in zip(matrix.X.T, edges)], shape
    )
    counts = np.bincount(segment, minlength=math.prod(shape))
    return SegmentationReport(
        ids=matrix.ids,
        labels=segment,
        centers=cluster_means(matrix.X.T, segment, counts),
        feature_schema=list(matrix.schema),
        cluster_labels=[
            f"rec{r}|frq{f}|mon{m}"
            for r, f, m in itertools.product(*map(range, shape))
        ],
        metrics={"k": len(counts), "mode": "expert"},
    )


def run_pps(
    dataset: Dataset,
    k: int,
    seed: int = 0,
    dominance_threshold: float = DEFAULT_DOMINANCE_THRESHOLD,
    **fit_kwargs,
) -> SegmentationReport:
    """PPS segmentation: k-means on per-customer category spend ratios."""
    dominance_threshold = number(
        "dominance_threshold", dominance_threshold, PipelineError
    )
    matrix = feat.pps_features(dataset)
    model, labels = kmeans_fit(matrix, k, seed=seed, **fit_kwargs)
    return _report_from_fit(matrix, model, labels, dominance_threshold, "pps")


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
            doc = json.loads(text, object_pairs_hook=_unique_keys)
            category_ids = doc["category_ids"]
            if not (
                isinstance(category_ids, list)
                and all(isinstance(c, str) for c in category_ids)
                and len(set(category_ids)) == len(category_ids)
            ):
                raise ValueError(
                    "category_ids must be a list of distinct strings"
                )
            model = cls(
                q95=QuantileSpec(q95=doc["q95"]),
                basket_model=ClusterModel.from_dict(doc["basket_model"]),
                customer_model=ClusterModel.from_dict(doc["customer_model"]),
                category_ids=category_ids,
                value_weight=number("value_weight", doc["value_weight"]),
                dataset_fingerprint=doc["dataset_fingerprint"],
            )
            if not isinstance(model.dataset_fingerprint, str):
                raise ValueError(
                    f"dataset_fingerprint must be a string, got "
                    f"{model.dataset_fingerprint!r}"
                )
            # The schemas that ``score``'s feature builders give.
            basket_schema = [f"cat:{c}" for c in category_ids] + ["value"]
            k_b = model.basket_model.k
            for name, schema in (
                ("basket_model", basket_schema),
                ("customer_model", [f"archetype:{j}" for j in range(k_b)]),
            ):
                if getattr(model, name).feature_schema != schema:
                    raise ValueError(f"{name} feature_schema must be {schema}")
            return model
        except (ShopmissionError, ValueError, KeyError, TypeError,
                OverflowError) as exc:
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
    # The model records the checked weight, a plain float.
    value_weight = number("value_weight", value_weight, feat.FeatureError)
    dominance_threshold = number(
        "dominance_threshold", dominance_threshold, PipelineError
    )
    k_sm = number("k", k_sm, KMeansError)
    q, basket_matrix = stage1_matrix(dataset, value_weight)
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

    basket_report = _report_from_fit(
        basket_matrix, basket_model, basket_labels, dominance_threshold,
        "stage-1 basket",
    )
    customer_report = _report_from_fit(
        customer_matrix, customer_model, customer_labels, dominance_threshold,
        "stage-2 customer",
    )
    del basket_matrix, customer_matrix  # before the fingerprint loads OpenSSL
    sm_model = SmPipelineModel(
        q95=q,
        basket_model=basket_model,
        customer_model=customer_model,
        category_ids=list(dataset.category_ids),
        value_weight=value_weight,
        dataset_fingerprint=dataset.fingerprint(),
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
        with naming(dataset.categories_file):
            raise ValidationError(
                f"dataset has categories unknown to the model: "
                f"{sorted(unknown)}"
            )
    # Project onto the training category axis (missing categories -> 0).
    basket_matrix = feat.basket_sm_features(
        dataset, model.category_ids, model.q95, model.value_weight
    )
    customer_matrix = feat.customer_sm_features(
        dataset, assign(model.basket_model, basket_matrix), model.basket_model.k
    )
    return assign(model.customer_model, customer_matrix)
