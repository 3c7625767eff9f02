"""Seedable k-means with k-means++ initialization and restarts.

Deterministic given (matrix, k, seed): ``FeatureMatrix`` rows are in
strictly increasing id order (checked when the matrix is built), restarts
use seeds derived from the run seed, and all reductions are single-threaded
numpy. Labels are integer arrays aligned with ``matrix.ids``.

Lloyd's iterations skip distance evaluations with two bounds per row on
its distance to its own center and to the other centers, moved by the
centers' shifts (Hamerly, "Making k-means even faster", SDM 2010), and read
the rows that fail them in place. The pruning is exact: a row skips its
distance row only when its own center provably wins by more than any
rounding error, so centers, labels, inertia and iteration counts are
bit-identical to plain Lloyd with lowest-index tie-breaking.

A fit makes ``XT = X.T`` contiguous once, and its restarts share one
scratch buffer of that feature-major shape, so an iteration writes its
differences in place instead of allocating, and each step of a distance
computation is one numpy call over whole rows of n values, not one small
call per row. ``_sum_squares`` adds up every squared distance in one
fixed order: that of numpy's baseline x86-64 ``einsum("nd,nd->n")``
kernel, which gave the engine's recorded outputs. Like ``_Pcg64Draws``
below, owning the order keeps the outputs stable across numpy builds,
whose ``einsum`` may pick another SIMD kernel and add in another order.

The k-means++ draws search the cdf that ``rng.choice(n, p=...)`` builds, on
the same ``rng.random()`` double, so the seeding keeps ``rng.choice``'s
draws. The seeding computes every row's distance to every center it picks,
so it also keeps each row's nearest center, that distance and the runner-up
distance, and hands Lloyd its first assignment: Lloyd starts without a full
distance pass of its own.

Restart r of a fit seeded s draws from ``_Pcg64Draws((s, r))``: the exact
``integers(n)`` and ``random()`` draws of ``np.random.default_rng((s, r))``,
computed in Python from numpy's published algorithms. Importing
``numpy.random`` would load ``secrets`` and OpenSSL, a few MB of a run's
peak memory, for one draw per center; and numpy keeps bit-generator streams
stable across versions but not the streams of ``Generator`` methods, so
owning these two draws also pins the seeding against numpy upgrades.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from . import ShopmissionError, number, number_list
from .features import FeatureMatrix


# Passes of each empty-cluster repair loop in ``_lloyd`` (the main loop's
# and the final one) before it gives up.
MAX_FINAL_REPAIRS = 100


class KMeansError(ShopmissionError):
    pass


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class _Pcg64Draws:
    """The ``integers(n)`` and ``random()`` draws of
    ``np.random.default_rng(entropy)`` for a tuple of non-negative ints.

    numpy's ``SeedSequence`` (4-word pool) seeds a ``PCG64``, the 128-bit
    LCG with XSL-RR output (O'Neill 2014); ``integers`` is numpy's 32-bit
    Lemire rejection (Lemire, ACM TOMACS 2019) on ``next32``, which hands
    out the low then the high half of one 64-bit output.
    """

    def __init__(self, entropy):
        words = []
        for value in entropy:
            words.append(value & _MASK32)
            while value > _MASK32:
                value >>= 32
                words.append(value & _MASK32)
        h = 0x43B0D7E5

        def hashmix(v):
            nonlocal h
            v ^= h
            h = h * 0x931E8875 & _MASK32
            v = v * h & _MASK32
            return v ^ v >> 16

        def mix(x, y):
            r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
            return r ^ r >> 16

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if dst != src:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        # generate_state(4, uint64): eight words, paired low word first.
        h, state = 0x8B51F9DD, []
        for i in range(8):
            v = pool[i % 4] ^ h
            h = h * 0x58F38DED & _MASK32
            v = v * h & _MASK32
            state.append(v ^ v >> 16)
        u = [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]
        self._inc = ((u[2] << 64 | u[3]) << 1 | 1) & _MASK128
        self._state = (self._inc + (u[0] << 64 | u[1])) & _MASK128
        self._next64()
        self._half = None  # the buffered high half for next32

    def _next64(self):
        s = self._state = (self._state * _PCG64_MULT + self._inc) & _MASK128
        rot = s >> 122
        x = (s >> 64 ^ s) & _MASK64
        return (x >> rot | x << (64 - rot)) & _MASK64

    def _next32(self):
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _MASK32

    def random(self):
        return (self._next64() >> 11) * 2.0**-53

    def integers(self, n):
        """Uniform on [0, n); ``n == 1`` takes no draw."""
        if n == 1:
            return 0
        if n > 1 << 32:
            raise KMeansError(f"cannot draw one of {n} rows: at most 2**32")
        m = self._next32() * n
        if m & _MASK32 < n:
            threshold = ((1 << 32) - n) % n
            while m & _MASK32 < threshold:
                m = self._next32() * n
        return m >> 32


@dataclass
class ClusterModel:
    k: int
    centers: np.ndarray  # shape (k, d)
    feature_schema: list
    seed: int
    inertia: float
    iterations_run: int
    # False when the kept restart stopped at max_iter with shift >= tol.
    converged: bool = True

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "feature_schema": self.feature_schema,
            "seed": self.seed,
            "inertia": self.inertia,
            "iterations_run": self.iterations_run,
            "converged": self.converged,
            "centers": [list(row) for row in self.centers],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ClusterModel":
        schema = doc["feature_schema"]
        if not (isinstance(schema, list)
                and all(isinstance(f, str) for f in schema)):
            raise KMeansError(
                f"model feature_schema must be a list of strings, got {schema!r}"
            )
        rows = doc["centers"]
        if not isinstance(rows, list):
            raise KMeansError(f"model centers must be a list of rows, got {rows!r}")
        rows = [
            number_list("center", r, KMeansError, "a model center row")
            for r in rows
        ]
        lengths = sorted({len(r) for r in rows})
        if len(lengths) > 1:
            raise KMeansError(f"model center rows have lengths {lengths}")
        centers = np.array(rows)
        k = number("k", doc["k"], KMeansError)
        if centers.shape != (k, len(schema)):
            raise KMeansError(
                f"centers of shape {centers.shape} do not match k={k} "
                f"and {len(schema)} features"
            )
        return cls(
            k=k,
            centers=centers,
            feature_schema=schema,
            seed=number("seed", doc["seed"]),
            inertia=number("inertia", doc["inertia"]),
            iterations_run=number("iterations_run", doc["iterations_run"]),
            # Files written before the field existed did not record it.
            converged=number("converged", doc.get("converged", True)),
        )


@cache
def _pair_order(d):
    """The first feature of each pair of features (f, f + 1), in the order
    that ``_sum_squares`` adds the pairs onto its two lanes."""
    full = d - d % 8
    blocks = (b + i for b in range(0, full, 8) for i in (6, 4, 2, 0))
    return (*blocks, *range(full, d - 1, 2))


def _sum_squares(D, out=None):
    """``out[i] = sum_f D[f, i] ** 2`` for the feature-major block ``D``
    (d, m), which it overwrites; returns ``out``, or a row of ``D`` when
    ``out`` is None.

    The sum is bit-identical to ``np.einsum("nd,nd->n", D.T, D.T)`` as
    numpy's baseline x86-64 kernel adds it: each square is rounded before
    it adds (no fused multiply-add), feature f adds into lane ``f % 2`` of
    two lanes, each full block of eight features adds its four pairs onto
    the lanes last to first, the remaining pairs add in order, a last odd
    feature adds to lane 0 alone, and then the two lanes add. Each step is
    one ufunc call over whole rows.
    """
    np.multiply(D, D, out=D)
    d = D.shape[0]
    pairs = _pair_order(d)
    if not pairs:  # d <= 1: the kernel still adds an empty lane of zeros
        first = D[0] if d else np.zeros(D.shape[1])
        return np.add(first, 0.0, out=first if out is None else out)
    lanes = D[pairs[0] : pairs[0] + 2]
    for f in pairs[1:]:
        np.add(D[f : f + 2], lanes, out=lanes)
    if d % 2:
        np.add(D[d - 1], lanes[0], out=lanes[0])
    return np.add(lanes[0], lanes[1], out=lanes[0] if out is None else out)


def _plusplus_init(XT, k, rng, buf, check_distinct):
    """k-means++ seeding of the rows of ``X``, given as ``XT = X.T`` made
    contiguous; ``buf`` is scratch of ``XT``'s size. Returns the centers and
    the first assignment Lloyd starts from, ``(labels, own, lower)`` as
    ``_nearest(XT, centers, buf)`` gives it.

    When every row's distance to its nearest center is 0 before the k-th
    pick, the rows may all coincide with the centers, or their distances
    underflow. ``check_distinct()`` raises in the first case (fewer
    distinct rows than k); when it passes, the distances underflow, no
    center can separate those rows and the seeding raises.

    Each draw searches the cdf of ``own / total`` exactly as
    ``rng.choice(n, p=own / total)`` builds and searches it, on the same
    ``rng.random()`` double, so every pick is the one ``rng.choice`` makes.
    ``own`` is each row's squared distance to its nearest center so far and
    ``second`` to the runner-up; a strict ``<`` keeps the lowest index on
    ties, as ``argmin`` does.
    """
    d, n = XT.shape
    D = buf.reshape(d, n)
    centers = np.empty((k, d))
    centers[0] = XT[:, rng.integers(n)]
    labels = np.zeros(n, dtype=np.intp)
    own = np.full(n, np.inf)
    second = np.full(n, np.inf)
    d2 = np.empty(n)
    cdf = np.empty(n)
    closer = np.empty(n, dtype=bool)
    for j in range(k):
        if j:
            total = own.sum()
            if total <= 0:
                check_distinct()
                raise KMeansError(
                    f"cannot seed k={k} centers: some distinct rows are at "
                    "squared distances that underflow to 0, so no squared "
                    "distance separates them"
                )
            np.divide(own, total, out=cdf)
            np.cumsum(cdf, out=cdf)
            cdf /= cdf[-1]
            centers[j] = XT[:, cdf.searchsorted(rng.random(), side="right")]
        np.subtract(XT, centers[j][:, None], out=D)
        _sum_squares(D, d2)
        np.less(d2, own, out=closer)
        np.copyto(labels, j, where=closer)
        # The runner-up is the old nearest where center j wins, else the
        # nearer of the old runner-up and center j.
        np.maximum(own, d2, out=cdf)
        np.minimum(second, cdf, out=second)
        np.minimum(own, d2, out=own)
    return centers, (labels, own, np.sqrt(second, out=second))


def _nearest(XT, centers, buf, cols=None):
    """Nearest-center labels (lowest index on ties), their squared
    distances, and each row's distance to its runner-up center, for the
    rows of ``X`` given as ``XT = X.T``, or for its rows at the indices
    ``cols``; ``buf`` is scratch.

    The rows go in chunks whose (d, k, rows) block of differences to every
    center fits in ``buf``; a chunk of ``cols`` gathers only its own rows.
    """
    d, m = XT.shape if cols is None else (len(XT), len(cols))
    k = centers.shape[0]
    step = buf.size // (d * k) if d else m
    if not step:  # more centers than buf has rows: one row at a time
        buf, step = np.empty(d * k), 1
    CT = np.ascontiguousarray(centers.T)[:, :, None]
    labels, own, lower = np.empty(m, np.intp), np.empty(m), np.empty(m)
    for lo in range(0, m, step):
        s = min(step, m - lo)
        rows = slice(lo, lo + s)
        block = XT[:, rows] if cols is None else XT.take(cols[rows], axis=1)
        D = buf.reshape(-1)[: d * k * s].reshape(d, k, s)
        np.subtract(block[:, None], CT, out=D)
        d2 = _sum_squares(D.reshape(d, k * s)).reshape(k, s)
        np.argmin(d2, axis=0, out=labels[rows])
        d2.min(axis=0, out=own[rows])
        d2[labels[rows], np.arange(s)] = np.inf
        np.sqrt(d2.min(axis=0), out=lower[rows])
    return labels, own, lower


def _own_distances(XT, centers, labels, buf, out):
    """Each row's squared distance to its labelled center, into ``out``."""
    D = buf.reshape(XT.shape)
    # Labels are always in range; mode="raise" would copy ``D`` first.
    np.take(np.ascontiguousarray(centers.T), labels, axis=1, out=D,
            mode="clip")
    np.subtract(XT, D, out=D)
    return _sum_squares(D, out)


def _reassign(XT, centers, labels, upper, lower, slack, buf):
    """Move each row to its nearest center, in place. A row keeps its label
    without a distance row when ``upper``, its bound on the distance to that
    center, plus ``slack`` is below ``lower``, its bound on the distance to
    every other center (NaN fails); ``_nearest`` reads the other rows in
    place by index and sets their labels and both bounds exactly."""
    stale = np.flatnonzero(~(upper + slack < lower))
    labels[stale], own, lower[stale] = _nearest(XT, centers, buf, stale)
    upper[stale] = np.sqrt(own, out=own)


def cluster_means(XT, labels, counts):
    """Per-cluster means of the rows of ``X``, given as ``XT = X.T``,
    bit-identical to ``X[labels == j].mean(axis=0)``, and zeros for a
    cluster of no rows; ``counts`` are the cluster sizes."""
    k = len(counts)
    means = np.zeros((k, XT.shape[0]))
    if XT.shape[0] == 1:
        # numpy sums a lone column pairwise, where bincount sums row by row.
        for j in np.flatnonzero(counts):
            means[j] = XT[0, labels == j].mean()
        return means
    for col, row in enumerate(XT):
        means[:, col] = np.bincount(labels, weights=row, minlength=k)
    means /= np.maximum(counts, 1)[:, None]
    return means


def _repair_empty(XT, centers, labels, own):
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
        centers[j] = XT[:, idx]
        labels[idx] = j
        own[(XT == XT[:, idx, None]).all(axis=0)] = -np.inf


def _count_repair(passes, k):
    """One more pass of a repair loop; raises once it exceeds the limit."""
    if passes >= MAX_FINAL_REPAIRS:
        raise KMeansError(
            f"empty-cluster repair did not settle after "
            f"{MAX_FINAL_REPAIRS} passes (k={k})"
        )
    return passes + 1


def _lloyd(XT, centers, assignment, max_iter, tol, buf, slack):
    """Lloyd's iterations from ``centers`` and their nearest-center
    ``assignment``, the ``(labels, own, lower)`` of ``_nearest``, which the
    iterations update in place; ``XT``, ``buf`` and the pruning ``slack``
    are those of ``kmeans_fit``, shared by the restarts of a fit. ``own``
    turns into each row's upper bound on the distance to its center; exact
    distances are worked out only before a repair and after the loop."""
    centers = centers.copy()
    k = centers.shape[0]
    labels, upper, lower = assignment
    np.sqrt(upper, out=upper)
    for iterations in range(1, max_iter + 1):
        counts = np.bincount(labels, minlength=k)
        # A re-seeded center can take every row of a cluster whose center
        # has not moved yet, so repair until no cluster is empty.
        passes = 0
        while counts.min() == 0:
            passes = _count_repair(passes, k)
            own = _own_distances(XT, centers, labels, buf, upper)
            _repair_empty(XT, centers, labels, own)
            labels, upper, lower = _nearest(XT, centers, buf)
            np.sqrt(upper, out=upper)
            counts = np.bincount(labels, minlength=k)
        new_centers = cluster_means(XT, labels, counts)
        move = np.sqrt(((new_centers - centers) ** 2).sum(axis=1))
        shift = move.max()
        centers = new_centers
        upper += move[labels]
        lower -= shift
        _reassign(XT, centers, labels, upper, lower, slack, buf)
        if shift < tol:
            break
    converged = bool(shift < tol)
    own = _own_distances(XT, centers, labels, buf, upper)
    counts = np.bincount(labels, minlength=k)
    # Final assignment may orphan a center; repair keeps k as requested.
    # With more centers than distinct rows, which only custom inits allow,
    # the repair can cycle, so give up after a fixed number of passes.
    passes = 0
    while counts.min() == 0:
        passes = _count_repair(passes, k)
        _repair_empty(XT, centers, labels, own)
        centers = cluster_means(XT, labels, np.bincount(labels, minlength=k))
        labels, own, lower = _nearest(XT, centers, buf)
        counts = np.bincount(labels, minlength=k)
    return centers, labels, float(own.sum()), iterations, converged


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
    k = number("k", k, KMeansError)
    seed = number("seed", seed, KMeansError)
    max_iter = number("max_iter", max_iter, KMeansError)
    tol = number("tol", tol, KMeansError)
    n_init = number("n_init", n_init, KMeansError)

    def check_distinct():
        if k > matrix.n_distinct:
            raise KMeansError(
                f"k={k} exceeds number of distinct rows ({matrix.n_distinct})"
            )

    # Counting distinct rows sorts the whole matrix, so it waits until it
    # can matter. Each seeding pick with a nonzero total is a row at a
    # nonzero distance from every earlier pick, a new distinct row, so k
    # such picks prove k distinct rows; the seeding checks only when the
    # total reaches 0 first.
    if k > len(X):
        check_distinct()
    # Every squared distance between rows is at most the squared
    # bounding-box diagonal, so the seeding total and the inertia are at most
    # n times it; an overflow there would corrupt the k-means++ draws.
    with np.errstate(over="ignore"):
        diagonal2 = (np.ptp(X, axis=0) ** 2).sum()
    if not np.isfinite(len(X) * diagonal2):
        check_distinct()
        raise KMeansError(
            "feature values span too wide a range: squared distances "
            "overflow float64"
        )
    # Centers are rows or means of rows, so each shift adds a few ulps of
    # the diagonal to the error of both bounds: the upper one grows by its
    # center's move and the lower one shrinks by the largest. The slack
    # stays above their summed error for some 10^5 iterations, so a row
    # that skips its distance row has a strictly nearest center: the label
    # an argmin would give.
    slack = 1e-9 * np.sqrt(diagonal2)

    XT = np.ascontiguousarray(X.T)
    buf = np.empty_like(XT)
    best = None
    for restart in range(n_init):
        rng = _Pcg64Draws((seed, restart))
        init, assignment = _plusplus_init(XT, k, rng, buf, check_distinct)
        fit = _lloyd(XT, init, assignment, max_iter, tol, buf, slack)
        if best is None or fit[2] < best[2]:
            best = fit

    centers, labels, inertia, iterations, converged = best
    model = ClusterModel(
        k=k,
        centers=centers,
        feature_schema=list(matrix.schema),
        seed=seed,
        inertia=inertia,
        iterations_run=iterations,
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
    XT = np.ascontiguousarray(matrix.X.T)
    return _nearest(XT, model.centers, np.empty_like(XT))[0]
