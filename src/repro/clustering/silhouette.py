"""Silhouette score (Rousseeuw) for clustering quality.

Used as the fallback criterion for choosing ``k`` when the Kneedle algorithm
does not find a knee (Section 3.3.1 of the paper).
"""

from __future__ import annotations

import numpy as np


def _pairwise_euclidean(points: np.ndarray) -> np.ndarray:
    """Full pairwise Euclidean distance matrix with an exact-zero diagonal.

    The expansion ``|x|^2 - 2 x.y + |y|^2`` leaves a rounding residue on the
    diagonal; it is zeroed so a point contributes nothing to its own
    cluster's distance sum.  The steps run in place on one n x n block.
    """
    norms = np.sum(points * points, axis=1)
    squared = 2.0 * points @ points.T
    np.subtract(norms[:, None], squared, out=squared)
    squared += norms[None, :]
    np.maximum(squared, 0.0, out=squared)
    np.fill_diagonal(squared, 0.0)
    return np.sqrt(squared, out=squared)


def silhouette_samples(points: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-point silhouette coefficients.

    For point ``i`` with intra-cluster mean distance ``a`` and smallest
    mean distance to another cluster ``b``, the coefficient is
    ``(b - a) / max(a, b)``.  Points in singleton clusters receive 0, and
    so do points with ``max(a, b) == 0``.  Both means come from per-cluster
    distance sums, one product of the distance matrix with the one-hot
    cluster membership matrix.
    """
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(points) != len(labels):
        raise ValueError("points and labels must have the same length")
    unique, inverse = np.unique(labels, return_inverse=True)
    if len(unique) < 2:
        raise ValueError("Silhouette requires at least two clusters")

    n = len(points)
    rows = np.arange(n)
    onehot = np.zeros((n, len(unique)))
    onehot[rows, inverse] = 1.0
    sums = _pairwise_euclidean(points) @ onehot
    sizes = np.bincount(inverse).astype(np.float64)

    own_size = sizes[inverse] - 1.0
    has_company = own_size > 0
    a = np.divide(sums[rows, inverse], own_size, out=np.zeros(n), where=has_company)
    means = sums / sizes
    means[rows, inverse] = np.inf
    b = means.min(axis=1)
    denominator = np.maximum(a, b)
    scored = has_company & (denominator > 0)
    scores = np.zeros(n)
    scores[scored] = (b[scored] - a[scored]) / denominator[scored]
    return scores


def silhouette_score(points: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette coefficient over all points."""
    return float(np.mean(silhouette_samples(points, labels)))
