"""Per-point silhouette loop: the oracle for the vectorized implementation.

A direct transcription of Rousseeuw's definition (J. Comput. Appl. Math. 20,
1987): for every point, the mean distance to the rest of its own cluster
``a`` and the smallest mean distance to another cluster ``b`` give the
coefficient ``(b - a) / max(a, b)``.  Points in singleton clusters, and
points with ``max(a, b) == 0``, receive 0.  Distances come from the same
``_pairwise_euclidean`` block as production, so the two implementations
differ only in how the per-cluster means are aggregated.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.silhouette import _pairwise_euclidean


def silhouette_samples_reference(points: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-point silhouette coefficients, one point at a time."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(points) != len(labels):
        raise ValueError("points and labels must have the same length")
    unique = np.unique(labels)
    if len(unique) < 2:
        raise ValueError("Silhouette requires at least two clusters")

    distances = _pairwise_euclidean(points)
    n = len(points)
    scores = np.zeros(n)
    cluster_masks = {cluster: labels == cluster for cluster in unique}
    for i in range(n):
        own = cluster_masks[labels[i]].copy()
        own[i] = False
        own_size = int(np.sum(own))
        if own_size == 0:
            scores[i] = 0.0
            continue
        a = float(np.mean(distances[i, own]))
        b = np.inf
        for cluster in unique:
            if cluster == labels[i]:
                continue
            other = cluster_masks[cluster]
            b = min(b, float(np.mean(distances[i, other])))
        denominator = max(a, b)
        scores[i] = 0.0 if denominator == 0 else (b - a) / denominator
    return scores


def silhouette_score_reference(points: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette coefficient over all points, one point at a time."""
    return float(np.mean(silhouette_samples_reference(points, labels)))
