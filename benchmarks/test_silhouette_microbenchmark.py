"""Micro-benchmark of the silhouette fallback of cluster-count selection.

``select_num_clusters`` scores every candidate ``k`` with
``silhouette_score``.  This benchmark times one such candidate sweep (the
``k`` values of ``candidate_cluster_counts(1400)``, 1400 clustered 128-d
points, K-Means labels per ``k``) twice: with the vectorized production code
and with the per-point oracle in ``tests/reference/silhouette.py``.  The
vectorized sweep must be at least 5x faster and agree with the oracle within
1e-12 on every score.  The measurement is published to
``BENCH_silhouette.json`` at the repository root.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.clustering.kmeans import KMeans
from repro.clustering.model_selection import candidate_cluster_counts
from repro.clustering.silhouette import silhouette_score
from tests.reference.silhouette import silhouette_score_reference

_REPO_ROOT = Path(__file__).resolve().parent.parent
_BENCH_RESULT_PATH = _REPO_ROOT / "BENCH_silhouette.json"
#: Minimum accepted vectorized-over-oracle speedup.
_SPEEDUP_GATE = 5.0
#: Largest accepted absolute difference between the two scores of one ``k``.
_DIFFERENCE_GATE = 1e-12
_NUM_POINTS = 1400
_DIM = 128
_NUM_CENTERS = 12


def _sweep_inputs() -> tuple[np.ndarray, list[int], list[np.ndarray]]:
    """Clustered points and one K-Means labeling per candidate ``k``."""
    rng = np.random.default_rng(0)
    centers = rng.normal(scale=3.0, size=(_NUM_CENTERS, _DIM))
    points = (centers[rng.integers(0, _NUM_CENTERS, size=_NUM_POINTS)]
              + rng.normal(size=(_NUM_POINTS, _DIM)))
    candidates = candidate_cluster_counts(_NUM_POINTS)
    labelings = [KMeans(num_clusters=k, num_init=1, random_state=k).fit(points).labels
                 for k in candidates]
    return points, candidates, labelings


@pytest.fixture(scope="session")
def silhouette_sweep() -> dict:
    """One timed candidate sweep per implementation, best of three each."""
    points, candidates, labelings = _sweep_inputs()

    def timed_sweep(score) -> tuple[float, list[float]]:
        start = time.perf_counter()
        scores = [score(points, labels) for labels in labelings]
        return time.perf_counter() - start, scores

    oracle_seconds, oracle_scores = min(
        (timed_sweep(silhouette_score_reference) for _ in range(3)),
        key=lambda timed: timed[0])
    vectorized_seconds, vectorized_scores = min(
        (timed_sweep(silhouette_score) for _ in range(3)),
        key=lambda timed: timed[0])
    return {
        "num_points": _NUM_POINTS,
        "dim": _DIM,
        "candidates": candidates,
        "oracle_seconds": oracle_seconds,
        "vectorized_seconds": vectorized_seconds,
        "speedup": oracle_seconds / vectorized_seconds,
        "max_abs_difference": float(np.max(np.abs(
            np.asarray(vectorized_scores) - np.asarray(oracle_scores)))),
    }


def test_bench_silhouette_matches_oracle(silhouette_sweep):
    """Every score of the sweep agrees with the per-point oracle."""
    assert silhouette_sweep["max_abs_difference"] <= _DIFFERENCE_GATE


def test_bench_silhouette_speedup(silhouette_sweep):
    """Gate: the vectorized sweep is >= 5x faster than the per-point oracle.

    Also writes ``BENCH_silhouette.json`` (see the README's Performance
    section for the fields).
    """
    measured = silhouette_sweep
    payload = {
        "benchmark": "silhouette_vectorized_vs_oracle",
        "gate_speedup": _SPEEDUP_GATE,
        "gate_max_abs_difference": _DIFFERENCE_GATE,
        **measured,
    }
    _BENCH_RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n",
                                  encoding="utf-8")
    print(f"\nsilhouette sweep n={measured['num_points']} k={measured['candidates']}: "
          f"oracle {measured['oracle_seconds']:.3f}s, "
          f"vectorized {measured['vectorized_seconds']:.3f}s, "
          f"speedup {measured['speedup']:.1f}x "
          f"[result written to {_BENCH_RESULT_PATH}]")
    assert measured["speedup"] >= _SPEEDUP_GATE, (
        f"vectorized silhouette only {measured['speedup']:.1f}x faster "
        f"than the per-point oracle")
