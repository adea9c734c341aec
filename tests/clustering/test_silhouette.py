"""The vectorized silhouette against the per-point oracle in ``tests/reference``.

``silhouette_samples`` aggregates per-cluster distance sums with one matrix
product; the oracle walks the points one at a time exactly as Rousseeuw's
definition reads.  Both share ``_pairwise_euclidean``, so the comparisons
below pin the aggregation, down to the zero rules for singleton clusters
and for points whose ``max(a, b)`` is 0.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.clustering.model_selection as model_selection
from repro.clustering.model_selection import select_num_clusters
from repro.clustering.silhouette import (
    _pairwise_euclidean,
    silhouette_samples,
    silhouette_score,
)
from repro.experiments.configs import default_settings
from repro.experiments.engine import get_dataset, method_factory, run_single
from tests.reference.silhouette import (
    silhouette_samples_reference,
    silhouette_score_reference,
)

_TOLERANCE = 1e-12


def _labeled_cloud(rng: np.random.Generator, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Points in ``k`` clusters with the cases the zero rules exist for.

    Cluster sizes are drawn from 1 upward and the first cluster is always a
    singleton.  Label values are ``k`` distinct draws from ``[0, 1000)``, so
    they are neither contiguous nor start at 0.  Half of the clouds are
    rounded to an integer grid, where the expansion of the distance formula
    is exact: duplicated points then sit at distance exactly 0, and the
    second cluster is collapsed onto one point of the third.
    """
    sizes = rng.integers(1, 9, size=k)
    sizes[0] = 1
    dim = int(rng.choice([1, 2, 8, 128]))
    centers = rng.normal(scale=4.0, size=(k, dim))
    points = np.vstack([center + rng.normal(size=(size, dim))
                        for center, size in zip(centers, sizes)])
    cluster_of_point = np.repeat(np.arange(k), sizes)
    if rng.random() < 0.5:
        points = np.round(points)
        if k >= 3:
            points[cluster_of_point == 1] = points[cluster_of_point == 2][0]
    values = rng.choice(1000, size=k, replace=False)
    order = rng.permutation(len(points))
    return points[order], values[cluster_of_point[order]]


class TestPairwiseEuclidean:
    def test_diagonal_is_exactly_zero(self, rng):
        points = rng.normal(scale=3.0, size=(200, 128))
        assert np.all(np.diag(_pairwise_euclidean(points)) == 0.0)

    def test_matches_brute_force_norms(self, rng):
        points = rng.normal(size=(50, 16))
        brute = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
        np.testing.assert_allclose(_pairwise_euclidean(points), brute, atol=1e-6)


class TestVectorizedMatchesOracle:
    @pytest.mark.parametrize("k", range(2, 21))
    def test_seeded_clouds(self, k):
        for seed in range(5):
            points, labels = _labeled_cloud(np.random.default_rng([k, seed]), k)
            np.testing.assert_allclose(
                silhouette_samples(points, labels),
                silhouette_samples_reference(points, labels),
                rtol=0.0, atol=_TOLERANCE)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 20))
    def test_random_clouds(self, seed, k):
        points, labels = _labeled_cloud(np.random.default_rng(seed), k)
        assert abs(silhouette_score(points, labels)
                   - silhouette_score_reference(points, labels)) <= _TOLERANCE

    def test_coincident_clusters_score_zero(self):
        # a = b = 0 for every point: the denominator-0 rule.
        points = np.ones((6, 3))
        labels = np.array([4, 4, 4, 9, 9, 9])
        assert np.all(silhouette_samples(points, labels) == 0.0)
        assert np.all(silhouette_samples_reference(points, labels) == 0.0)

    def test_singleton_clusters_score_zero(self, rng):
        points = rng.normal(size=(5, 2))
        labels = np.array([0, 3, 3, 99, 99])
        samples = silhouette_samples(points, labels)
        assert samples[0] == 0.0
        np.testing.assert_allclose(samples, silhouette_samples_reference(points, labels),
                                   rtol=0.0, atol=_TOLERANCE)


def _selection_cloud(seed: int) -> np.ndarray:
    """Blobs or structureless noise; the latter often makes Kneedle miss."""
    rng = np.random.default_rng(seed)
    dim = int(rng.choice([2, 8, 32]))
    n = int(rng.integers(40, 200))
    if seed % 2:
        return rng.normal(size=(n, dim))
    centers = rng.normal(scale=6.0, size=(int(rng.integers(3, 12)), dim))
    return centers[rng.integers(0, len(centers), size=n)] + rng.normal(size=(n, dim))


def test_select_num_clusters_unchanged_against_oracle(monkeypatch):
    vectorized = [select_num_clusters(_selection_cloud(seed), random_state=seed)
                  for seed in range(30)]
    monkeypatch.setattr(model_selection, "silhouette_score", silhouette_score_reference)
    for seed, selection in enumerate(vectorized):
        oracle = select_num_clusters(_selection_cloud(seed), random_state=seed)
        assert (selection.num_clusters, selection.method) == (
            oracle.num_clusters, oracle.method)
        np.testing.assert_allclose(selection.silhouette_curve, oracle.silhouette_curve,
                                   rtol=0.0, atol=_TOLERANCE)
    assert any(selection.method == "silhouette" for selection in vectorized)


def test_battleship_runs_identical_with_oracle(monkeypatch):
    """Whole tiny battleship runs, including sweeps the silhouette decides.

    At run seed 7 amazon_google and wdc_cameras each have one sweep where
    Kneedle finds no knee.  Only the wall-clock fields may differ.
    """
    tiny = default_settings("tiny")
    methods: list[str] = []
    select = model_selection.select_num_clusters

    def recording_select(*args, **kwargs):
        selection = select(*args, **kwargs)
        methods.append(selection.method)
        return selection

    monkeypatch.setattr(model_selection, "select_num_clusters", recording_select)

    def records(name: str) -> list:
        result = run_single(get_dataset(name, tiny),
                            method_factory("battleship")(0.5, 0.5), tiny, 7)
        return [dataclasses.replace(record, train_seconds=0.0, selection_seconds=0.0)
                for record in result.records]

    datasets = ("amazon_google", "wdc_cameras")
    vectorized = [records(name) for name in datasets]
    assert "silhouette" in methods
    monkeypatch.setattr(model_selection, "silhouette_score", silhouette_score_reference)
    assert vectorized == [records(name) for name in datasets]
