"""Property tests for the neighbours of the silhouette in cluster-count selection.

* Kneedle (Satopää et al., ICDCS Workshops 2011) finds the single elbow of a
  piecewise-linear decreasing convex curve and finds none on a straight line.
* ``ConstrainedKMeans`` keeps every cluster size inside ``SizeConstraints``
  whenever the constraints are feasible.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.clustering.constrained import ConstrainedKMeans, SizeConstraints
from repro.clustering.kneedle import find_knee_index


def _elbow_curve(num_points: int, elbow: int, steep: float, shallow: float,
                 step: float, offset: float) -> tuple[np.ndarray, np.ndarray]:
    """Decreasing curve with slope ``-steep`` up to ``elbow``, ``-shallow`` after."""
    x = offset + step * np.arange(num_points, dtype=np.float64)
    drops = np.where(np.arange(1, num_points) <= elbow, steep, shallow)
    y = 100.0 - np.concatenate([[0.0], np.cumsum(drops)])
    return x, y


@settings(max_examples=100, deadline=None)
@given(
    num_points=st.integers(5, 30),
    elbow_share=st.floats(0.0, 1.0),
    steep=st.floats(1.0, 50.0),
    ratio=st.floats(1.5, 100.0),
    step=st.floats(0.1, 10.0),
    offset=st.floats(-10.0, 10.0),
)
def test_kneedle_finds_the_elbow_of_a_convex_piecewise_linear_curve(
        num_points, elbow_share, steep, ratio, step, offset):
    elbow = 1 + int(elbow_share * (num_points - 3))
    shallow = steep / ratio
    x, y = _elbow_curve(num_points, elbow, steep, shallow, step, offset)
    # Kneedle's detectability condition at sensitivity 1: in normalized
    # coordinates the elbow must rise above the diagonal by more than the
    # mean x spacing, or the difference curve never drops below threshold.
    height = (steep * elbow) / (steep * elbow + shallow * (num_points - 1 - elbow))
    height -= elbow / (num_points - 1)
    assume(height > 1.0 / (num_points - 1) + 1e-9)
    assert find_knee_index(x, y, decreasing=True) == elbow


@settings(max_examples=50, deadline=None)
@given(
    num_points=st.integers(3, 40),
    slope=st.floats(0.01, 100.0),
    intercept=st.floats(-100.0, 100.0),
    step=st.floats(0.1, 10.0),
)
def test_kneedle_finds_no_knee_on_a_straight_line(num_points, slope, intercept, step):
    x = step * np.arange(num_points, dtype=np.float64)
    assert find_knee_index(x, intercept - slope * x, decreasing=True) is None


@st.composite
def _feasible_problems(draw):
    num_clusters = draw(st.integers(2, 10))
    num_points = draw(st.integers(num_clusters, 150))
    min_fraction = draw(st.floats(0.0, 1.0 / num_clusters))
    max_fraction = draw(st.floats(min_fraction, 1.0))
    constraints = SizeConstraints.from_fractions(num_points, min_fraction, max_fraction)
    assume(constraints.feasible(num_points, num_clusters))
    return num_points, num_clusters, constraints


@settings(max_examples=60, deadline=None)
@given(problem=_feasible_problems(), seed=st.integers(0, 2**32 - 1),
       dim=st.integers(1, 8))
def test_constrained_kmeans_honours_size_constraints(problem, seed, dim):
    num_points, num_clusters, constraints = problem
    points = np.random.default_rng(seed).normal(size=(num_points, dim))
    result = ConstrainedKMeans(num_clusters, constraints, random_state=seed).fit(points)
    sizes = np.bincount(result.labels, minlength=num_clusters)
    assert len(sizes) == num_clusters
    assert np.all(sizes >= constraints.min_size)
    assert np.all(sizes <= constraints.max_size)
