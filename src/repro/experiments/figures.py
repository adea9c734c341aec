"""Builders for the paper's figures (1, 5, 6, 7, 8, 9, 10).

Figures are reproduced as data series (and summary rows) rather than plots:
each builder returns the numbers a plotting script would consume, and the
benchmark harness prints them so the shape can be compared with the paper.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.active.weak_supervision import WeakSupervisionMode
from repro.ann.exact import ExactNearestNeighbors
from repro.baselines.full_training import train_full_matcher
from repro.evaluation.curves import LearningCurve
from repro.exceptions import ConfigurationError
from repro.experiments.configs import ABLATION_DATASETS, ExperimentSettings, default_settings
from repro.experiments.engine import ExperimentEngine
from repro.experiments.paper_values import (
    FIGURE7_BETA_F1,
    FIGURE8_CORRESPONDENCE,
    FIGURE9_WEAK_SUPERVISION,
    FIGURE10_WS_METHOD_AUC,
)
from repro.experiments.runner import (
    ACTIVE_LEARNING_METHODS,
    enumerate_run_specs,
    get_dataset,
    run_curve_grid,
    run_learning_curves,
    run_method,
)
from repro.neural.featurizer import PairFeaturizer
from repro.visualization.tsne import TSNE, TSNEConfig


def _resolve_settings(settings: ExperimentSettings | None,
                      engine: ExperimentEngine | None = None) -> ExperimentSettings:
    """Explicit settings win; otherwise reuse the engine's, else defaults."""
    if settings is not None:
        return settings
    return engine.settings if engine is not None else default_settings()


# --------------------------------------------------------------------------- #
# Figure 1 — latent-space concentration of match pairs
# --------------------------------------------------------------------------- #
@dataclass
class LatentSpaceReport:
    """Quantified version of Figure 1 for one dataset.

    The paper shows t-SNE scatter plots in which match pairs concentrate in a
    few regions.  The report captures that phenomenon numerically:

    * ``knn_label_agreement`` — fraction of each pair's nearest neighbours (in
      the full representation space) sharing its gold label; values well above
      the positive rate indicate concentration.
    * ``match_centroid_distance_ratio`` — mean distance of match pairs to the
      match centroid divided by the mean distance to the non-match centroid
      (< 1 means matches sit closer to their own centroid).
    * ``embedding`` / ``labels`` — the 2-D t-SNE coordinates for plotting.
    """

    dataset: str
    knn_label_agreement: float
    match_centroid_distance_ratio: float
    positive_rate: float
    embedding: np.ndarray = field(repr=False, default_factory=lambda: np.zeros((0, 2)))
    labels: np.ndarray = field(repr=False, default_factory=lambda: np.zeros(0, dtype=int))

    def as_row(self) -> dict[str, object]:
        return {
            "dataset": self.dataset,
            "knn_label_agreement": round(self.knn_label_agreement, 3),
            "positive_rate": round(self.positive_rate, 3),
            "match_centroid_ratio": round(self.match_centroid_distance_ratio, 3),
        }


def figure1_latent_space(
    dataset_name: str = "amazon_google",
    settings: ExperimentSettings | None = None,
    max_points: int = 400,
    num_neighbors: int = 10,
    run_tsne: bool = True,
) -> LatentSpaceReport:
    """Reproduce Figure 1: representations of a fully trained matcher cluster by label."""
    settings = settings or default_settings()
    dataset = get_dataset(dataset_name, settings)
    full = train_full_matcher(dataset, settings.matcher_config, settings.featurizer_config)

    featurizer = PairFeaturizer(settings.featurizer_config)
    indices = np.asarray(dataset.train_indices)
    rng = np.random.default_rng(settings.base_random_seed)
    if len(indices) > max_points:
        indices = rng.choice(indices, size=max_points, replace=False)
    features = featurizer.transform(dataset, indices)
    representations = full.matcher.embed(features)
    labels = dataset.labels(indices)

    # k-NN label agreement in the representation space.
    index = ExactNearestNeighbors().build(representations)
    neighbor_ids, _ = index.query(representations, k=min(num_neighbors, len(indices) - 1),
                                  exclude_self=True)
    agreement = float(np.mean(labels[neighbor_ids] == labels[:, None]))

    # Centroid distance ratio for match pairs.
    match_mask = labels == 1
    ratio = 1.0
    if match_mask.any() and (~match_mask).any():
        match_centroid = representations[match_mask].mean(axis=0)
        non_match_centroid = representations[~match_mask].mean(axis=0)
        to_match = np.linalg.norm(representations[match_mask] - match_centroid, axis=1).mean()
        to_non_match = np.linalg.norm(representations[match_mask] - non_match_centroid,
                                      axis=1).mean()
        ratio = float(to_match / to_non_match) if to_non_match > 0 else 1.0

    embedding = np.zeros((0, 2))
    if run_tsne and len(indices) >= 5:
        tsne = TSNE(TSNEConfig(num_iterations=150, perplexity=min(30.0, len(indices) / 4)),
                    random_state=settings.base_random_seed)
        embedding = tsne.fit_transform(representations)

    return LatentSpaceReport(
        dataset=dataset_name,
        knn_label_agreement=agreement,
        match_centroid_distance_ratio=ratio,
        positive_rate=float(np.mean(labels)),
        embedding=embedding,
        labels=labels,
    )


# --------------------------------------------------------------------------- #
# Figure 5 — learning curves of all methods on all datasets
# --------------------------------------------------------------------------- #
def figure5_learning_curves(
    settings: ExperimentSettings | None = None,
    dataset_names: tuple[str, ...] | None = None,
    methods: tuple[str, ...] | None = None,
    engine: ExperimentEngine | None = None,
) -> dict[str, dict[str, LearningCurve]]:
    """Reproduce Figure 5: F1 versus labeled samples per dataset and method."""
    settings = _resolve_settings(settings, engine)
    dataset_names = dataset_names or settings.datasets
    methods = methods or ACTIVE_LEARNING_METHODS
    return run_learning_curves(tuple(dataset_names), tuple(methods), settings,
                               engine=engine)


# --------------------------------------------------------------------------- #
# Figure 6 — battleship selection runtime per iteration
# --------------------------------------------------------------------------- #
def _measures_timings_faithfully(engine: ExperimentEngine) -> bool:
    """Whether runs resolved by ``engine`` yield trustworthy wall-clock timings.

    A warm store replays the timings recorded when the artifact was produced,
    and parallel workers contend for cores — either way the measured
    ``selection_seconds`` no longer describe this machine running one job.
    A plan-only engine never measures anything, so there is nothing to
    re-measure — spawning a real timing engine would defeat the dry run.
    """
    if getattr(engine, "plan_only", False):
        return True
    if engine.store is not None:
        return False
    return engine.executor.jobs == 1


def figure6_runtime(
    settings: ExperimentSettings | None = None,
    dataset_names: tuple[str, ...] | None = None,
    engine: ExperimentEngine | None = None,
) -> list[dict[str, object]]:
    """Reproduce Figure 6: battleship runtime (seconds) per iteration.

    The figure reports *measured* runtimes, so given a parallel or
    store-backed engine the runs are re-measured through a dedicated serial,
    store-less engine (with a warning).  The fresh results are then handed
    back to the caller's engine — serial measurements are valid artifacts;
    only *replaying* stored timings is not — so overlapping figures don't
    re-execute the same specs.
    """
    settings = _resolve_settings(settings, engine)
    if engine is not None and engine.settings != settings:
        # Checked before any timing run, not only when adopt_results would
        # reject the finished sweep's results at the very end.
        raise ConfigurationError(
            "figure6_runtime was given settings different from the engine's; "
            "build both from the same ExperimentSettings")
    dataset_names = dataset_names or settings.datasets
    timing_engine = engine
    if engine is not None and not _measures_timings_faithfully(engine):
        warnings.warn(
            "figure 6: re-measuring selection runtimes through a serial, "
            "store-less engine (timings taken under parallel contention or "
            "replayed from artifacts would be invalid)",
            stacklevel=2)
        timing_engine = ExperimentEngine(settings)
    rows: list[dict[str, object]] = []
    try:
        for dataset_name in dataset_names:
            run = run_method(dataset_name, "battleship", settings,
                             engine=timing_engine)
            runtimes = run.selection_runtimes()
            for iteration, seconds in enumerate(runtimes, start=1):
                rows.append({
                    "dataset": dataset_name,
                    "iteration": iteration,
                    "selection_seconds": round(seconds, 3),
                })
    finally:
        # Adopt even on interruption/failure: runs the timing engine did
        # complete would otherwise be lost with it, forcing a resume to
        # re-execute them.
        if timing_engine is not engine:
            engine.adopt_results(timing_engine.cached_results())
            engine.total_report.merge(timing_engine.total_report)
    return rows


# --------------------------------------------------------------------------- #
# Figure 7 — local vs. spatial certainty (β ablation)
# --------------------------------------------------------------------------- #
def figure7_beta_ablation(
    settings: ExperimentSettings | None = None,
    dataset_names: tuple[str, ...] = ABLATION_DATASETS,
    betas: tuple[float, ...] = (0.0, 0.5, 1.0),
    engine: ExperimentEngine | None = None,
) -> dict[str, dict[float, LearningCurve]]:
    """Reproduce Figure 7: battleship with β ∈ {0, 0.5, 1} and α = 0.5."""
    settings = _resolve_settings(settings, engine)
    groups = {
        (dataset_name, beta): enumerate_run_specs(
            dataset_name, "battleship", settings, beta=beta, alphas=(0.5,))
        for dataset_name in dataset_names
        for beta in betas
    }
    curves = run_curve_grid(groups, settings, engine)
    return {
        dataset_name: {beta: curves[(dataset_name, beta)] for beta in betas}
        for dataset_name in dataset_names
    }


def figure7_rows(curves: dict[str, dict[float, LearningCurve]]) -> list[dict[str, object]]:
    """Summary rows (final F1 per β) with the paper's values."""
    rows = []
    for dataset_name, by_beta in curves.items():
        for beta, curve in by_beta.items():
            rows.append({
                "dataset": dataset_name,
                "beta": beta,
                "final_f1": round(curve.final_f1 * 100, 2),
                "paper_final_f1": FIGURE7_BETA_F1.get(dataset_name, {}).get(beta),
            })
    return rows


# --------------------------------------------------------------------------- #
# Figure 8 — the correspondence effect (α = 1, β = 1 vs. DAL)
# --------------------------------------------------------------------------- #
def figure8_correspondence(
    settings: ExperimentSettings | None = None,
    dataset_names: tuple[str, ...] = ABLATION_DATASETS,
    engine: ExperimentEngine | None = None,
) -> list[dict[str, object]]:
    """Reproduce Figure 8: DAL's criterion confined to connected components.

    With α = 1 and β = 1 the battleship approach ranks purely by the model's
    conditional entropy — exactly DAL's criterion — so any remaining difference
    is due to the graph separation and budget distribution (correspondence).
    """
    settings = _resolve_settings(settings, engine)
    groups = {}
    for dataset_name in dataset_names:
        groups[(dataset_name, "battleship")] = enumerate_run_specs(
            dataset_name, "battleship", settings, beta=1.0, alphas=(1.0,))
        groups[(dataset_name, "dal")] = enumerate_run_specs(
            dataset_name, "dal", settings)
    curves = run_curve_grid(groups, settings, engine)

    rows: list[dict[str, object]] = []
    for dataset_name in dataset_names:
        battleship = curves[(dataset_name, "battleship")]
        dal = curves[(dataset_name, "dal")]
        paper = FIGURE8_CORRESPONDENCE.get(dataset_name, {})
        rows.append({
            "dataset": dataset_name,
            "battleship_final_f1": round(battleship.final_f1 * 100, 2),
            "dal_final_f1": round(dal.final_f1 * 100, 2),
            "battleship_auc": round(battleship.auc(), 2),
            "dal_auc": round(dal.auc(), 2),
            "paper_battleship_auc": paper.get("battleship_auc"),
            "paper_dal_auc": paper.get("dal_auc"),
        })
    return rows


# --------------------------------------------------------------------------- #
# Figure 9 — weak supervision on/off
# --------------------------------------------------------------------------- #
def figure9_weak_supervision(
    settings: ExperimentSettings | None = None,
    dataset_names: tuple[str, ...] = ABLATION_DATASETS,
    engine: ExperimentEngine | None = None,
) -> list[dict[str, object]]:
    """Reproduce Figure 9: battleship and DAL with and without weak supervision."""
    settings = _resolve_settings(settings, engine)
    modes = (WeakSupervisionMode.SELECTOR, WeakSupervisionMode.OFF)
    groups = {
        (dataset_name, method, mode): enumerate_run_specs(
            dataset_name, method, settings, weak_supervision=mode)
        for dataset_name in dataset_names
        for method in ("battleship", "dal")
        for mode in modes
    }
    curves = run_curve_grid(groups, settings, engine)

    rows: list[dict[str, object]] = []
    for dataset_name in dataset_names:
        results = {
            method: tuple(curves[(dataset_name, method, mode)] for mode in modes)
            for method in ("battleship", "dal")
        }
        paper = FIGURE9_WEAK_SUPERVISION.get(dataset_name, {})
        rows.append({
            "dataset": dataset_name,
            "battleship_f1": round(results["battleship"][0].final_f1 * 100, 2),
            "battleship_no_ws_f1": round(results["battleship"][1].final_f1 * 100, 2),
            "dal_f1": round(results["dal"][0].final_f1 * 100, 2),
            "dal_no_ws_f1": round(results["dal"][1].final_f1 * 100, 2),
            "paper_battleship_f1": paper.get("battleship"),
            "paper_battleship_no_ws_f1": paper.get("battleship_no_ws"),
            "paper_dal_f1": paper.get("dal"),
            "paper_dal_no_ws_f1": paper.get("dal_no_ws"),
        })
    return rows


# --------------------------------------------------------------------------- #
# Figure 10 — spatial vs. entropy-only weak supervision
# --------------------------------------------------------------------------- #
def figure10_ws_method(
    settings: ExperimentSettings | None = None,
    dataset_names: tuple[str, ...] = ABLATION_DATASETS,
    engine: ExperimentEngine | None = None,
) -> list[dict[str, object]]:
    """Reproduce Figure 10: battleship with its own WS vs. DAL-style WS."""
    settings = _resolve_settings(settings, engine)
    modes = (WeakSupervisionMode.SELECTOR, WeakSupervisionMode.ENTROPY)
    groups = {
        (dataset_name, mode): enumerate_run_specs(
            dataset_name, "battleship", settings, alphas=(0.5,),
            weak_supervision=mode)
        for dataset_name in dataset_names
        for mode in modes
    }
    curves = run_curve_grid(groups, settings, engine)

    rows: list[dict[str, object]] = []
    for dataset_name in dataset_names:
        spatial = curves[(dataset_name, WeakSupervisionMode.SELECTOR)]
        entropy = curves[(dataset_name, WeakSupervisionMode.ENTROPY)]
        paper = FIGURE10_WS_METHOD_AUC.get(dataset_name, {})
        rows.append({
            "dataset": dataset_name,
            "battleship_ws_auc": round(spatial.auc(), 2),
            "dal_style_ws_auc": round(entropy.auc(), 2),
            "battleship_ws_final_f1": round(spatial.final_f1 * 100, 2),
            "dal_style_ws_final_f1": round(entropy.final_f1 * 100, 2),
            "paper_battleship_ws_auc": paper.get("battleship_ws"),
            "paper_dal_style_ws_auc": paper.get("dal_style_ws"),
        })
    return rows
