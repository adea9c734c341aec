"""Workloads of the repository benchmark and the passes that run them.

Each workload turns ``(seed, seconds)`` into a fixed plan of *units* — the
program only ever receives the settings, run seeds and specs derived from
the seed — and runs that plan in one pass:

* a **serial** pass (``battleship-small``, ``baselines-small``) generates and
  featurizes its datasets (set-up), then calls ``run_single`` once per
  (dataset, seed, method) with an oracle that marks every label batch;
* a **campaign** pass (``campaign-tiny``, ``campaign-pool-tiny``) enumerates
  a grid of ``RunSpec`` jobs, runs it through ``ExperimentEngine`` — serially,
  or on ``ParallelExecutor(nproc)`` — into a cold ``ArtifactStore``, then
  resolves the same grid again from the store with a fresh engine.

Every pass checks its outputs (see :func:`check_run`) and digests curves and
selected pairs, so a change that alters selections shows up as a digest
mismatch rather than as a silent speed-up.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import repro
from repro.active import ActiveLearningResult, PerfectOracle
from repro.experiments import (
    ACTIVE_LEARNING_METHODS,
    ArtifactStore,
    EngineReport,
    ExperimentEngine,
    ExperimentSettings,
    ParallelExecutor,
    SerialExecutor,
    clear_dataset_cache,
    default_settings,
    enumerate_run_specs,
    get_dataset,
    get_feature_matrix,
    method_factory,
    run_single,
)

#: Datasets of the serial workloads: the two cheapest at ``small`` scale, so
#: a run of under a minute still holds several units.
DATASETS = ("wdc_cameras", "wdc_shoes")
#: Datasets of the campaigns, smallest first at ``tiny`` scale.
CAMPAIGN_DATASETS = ("wdc_cameras", "wdc_shoes", "abt_buy", "walmart_amazon",
                     "amazon_google", "dblp_scholar")


@dataclass(frozen=True)
class Workload:
    name: str
    scale: str
    methods: tuple[str, ...]
    #: Approximate cost of one unit on 2 cores when the benchmark was
    #: defined; a plan for ``seconds`` holds ``ceil(seconds / unit_seconds)``
    #: units.  Fixed, so the plan (and its digest) depends on the seed alone.
    unit_seconds: float
    campaign: bool = False
    #: Campaigns only: run the grid on a pool of ``nproc`` workers instead of
    #: serially in the benchmark process.
    pool: bool = False
    #: Campaigns only: launches per untraced pass; ``setup_s`` is their
    #: median.  A serial pass sets up once per unit instead.
    setup_repeats: int = 3


WORKLOADS = {
    workload.name: workload for workload in (
        Workload("battleship-small", "small", ("battleship",), 12.0),
        Workload("baselines-small", "small", ("dal", "dial", "random"), 16.5),
        Workload("campaign-tiny", "tiny", ACTIVE_LEARNING_METHODS, 15.0,
                 campaign=True),
        # The one workload whose BLAS is not pinned (see run.py): each
        # worker's BLAS starts one thread per core, so the pool is
        # oversubscribed; its times vary by ±20–30% between runs.
        Workload("campaign-pool-tiny", "tiny", ACTIVE_LEARNING_METHODS, 27.0,
                 campaign=True, pool=True),
    )
}

#: Wrappers each workload must fire in its traced pass (tracing.wrapper_key).
_COMMON = (
    "repro.experiments.engine.load_benchmark",
    "repro.neural.featurizer.PairFeaturizer.transform",
    "repro.neural.matcher.NeuralMatcher.fit",
    "repro.neural.matcher.NeuralMatcher.predict",
    "repro.neural.matcher.NeuralMatcher.predict_with_representations",
)
_BATTLESHIP = (
    "repro.active.selectors.battleship.cluster_representations",
    "repro.clustering.model_selection.select_num_clusters",
    "repro.clustering.model_selection.silhouette_score",
    "repro.clustering.constrained.ConstrainedKMeans.fit",
    "repro.active.selectors.battleship.build_sparse_adjacency",
    "repro.active.selectors.battleship.certainty_scores_batch",
    "repro.active.selectors.battleship.pagerank_components",
    "repro.active.selectors.battleship.BattleshipSelector.select",
    "repro.active.selectors.battleship.BattleshipSelector.select_weak",
)
_BASELINES = (
    "repro.active.selectors.entropy.EntropySelector.select",
    "repro.active.selectors.committee.CommitteeSelector.select",
    "repro.active.selectors.random_selector.RandomSelector.select",
    "repro.active.selectors.base.Selector.select_weak",
)
_ENGINE = (
    "repro.experiments.engine.execute_spec",
    "repro.experiments.store.ArtifactStore.put",
    "repro.experiments.store.ArtifactStore.get",
)
EXPECTED_WRAPPERS = {
    "battleship-small": _COMMON + _BATTLESHIP,
    "baselines-small": _COMMON + _BASELINES,
    "campaign-tiny": _COMMON + _BATTLESHIP + _BASELINES + _ENGINE,
    "campaign-pool-tiny": _COMMON + _BATTLESHIP + _BASELINES + _ENGINE,
}


@dataclass(frozen=True)
class Plan:
    """Everything one pass runs, derived from the workload seed alone."""

    workload: Workload
    seed: int
    settings: ExperimentSettings
    datasets: tuple[str, ...]
    #: ``(dataset, generation seed, run seed)`` per unit.  Serial units each
    #: draw their own dataset; a campaign's units share the base seed.
    units: tuple[tuple[str, int, int], ...]
    seconds: float

    @property
    def key(self) -> str:
        return f"{self.workload.name} seed={self.seed} units={len(self.units)}"

    def unit_settings(self, generation_seed: int) -> ExperimentSettings:
        """The settings a unit's dataset is generated and run with."""
        return replace(self.settings, base_random_seed=generation_seed)


def make_plan(workload: Workload, seed: int, seconds: float) -> Plan:
    """Derive the datasets' generation seeds and the run seeds from ``seed``.

    Each serial unit draws its own dataset, so a run averages over several
    draws instead of riding on one.  The derivation ignores the workload, so
    both serial workloads run the same datasets with the same seeds.
    """
    count = max(1, math.ceil(seconds / workload.unit_seconds))
    state = [int(s % 100_000)
             for s in np.random.SeedSequence(seed).generate_state(1 + 2 * count)]
    base_seed = state[0]
    if workload.campaign:
        # One unit is one dataset × every method; both seeds are the base seed.
        datasets = CAMPAIGN_DATASETS[:min(count, len(CAMPAIGN_DATASETS))]
        units = tuple((name, base_seed, base_seed) for name in datasets)
    else:
        datasets = DATASETS
        units = tuple((DATASETS[i % len(DATASETS)], state[1 + 2 * i], state[2 + 2 * i])
                      for i in range(count))
    settings = replace(default_settings(workload.scale, datasets=datasets),
                       base_random_seed=base_seed)
    return Plan(workload, seed, settings, datasets, units, seconds)


#: Mean time of :func:`reference_kernel` on the 2-core VM the benchmark was
#: defined on.  Reported times are scaled to it.
REFERENCE_KERNEL_S = 0.022
#: Kernel runs per speed reading (~0.2 s); the reading uses their mean, as
#: the program's own time integrates the machine's speed over its segment.
KERNEL_REPEATS = 8


def reference_kernel() -> float:
    """Seconds a fixed mix of the program's kind of work takes now.

    Mini-batch products of an MLP (as in matcher training) and a pairwise
    distance matrix (as in silhouette scores), in numpy only, so that no
    change to the program changes it.
    """
    rng = np.random.default_rng(0)
    data = rng.standard_normal((240, 64))
    first = rng.standard_normal((64, 256)) * 0.1
    second = rng.standard_normal((256, 128)) * 0.1
    points = rng.standard_normal((300, 128))
    start = time.perf_counter()
    for _ in range(5):
        for begin in range(0, len(data), 12):
            batch = data[begin:begin + 12]
            hidden = np.tanh(batch @ first)
            out = np.tanh(hidden @ second)
            grad = ((1.0 - out * out) @ second.T) * (1.0 - hidden * hidden)
            first -= 1e-3 * (batch.T @ grad)
        squared = (points * points).sum(axis=1)
        distances = np.sqrt(np.maximum(
            squared[:, None] + squared[None, :] - 2.0 * (points @ points.T), 0.0))
        distances.mean(axis=1)
    return time.perf_counter() - start


def machine_speed() -> float:
    """How fast this machine runs right now relative to the reference: the
    kernel's reference time over the mean of its timings now."""
    return REFERENCE_KERNEL_S / statistics.fmean(
        reference_kernel() for _ in range(KERNEL_REPEATS))


@dataclass(frozen=True)
class Segment:
    """A stretch of a pass between two speed readings."""

    wall: float
    cpu: float
    #: Mean machine speed at the segment's two ends.
    factor: float


class ReferenceClock:
    """Splits a pass into segments and scales their times to the reference.

    A shared host's speed drifts by tens of percent within minutes, for the
    program and the kernel alike.  :meth:`mark` ends the running segment,
    reads the speed and starts the next one, so the readings themselves are
    in no segment; a segment's times are multiplied by the mean speed at its
    two ends, so a reported second is a second at the reference speed.
    """

    def __init__(self) -> None:
        self.speeds = [machine_speed()]
        self._restart()

    def _restart(self) -> None:
        self._cpu_start, self._start = _cpu_seconds(), time.perf_counter()

    def mark(self) -> Segment:
        wall, cpu = time.perf_counter() - self._start, _cpu_seconds() - self._cpu_start
        self.speeds.append(machine_speed())
        self._restart()
        return Segment(wall, cpu, (self.speeds[-2] + self.speeds[-1]) / 2)


class RecordingOracle(PerfectOracle):
    """Perfect oracle that marks the clock at every label batch the loop sends.

    The segment between consecutive batches is the labeler's wait: train,
    evaluate, predict, select and weak labels of one iteration.
    """

    def __init__(self, dataset, clock: ReferenceClock) -> None:
        super().__init__(dataset)
        self.clock = clock
        #: The segment that ended at each batch.
        self.segments: list[Segment] = []
        self.batches: list[list[int]] = []

    def query_many(self, pair_indices):
        self.segments.append(self.clock.mark())
        indices = [int(index) for index in pair_indices]
        self.batches.append(indices)
        return super().query_many(indices)

    def waits(self) -> list[float]:
        """Scaled waits: the segments after the seed batch."""
        return [segment.wall * segment.factor for segment in self.segments[1:]]


@dataclass
class PassResult:
    """A pass's outcome.  ``setup_s``, ``wall_s``, ``cpu_s`` and ``waits`` are
    scaled to the reference speed (see :class:`ReferenceClock`); the
    ``raw_*`` fields hold the same times as measured."""

    setup_s: float
    raw_setup_s: float
    wall_s: float = 0.0
    cpu_s: float = 0.0
    raw_wall_s: float = 0.0
    raw_cpu_s: float = 0.0
    #: Machine speed at each segment boundary of the pass.
    speeds: list[float] = field(default_factory=list)
    waits: list[float] = field(default_factory=list)
    results: list[ActiveLearningResult] = field(default_factory=list)
    #: One ``(label, digest)`` per run that returned, in plan order.
    runs: list[tuple[str, str]] = field(default_factory=list)
    attempted: int = 0
    #: Labels of runs that raised or failed a check.
    failures: set[str] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    cold_report: EngineReport = field(default_factory=EngineReport)
    resume_report: EngineReport = field(default_factory=EngineReport)
    jobs: int = 1

    @property
    def digest(self) -> str:
        joined = "".join(digest for _, digest in self.runs)
        return hashlib.sha256(joined.encode()).hexdigest()[:16]

    def fail(self, label: str, problem: str) -> None:
        self.failures.add(label)
        self.problems.append(f"{label}: {problem}")

    def add(self, segments: list[Segment]) -> None:
        for segment in segments:
            self.raw_wall_s += segment.wall
            self.raw_cpu_s += segment.cpu
            self.wall_s += segment.wall * segment.factor
            self.cpu_s += segment.cpu * segment.factor


def _scaled_setup(setup_times: list[float], segment: Segment) -> dict[str, float]:
    raw = statistics.median(setup_times)
    return {"setup_s": raw * segment.factor, "raw_setup_s": raw}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _run_digest(result: ActiveLearningResult, batches: list[list[int]] | None) -> str:
    """Hash of a run's curve and selections; wall-clock fields are left out."""
    records = [{key: value for key, value in record.to_dict().items()
                if key not in ("train_seconds", "selection_seconds")}
               for record in result.records]
    payload = {"dataset": result.dataset_name, "selector": result.selector_name,
               "records": records, "batches": batches}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_run(result: ActiveLearningResult, settings: ExperimentSettings,
              batches: list[list[int]] | None) -> list[str]:
    """Problems with one run's output (empty when it is correct)."""
    problems = []
    labeled = tuple(record.num_labeled for record in result.records)
    if labeled != settings.labeled_checkpoints:
        problems.append(f"records at {labeled}, expected checkpoints "
                        f"{settings.labeled_checkpoints}")
    if batches is not None:
        flat = [index for batch in batches for index in batch]
        if len(flat) != len(set(flat)):
            problems.append("a pair was sent to the labeler twice")
        limits = [settings.seed_size] + [settings.budget_per_iteration] * settings.iterations
        if len(batches) != len(limits):
            problems.append(f"{len(batches)} label batches, expected {len(limits)}")
        over = [i for i, (batch, limit) in enumerate(zip(batches, limits))
                if len(batch) > limit]
        if over:
            problems.append(f"label batches {over} exceed their budget")
    return problems


def _record_run(out: PassResult, label: str, result: ActiveLearningResult,
                settings: ExperimentSettings, batches: list[list[int]] | None) -> None:
    out.results.append(result)
    out.runs.append((label, _run_digest(result, batches)))
    for problem in check_run(result, settings, batches):
        out.fail(label, problem)


def run_serial_pass(plan: Plan, tracer=None) -> PassResult:
    """Set up every unit's dataset (median set-up reported), then run them.

    The clock is marked at every label batch and when a run returns.
    """
    clear_dataset_cache()
    clock = ReferenceClock()
    setup_times = []
    for dataset_name, generation_seed, _ in plan.units:
        settings = plan.unit_settings(generation_seed)
        start = time.perf_counter()
        get_dataset(dataset_name, settings)
        get_feature_matrix(dataset_name, settings)
        setup_times.append(time.perf_counter() - start)
    out = PassResult(**_scaled_setup(setup_times, clock.mark()))
    if tracer is not None:
        tracer.phase = "sweep"

    finished: list[tuple[str, ActiveLearningResult, RecordingOracle, ExperimentSettings]] = []
    for dataset_name, generation_seed, run_seed in plan.units:
        settings = plan.unit_settings(generation_seed)
        dataset = get_dataset(dataset_name, settings)
        features = get_feature_matrix(dataset_name, settings)
        for method in plan.workload.methods:
            label = f"{dataset_name}@{generation_seed}/{method}/seed={run_seed}"
            out.attempted += 1
            oracle = RecordingOracle(dataset, clock)
            selector = method_factory(method)(settings.alphas[0], settings.beta)
            try:
                result = run_single(dataset, selector, settings, run_seed,
                                    oracle=oracle, features=features)
            except Exception:
                out.fail(label, f"raised:\n{traceback.format_exc()}")
                continue
            finally:
                out.add(oracle.segments + [clock.mark()])
            out.waits.extend(oracle.waits())
            finished.append((label, result, oracle, settings))
    out.speeds = clock.speeds

    for label, result, oracle, settings in finished:
        _record_run(out, label, result, settings, oracle.batches)
    return out


def prepare_campaign(plan: Plan, root: Path):
    """The grid's specs and an engine over a cold store at ``root``.

    Method-major, so the longest jobs (battleship) start first and a pool
    does not end on one worker running a long job alone.
    """
    specs = [spec for method in plan.workload.methods for name in plan.datasets
             for spec in enumerate_run_specs(name, method, plan.settings)]
    executor = (ParallelExecutor(jobs=nproc()) if plan.workload.pool
                else SerialExecutor())
    return specs, ExperimentEngine(plan.settings, executor, ArtifactStore(root))


def _launch_seconds(plan: Plan, root: Path) -> float:
    """Wall time of a fresh interpreter that imports the program and prepares
    the campaign (enumerate the grid, open a cold store, build the engine)."""
    paths = [str(Path(repro.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    code = (f"import sys; sys.path[:0] = {paths!r}; import workloads; "
            f"workloads.prepare_campaign(workloads.make_plan("
            f"workloads.WORKLOADS[{plan.workload.name!r}], {plan.seed}, "
            f"{plan.seconds!r}), workloads.Path({str(root)!r}))")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    return time.perf_counter() - start


def run_campaign_pass(plan: Plan, setup_repeats: int, work_dir: Path,
                      tracer=None) -> PassResult:
    """Cold sweep into a fresh store, then a resume from that store.

    Set-up is what launching the sweep costs before its first run: a fresh
    interpreter imports the program, enumerates the grid and opens a cold
    store.  Datasets and feature matrices are built by the engine's own
    caches (per worker in a pool), as a real sweep does, so that cost lands
    in ``wall_s``.  A serial engine is handed the grid one job at a time, each
    job one segment of the :class:`ReferenceClock`; a pool gets the whole grid
    at once, so it is not drained between jobs.  The resume is a segment of
    its own.
    """
    root = work_dir / "store"
    clock = ReferenceClock()
    setup_times = []
    for _ in range(setup_repeats):
        setup_times.append(_launch_seconds(plan, root))
        shutil.rmtree(root)
    specs, engine = prepare_campaign(plan, root)
    settings = plan.settings
    clear_dataset_cache()  # a launched sweep starts with empty caches
    out = PassResult(**_scaled_setup(setup_times, clock.mark()),
                     jobs=nproc() if plan.workload.pool else 1)
    if tracer is not None:
        tracer.phase = "sweep"

    labels = {spec: f"{spec.dataset}/{spec.method}/seed={spec.seed}" for spec in specs}
    out.attempted = len(specs)
    cold: dict = {}
    #: Scale factor of the segment each spec ran in.
    factors: dict = {}
    try:
        for batch in [specs] if plan.workload.pool else [[spec] for spec in specs]:
            cold.update(engine.run(batch))
            out.cold_report.merge(engine.last_report)
            segment = clock.mark()
            out.add([segment])
            factors.update(dict.fromkeys(batch, segment.factor))
        _, resume_engine = prepare_campaign(plan, root)
        resumed = resume_engine.run(specs)
        out.resume_report = resume_engine.last_report
        out.add([clock.mark()])
    except Exception:
        out.failures.update(labels.values())
        out.problems.append(f"campaign raised:\n{traceback.format_exc()}")
        return out
    finally:
        out.speeds = clock.speeds

    if out.cold_report.executed != len(specs):
        out.problems.append(f"cold pass executed {out.cold_report.executed} of "
                            f"{len(specs)} runs")
    if out.resume_report.executed or out.resume_report.from_store != len(specs):
        out.problems.append(f"resume pass executed {out.resume_report.executed} "
                            f"runs and loaded {out.resume_report.from_store} of "
                            f"{len(specs)} from the store")
    for spec, label in labels.items():
        if spec not in cold:
            out.fail(label, "no result from the cold pass")
            continue
        result = cold[spec]
        if spec not in resumed or resumed[spec].to_dict() != result.to_dict():
            out.fail(label, "resumed result differs from the cold one")
        # The loop's own timings stand in for the labeler wait: the engine
        # builds its own oracle, so evaluation and prediction are left out.
        out.waits.extend((record.train_seconds + record.selection_seconds) * factors[spec]
                         for record in result.records[:-1])
        _record_run(out, label, result, settings, None)
    return out


def run_pass(plan: Plan, setup_repeats: int, work_dir: Path, tracer=None) -> PassResult:
    """One pass over ``plan``; ``setup_repeats`` applies to campaigns only
    (a serial pass sets up once per unit)."""
    if plan.workload.campaign:
        return run_campaign_pass(plan, setup_repeats, work_dir, tracer)
    return run_serial_pass(plan, tracer)


def wait_percentiles(samples: list[float]) -> tuple[float, float, float]:
    """``(p50, tail, tail percentile)`` of the labeler waits.

    The tail is the highest percentile with at least ten samples above it;
    with fewer than 20 samples no such percentile lies above the median, and
    the median is reported as the tail.
    """
    ordered = sorted(samples)
    median = statistics.median(ordered)
    if len(ordered) < 20:
        return median, median, 50.0
    index = len(ordered) - 11
    return median, ordered[index], 100.0 * (index + 1) / len(ordered)
