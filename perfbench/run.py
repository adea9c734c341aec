"""Repository benchmark: labeler wait, sweep time and curve quality.

Run from the repository root::

    python3 perfbench/run.py --workload battleship-small --seed 1 --seconds 36 --trace 0

``--trace 0`` runs one untraced pass and reports the end-to-end metrics of
``BENCHMARK.json``.  ``--trace 1`` runs a one-unit warm-up pass, then an
untraced and a traced pass over the same plan, each sized for half of
``--seconds``, and reports the per-layer metrics; the two passes must
produce identical curves and selections.  Every metric is printed as
``name value unit``; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--record`` stores the
run digests of a correct run in ``perfbench/digests.json`` for the current
environment; later runs of the same plan in the same environment must
reproduce them.

End-to-end times are scaled to a reference machine speed: a fixed numpy
kernel is timed between the segments of a pass, and each segment's times
are multiplied by the speed read at its ends (``workloads.ReferenceClock``).
The times as measured are printed as ``raw.*``.

BLAS and OpenMP thread counts default to 1 on every workload except the
pooled campaign; a thread variable set in the environment is kept.  The
thread environment is printed with every run.

The program is imported from ``./src``; without it the benchmark exits with
code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Workloads that keep the BLAS thread count numpy picks (one per core).  All
#: others default every thread variable to 1 before numpy is imported: an
#: idle second BLAS thread spins on a shared 2-core host, doubles ``cpu_s``,
#: buys no speed and made ``wall_s`` vary by over 20% between runs.  The pooled
#: campaign exists to show that oversubscription, so it is left alone.
UNPINNED_WORKLOADS = ("campaign-pool-tiny",)
#: Per-layer times that read exactly 0 s on every battleship-small run (it
#: never calls the engine or the store); printed, but left out of the result
#: line.  ``engine.worker_busy_share`` carries ``engine.run_s``.
PRINTED_ONLY = ("engine.run_s", "store.put.s", "store.get.s")


def import_program() -> None:
    """Put ``./src`` first on the path and make sure ``repro`` comes from it."""
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {src}/repro; run from the "
                         "repository root")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {src}")


def environment() -> dict[str, object]:
    """What makes timings and float results comparable between runs."""
    import numpy as np

    from workloads import nproc

    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "threads": {name: os.environ.get(name, "unset") for name in THREAD_VARIABLES},
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "simd": config["SIMD Extensions"].get("found", []),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def environment_id(env: dict[str, object]) -> str:
    return hashlib.sha256(json.dumps(env, sort_keys=True).encode()).hexdigest()[:12]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def end_to_end_metrics(result) -> dict[str, tuple[float, str]]:
    from workloads import wait_percentiles

    p50, tail, _ = wait_percentiles(result.waits) if result.waits else (0.0, 0.0, 0.0)
    runs = result.results
    return {
        "setup_s": (result.setup_s, "s"),
        "wall_s": (result.wall_s, "s"),
        "cpu_s": (result.cpu_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "batch_wait_s_p50": (p50, "s"),
        "batch_wait_s_tail": (tail, "s"),
        "final_f1_mean": (_mean([run.final_f1 for run in runs]), "f1"),
        "curve_auc_mean": (_mean([run.learning_curve().auc() for run in runs]), "auc"),
        "positives_labeled_mean": (
            _mean([run.records[-1].num_labeled_positives for run in runs]), "count"),
    }


def per_layer_metrics(spans, untraced, traced, plan) -> dict[str, tuple[float, str]]:
    from tracing import self_seconds

    own = self_seconds(spans)

    def named(name):
        return [span for span in spans if span.name == name]

    def total(name):
        return sum(span.seconds for span in named(name))

    def self_total(name):
        return sum(own[(span.pid, span.id)] for span in named(name))

    def attr_total(name, attr):
        return sum(span.attrs[attr] for span in named(name))

    loads = named("datasets.load_benchmark")
    sweeps = [span for span in named("clustering.select_k")
              if span.attrs["method"] in ("kneedle", "silhouette")]
    kneedle = sum(span.attrs["method"] == "kneedle" for span in sweeps)
    engine_run_s = total("engine.run")
    jobs = traced.jobs
    # Root spans of the sweep; pool workers' roots are shared by the workers.
    home = os.getpid()
    roots = [span for span in spans if span.parent is None and span.phase == "sweep"]
    covered = (sum(span.seconds for span in roots if span.pid == home)
               + sum(span.seconds for span in roots if span.pid != home) / jobs)
    cold, resume = traced.cold_report, traced.resume_report
    return {
        "datasets.load_benchmark.calls": (len(loads), "count"),
        "datasets.load_benchmark.s": (total("datasets.load_benchmark"), "s"),
        "featurizer.transform.calls": (len(named("featurizer.transform")), "count"),
        "featurizer.transform.s": (total("featurizer.transform"), "s"),
        "featurizer.pairs": (attr_total("featurizer.transform", "rows"), "count"),
        "engine.dataset_builds_per_dataset": (len(loads) / len(plan.datasets), "ratio"),
        "matcher.fit.calls": (len(named("matcher.fit")), "count"),
        "matcher.fit.s": (total("matcher.fit"), "s"),
        "matcher.fit.rows": (attr_total("matcher.fit", "rows"), "count"),
        "matcher.predict.calls": (len(named("matcher.predict")), "count"),
        "matcher.predict.s": (total("matcher.predict"), "s"),
        "clustering.select_k.calls": (len(named("clustering.select_k")), "count"),
        "clustering.select_k.self_s": (self_total("clustering.select_k"), "s"),
        "clustering.silhouette.calls": (len(named("clustering.silhouette")), "count"),
        "clustering.silhouette.s": (total("clustering.silhouette"), "s"),
        "clustering.kneedle_hit_ratio": (kneedle / len(sweeps) if sweeps else 0.0, "ratio"),
        "clustering.constrained_fit.calls": (len(named("clustering.constrained_fit")), "count"),
        "clustering.constrained_fit.s": (total("clustering.constrained_fit"), "s"),
        "graphs.build.s": (total("graphs.build"), "s"),
        "graphs.edges": (attr_total("graphs.build", "edges"), "count"),
        "graphs.certainty.s": (total("graphs.certainty"), "s"),
        "graphs.pagerank.s": (total("graphs.pagerank"), "s"),
        "selector.select.calls": (len(named("selector.select")), "count"),
        "selector.select.self_s": (self_total("selector.select"), "s"),
        "engine.runs_executed": (cold.executed, "count"),
        "engine.runs_from_store": (resume.from_store, "count"),
        "engine.retried": (cold.retried + resume.retried, "count"),
        "engine.failed": (cold.failed + resume.failed, "count"),
        "engine.run_s": (engine_run_s, "s"),
        "engine.worker_busy_share": (
            engine_run_s / (jobs * traced.raw_wall_s) if engine_run_s else 0.0, "share"),
        "store.put.calls": (len(named("store.put")), "count"),
        "store.put.s": (total("store.put"), "s"),
        "store.put.bytes": (attr_total("store.put", "bytes"), "bytes"),
        "store.get.calls": (len(named("store.get")), "count"),
        "store.get.s": (total("store.get"), "s"),
        "trace.wall_s": (traced.raw_wall_s, "s"),
        "trace.uncovered_s": (traced.raw_wall_s - covered, "s"),
        # Scaled, so that a change in machine speed between the passes does
        # not pass for tracing cost.
        "trace.overhead_s": (traced.wall_s - untraced.wall_s, "s"),
    }


def compare_digests(label_digests, expected, result, source: str) -> None:
    """Fail every run whose digest differs from ``expected`` (same order)."""
    if len(expected) != len(label_digests):
        result.problems.append(f"{len(label_digests)} run digests, {source} "
                               f"has {len(expected)}")
    for (label, digest), want in zip(label_digests, expected):
        if digest != want:
            result.fail(label, f"digest {digest} differs from {source} {want}")


def load_digests() -> dict:
    if DIGESTS.is_file():
        return json.loads(DIGESTS.read_text(encoding="utf-8"))
    return {"environments": {}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's digests in perfbench/digests.json")
    args = parser.parse_args(argv)

    if args.workload not in UNPINNED_WORKLOADS:
        for name in THREAD_VARIABLES:
            os.environ.setdefault(name, "1")
    import_program()
    import tracing
    from workloads import (EXPECTED_WRAPPERS, WORKLOADS, make_plan, run_pass,
                           wait_percentiles)

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = environment()
    env_id = environment_id(env)
    print(f"env {env_id}: " + json.dumps(env, sort_keys=True))

    work_dir = Path.cwd() / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        if args.trace:
            plan = make_plan(workload, args.seed, args.seconds / 2)
            # The first pass of a process runs ~10% slower; a one-unit pass
            # takes that, so trace.overhead_s compares like with like.
            run_pass(make_plan(workload, args.seed, 0), 1, work_dir / "warm-up")
            untraced = run_pass(plan, 1, work_dir / "untraced")
            tracer = tracing.Tracer(work_dir / "spans")
            tracer.install()
            try:
                traced = run_pass(plan, 1, work_dir / "traced", tracer)
            finally:
                tracer.uninstall()  # raises if any original is not restored
            spans = tracer.collect()
            fired = {span.wrapper for span in spans}
            for key in EXPECTED_WRAPPERS[workload.name]:
                if key not in fired:
                    traced.problems.append(f"wrapper {key} never fired")
            compare_digests(traced.runs, [digest for _, digest in untraced.runs],
                            traced, "the untraced pass")
            passes = [untraced, traced]
            metrics = per_layer_metrics(spans, untraced, traced, plan)
        else:
            plan = make_plan(workload, args.seed, args.seconds)
            untraced = run_pass(plan, workload.setup_repeats, work_dir)
            passes = [untraced]
            metrics = end_to_end_metrics(untraced)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if not any(work_dir.parent.iterdir()):
            work_dir.parent.rmdir()

    recorded = load_digests()["environments"].get(env_id, {}).get("digests", {})
    if plan.key in recorded:
        compare_digests(untraced.runs, recorded[plan.key], untraced,
                        "the recorded digest")
        print(f"digest {untraced.digest} checked against {len(recorded[plan.key])} "
              f"recorded run digests for {plan.key!r}")
    else:
        print(f"digest {untraced.digest} (no recorded digests for {plan.key!r} "
              f"in environment {env_id})")

    attempted = sum(result.attempted for result in passes)
    failed = sum(len(result.failures) for result in passes)
    problems = [problem for result in passes for problem in result.problems]
    correct = failed == 0 and not problems
    if args.record and correct and not args.trace:
        store = load_digests()
        entry = store["environments"].setdefault(env_id, {"env": env, "digests": {}})
        entry["digests"][plan.key] = [digest for _, digest in untraced.runs]
        DIGESTS.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")

    if untraced.waits:
        _, _, percentile = wait_percentiles(untraced.waits)
        print(f"batch_wait_s_tail is p{percentile:.1f} of {len(untraced.waits)} samples")
    print(f"plan {plan.key}: datasets {', '.join(plan.datasets)}; "
          f"base seed {plan.settings.base_random_seed}; units {list(plan.units)}")
    for problem in problems:
        print(f"CHECK FAILED {problem}")
    print(f"failed_share {failed / attempted if attempted else 1.0} share")
    speeds = [speed for result in passes for speed in result.speeds]
    print(f"machine_speed {statistics.median(speeds)} x")
    print(f"machine speed read {len(speeds)} times, {min(speeds):.3f}x to "
          f"{max(speeds):.3f}x of the reference; end-to-end times are scaled to it")
    for name in ("setup_s", "wall_s", "cpu_s"):
        print(f"raw.{name} {getattr(untraced, 'raw_' + name)} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                    if name not in PRINTED_ONLY},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
