"""Outside-in tracing for the benchmark's traced pass.

The program has no spans of its own yet, so the traced pass times calls into
each layer's public entry points from here: :func:`install` replaces every
name in :data:`TARGETS` with a timing wrapper *where its caller looks it up*
(a module that did ``from x import f`` holds its own reference to ``f``, so
wrapping ``x.f`` would time nothing), and :func:`uninstall` puts the
originals back before any untraced pass runs.

Spans carry a parent id and live in memory.  A process that is not the one
that installed the wrappers — a forked pool worker of the campaign workload —
writes its buffered spans to ``out_dir`` whenever its span stack empties
(after each job), and :meth:`Tracer.collect` merges those files with the
parent's own spans at the end of the pass.
"""

from __future__ import annotations

import functools
import json
import os
import time
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable


def _result_rows(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"rows": int(result.shape[0])}


def _fit_rows(args: tuple, kwargs: dict, result: Any) -> dict:
    features = kwargs["features"] if "features" in kwargs else args[1]
    return {"rows": len(features)}


def _edges(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"edges": int(result.num_edges)}


def _selection_method(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"method": result.method}


def _written_bytes(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"bytes": os.path.getsize(result)}


def _targets() -> list[tuple[object, str, str, Callable | None]]:
    """``(owner, attribute, span name, measure)`` for every wrapped entry point.

    ``owner`` is the module or class whose namespace the caller resolves the
    name in; ``measure`` extracts counts from the call's arguments/result.
    """
    from repro.active.selectors import (
        BattleshipSelector,
        CommitteeSelector,
        EntropySelector,
        RandomSelector,
        Selector,
    )
    import repro.active.selectors.battleship as battleship
    import repro.clustering.model_selection as model_selection
    import repro.experiments.engine as engine
    from repro.clustering.constrained import ConstrainedKMeans
    from repro.experiments.store import ArtifactStore
    from repro.neural.featurizer import PairFeaturizer
    from repro.neural.matcher import NeuralMatcher

    return [
        (engine, "load_benchmark", "datasets.load_benchmark", None),
        (PairFeaturizer, "transform", "featurizer.transform", _result_rows),
        (NeuralMatcher, "fit", "matcher.fit", _fit_rows),
        (NeuralMatcher, "predict", "matcher.predict", None),
        (NeuralMatcher, "predict_with_representations", "matcher.predict", None),
        (battleship, "cluster_representations", "clustering.cluster", None),
        (model_selection, "select_num_clusters", "clustering.select_k",
         _selection_method),
        (model_selection, "silhouette_score", "clustering.silhouette", None),
        (ConstrainedKMeans, "fit", "clustering.constrained_fit", None),
        (battleship, "build_sparse_adjacency", "graphs.build", _edges),
        (battleship, "certainty_scores_batch", "graphs.certainty", None),
        (battleship, "pagerank_components", "graphs.pagerank", None),
        (BattleshipSelector, "select", "selector.select", None),
        (BattleshipSelector, "select_weak", "selector.select", None),
        (EntropySelector, "select", "selector.select", None),
        (CommitteeSelector, "select", "selector.select", None),
        (RandomSelector, "select", "selector.select", None),
        (Selector, "select_weak", "selector.select", None),
        (engine, "execute_spec", "engine.run", None),
        (ArtifactStore, "put", "store.put", _written_bytes),
        (ArtifactStore, "get", "store.get", None),
    ]


def wrapper_key(owner: object, attribute: str) -> str:
    """Stable name of one wrapper, e.g. ``repro.neural.matcher.NeuralMatcher.fit``."""
    prefix = (owner.__name__ if isinstance(owner, types.ModuleType)
              else f"{owner.__module__}.{owner.__qualname__}")
    return f"{prefix}.{attribute}"


@dataclass
class Span:
    pid: int
    id: int
    parent: int | None
    name: str
    wrapper: str
    phase: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder shared by every wrapper of one traced pass."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.phase = "setup"
        self._home_pid = os.getpid()
        self._pid = self._home_pid
        self._spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._flushes = 0
        self._installed: list[tuple[object, str, Any, Any]] = []

    # -- recording ---------------------------------------------------------
    def _adopt_process(self) -> None:
        """Start a fresh buffer in a forked child (it inherited the parent's)."""
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self._spans = []
            self._stack = []
            self._flushes = 0

    def wrap(self, fn: Callable, name: str, key: str,
             measure: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            tracer._adopt_process()
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
            attrs = measure(args, kwargs, result) if measure is not None else {}
            tracer._spans.append(Span(tracer._pid, span_id, parent, name, key,
                                      tracer.phase, start, end, attrs))
            if not tracer._stack and tracer._pid != tracer._home_pid:
                tracer._flush()
            return result

        traced.__wrapped_by_perfbench__ = True  # type: ignore[attr-defined]
        return traced

    def _flush(self) -> None:
        """Write a worker's buffered spans to ``out_dir`` and clear them."""
        path = self.out_dir / f"spans-{self._pid}-{self._flushes}.json"
        self._flushes += 1
        path.write_text(json.dumps([span.__dict__ for span in self._spans]),
                        encoding="utf-8")
        self._spans = []

    def collect(self) -> list[Span]:
        """The parent's spans plus every span file the workers wrote."""
        spans = list(self._spans)
        for path in sorted(self.out_dir.glob("spans-*.json")):
            spans.extend(Span(**record)
                         for record in json.loads(path.read_text("utf-8")))
        return spans

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Wrap every target; each must be defined on the owner it is read from."""
        if self._installed:
            raise RuntimeError("wrappers are already installed")
        for owner, attribute, name, measure in _targets():
            original = vars(owner).get(attribute)
            if original is None:
                raise RuntimeError(f"{wrapper_key(owner, attribute)} is not "
                                   "defined where its callers look it up")
            key = wrapper_key(owner, attribute)
            wrapped = self.wrap(original, name, key, measure)
            setattr(owner, attribute, wrapped)
            self._installed.append((owner, attribute, original, wrapped))

    def uninstall(self) -> None:
        """Restore every original and check that no wrapper is left behind."""
        for owner, attribute, original, _ in reversed(self._installed):
            setattr(owner, attribute, original)
        leftover = [wrapper_key(owner, attribute)
                    for owner, attribute, original, _ in self._installed
                    if vars(owner).get(attribute) is not original]
        self._installed = []
        if leftover:
            raise RuntimeError(f"wrappers left installed: {leftover}")

    def installed_keys(self) -> list[str]:
        return [wrapper_key(owner, attribute)
                for owner, attribute, _, _ in self._installed]


def all_wrapper_keys() -> list[str]:
    return [wrapper_key(owner, attribute) for owner, attribute, _, _ in _targets()]


def any_wrapper_installed() -> bool:
    """True if any target currently holds a benchmark wrapper."""
    return any(getattr(vars(owner).get(attribute), "__wrapped_by_perfbench__",
                       False)
               for owner, attribute, _, _ in _targets())


def self_seconds(spans: list[Span]) -> dict[tuple[int, int], float]:
    """Each span's duration minus the time covered by its direct children."""
    child_time: dict[tuple[int, int], float] = {}
    for span in spans:
        if span.parent is not None:
            key = (span.pid, span.parent)
            child_time[key] = child_time.get(key, 0.0) + span.seconds
    return {(span.pid, span.id): span.seconds - child_time.get((span.pid, span.id), 0.0)
            for span in spans}
