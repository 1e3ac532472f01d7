"""Timing wrappers installed around the public entry points of ``repro``.

The traced pass of the benchmark measures every ``src/repro`` layer from
outside: :func:`install` replaces a fixed list of functions and methods with
wrappers that time each call and hand the call's arguments and result to a
counter.  Nothing under ``src/`` is edited, and a wrapper never touches a
random generator, so a traced trial plan produces the same results, bit for
bit, as an untraced one (the benchmark checks this on every traced run).

Two kinds of boundary are recorded:

* a *layer span* (materialise, dispatch, engine, store write, campaign,
  artifact, render) is kept in memory as ``(name, start, end, parent)``;
* a *hot call* (coefficient draw, encode, eliminate, store read) happens up
  to a million times per trial, so it is folded into per-name call counts and
  times instead of a span each.

Every boundary reports its self time: its duration minus the time spent in
wrapped calls nested inside it.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Any, Callable

#: Span names of the three engine families, keyed by the family name the
#: dispatch counters use.
ENGINE_SPANS = {
    "gossip.engine.event": "event",
    "gossip.engine.batch": "batch",
    "gossip.engine.scalar": "scalar",
}


class Tracer:
    """In-memory recorder of spans, per-name call times and counters."""

    def __init__(self) -> None:
        #: Layer spans as ``[name, start, end, parent_index]`` (``-1``: root).
        self.spans: list[list[Any]] = []
        #: ``name -> [calls, inclusive seconds, self seconds]``.
        self.calls: dict[str, list[float]] = {}
        #: Counters fed by the result observers (timeslots, store hits, ...).
        self.counts: dict[str, float] = {}
        #: Open frames as ``[name, start, child seconds, span index]``.
        self._stack: list[list[Any]] = []

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def inside(self, prefix: str) -> bool:
        """Whether a wrapped call whose name starts with ``prefix`` is open."""
        return any(frame[0].startswith(prefix) for frame in self._stack)

    def wrap(
        self,
        name: str,
        function: Callable,
        *,
        span: bool,
        observe: "Callable[[Tracer, tuple, Any], None] | None" = None,
    ) -> Callable:
        """A timing wrapper around ``function`` that records under ``name``."""
        stack = self._stack
        spans = self.spans
        stats = self.calls.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = -1
            if span:
                parent = next(
                    (frame[3] for frame in reversed(stack) if frame[3] >= 0), -1
                )
                index = len(spans)
                spans.append([name, 0.0, 0.0, parent])
            frame = [name, clock(), 0.0, index]
            stack.append(frame)
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[2]
                if span:
                    spans[index][1] = frame[1]
                    spans[index][2] = end
            if observe is not None:
                observe(self, args, result)
            return result

        traced.__wrapped__ = function
        return traced

    def self_seconds(self, *names: str) -> float:
        return sum(self.calls.get(name, (0, 0.0, 0.0))[2] for name in names)

    def inclusive_seconds(self, *names: str) -> float:
        return sum(self.calls.get(name, (0, 0.0, 0.0))[1] for name in names)

    def call_count(self, name: str) -> int:
        return int(self.calls.get(name, (0, 0.0, 0.0))[0])


# ----------------------------------------------------------------------
# Observers: counters read from arguments and results, never from an RNG.
# ----------------------------------------------------------------------
def _observe_engine(family: str) -> Callable[[Tracer, tuple, Any], None]:
    def observe(tracer: Tracer, args: tuple, result: Any) -> None:
        if tracer.inside("gossip.engine"):
            return  # an engine run nested in another one is counted there
        results = result if isinstance(result, list) else [result]
        if tracer.inside("experiments.dispatch"):
            tracer.add(f"experiments.trials_{family}", len(results))
        for run in results:
            tracer.add("gossip.timeslots", run.timeslots)
            tracer.add("gossip.deliveries", run.messages_sent)
            tracer.add("gossip.helpful", run.helpful_messages)
            if "phase1_rounds" in run.metadata:
                tracer.add("protocols.tag_trials", 1)
                tracer.add("protocols.tree_rounds", run.metadata["phase1_rounds"])
                tracer.add("protocols.tree_depth", run.metadata.get("tree_depth", 0))

    return observe


def _observe_eliminate(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("backends.eliminate.rows", len(args[1]))


def _observe_receive(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("rlnc.receive.rows", len(result))
    tracer.add("rlnc.receive.helpful", int(result.sum()))


def _observe_get(tracer: Tracer, args: tuple, result: Any) -> None:
    if result is not None:
        tracer.add("store.hits", 1)


def _observe_put_many(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.add("store.records_put", result)


# (module, attribute path, recorded name, layer span?, observer)
_TARGETS: tuple[tuple[str, str, str, bool, Any], ...] = (
    ("repro.scenarios.spec", "ScenarioSpec.materialize", "scenarios.materialize", True, None),
    ("repro.scenarios.spec", "ScenarioSpec.materialize_csr", "scenarios.materialize", True, None),
    ("repro.experiments.parallel", "measure_protocol_parallel", "experiments.dispatch", True, None),
    ("repro.gossip.event", "EventGossipEngine.run", "gossip.engine.event", True, _observe_engine("event")),
    ("repro.gossip.batch", "run_rank_only_batch", "gossip.engine.batch", True, _observe_engine("batch")),
    ("repro.gossip.batch_tag", "run_tag_batch", "gossip.engine.batch", True, _observe_engine("batch")),
    ("repro.gossip.engine", "GossipEngine.run", "gossip.engine.scalar", True, _observe_engine("scalar")),
    ("repro.gf.field", "GaloisField.random_elements", "gf.random_elements", False, None),
    ("repro.backends.gf2bit", "PackedGf2Eliminator.combine_one", "backends.combine_one", False, None),
    ("repro.backends.gf2bit", "PackedGf2Eliminator.eliminate_one", "backends.eliminate_one", False, None),
    ("repro.backends.gf2bit", "PackedGf2Eliminator.combine", "backends.combine", False, None),
    ("repro.backends.gf2bit", "PackedGf2Eliminator.eliminate", "backends.eliminate", False, _observe_eliminate),
    ("repro.gf.linalg", "BatchEliminator.combine_one", "backends.combine_one", False, None),
    ("repro.gf.linalg", "BatchEliminator.eliminate_one", "backends.eliminate_one", False, None),
    ("repro.gf.linalg", "BatchEliminator.combine", "backends.combine", False, None),
    ("repro.gf.linalg", "BatchEliminator.eliminate", "backends.eliminate", False, _observe_eliminate),
    ("repro.rlnc.batch", "BatchDecoder.encode", "rlnc.encode", False, None),
    ("repro.rlnc.batch", "BatchDecoder.receive", "rlnc.receive", False, _observe_receive),
    ("repro.store.result_store", "ResultStore.put_many", "store.put_many", True, _observe_put_many),
    ("repro.store.result_store", "ResultStore.get", "store.get", False, _observe_get),
    ("repro.campaigns.runner", "run_campaign", "campaigns.run", True, None),
    ("repro.campaigns.report", "render_markdown", "campaigns.render", True, None),
    ("repro.campaigns.report", "render_html", "campaigns.render", True, None),
)


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every loaded ``repro`` module's name for ``original`` at ``replacement``.

    Functions are re-exported (``repro.gossip.run_tag_batch``) and imported
    by name (``repro.campaigns.runner.measure_protocol_parallel``), so
    patching only the defining module would miss those callers.
    """
    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.split(".")[0] != "repro":
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the already imported ``repro`` package."""
    for module_name, path, name, span, observe in _TARGETS:
        owner: Any = importlib.import_module(module_name)
        *classes, attribute = path.split(".")
        for class_name in classes:
            owner = getattr(owner, class_name)
        original = vars(owner)[attribute]
        replacement = tracer.wrap(name, original, span=span, observe=observe)
        if classes:
            setattr(owner, attribute, replacement)
        else:
            _rebind(original, replacement)
    # Artifact builders are dispatched through the runner's kind -> builder
    # table, so they are wrapped in the table itself.
    runner = importlib.import_module("repro.campaigns.runner")
    builders = runner._ARTIFACT_BUILDERS
    for kind, builder in list(builders.items()):
        builders[kind] = tracer.wrap("campaigns.artifact", builder, span=True)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by their benchmark names."""
    count = tracer.counts.get
    engines = tuple(ENGINE_SPANS)
    metrics: dict[str, float] = {
        "scenarios.materialize_s": tracer.self_seconds("scenarios.materialize"),
        "experiments.dispatch_self_s": tracer.self_seconds("experiments.dispatch"),
    }
    for family in ENGINE_SPANS.values():
        metrics[f"experiments.trials_{family}"] = count(f"experiments.trials_{family}", 0)
    timeslots = count("gossip.timeslots", 0)
    metrics.update(
        {
            "gossip.engine_s": tracer.self_seconds(*engines),
            "gossip.us_per_timeslot": 1e6 * _ratio(tracer.inclusive_seconds(*engines), timeslots),
            "gossip.timeslots": timeslots,
            "gossip.deliveries": count("gossip.deliveries", 0),
            "gossip.helpful_frac": _ratio(count("gossip.helpful", 0), count("gossip.deliveries", 0)),
        }
    )
    for name in (
        "gf.random_elements",
        "backends.combine_one",
        "backends.eliminate_one",
        "backends.combine",
        "backends.eliminate",
        "rlnc.encode",
        "rlnc.receive",
    ):
        metrics[f"{name}.calls"] = tracer.call_count(name)
        metrics[f"{name}.s"] = tracer.self_seconds(name)
    metrics["backends.eliminate.rows_per_call"] = _ratio(
        count("backends.eliminate.rows", 0), tracer.call_count("backends.eliminate")
    )
    metrics["rlnc.receive.helpful_frac"] = _ratio(
        count("rlnc.receive.helpful", 0), count("rlnc.receive.rows", 0)
    )
    tag_trials = count("protocols.tag_trials", 0)
    metrics["protocols.tree_rounds"] = _ratio(count("protocols.tree_rounds", 0), tag_trials)
    metrics["protocols.tree_depth"] = _ratio(count("protocols.tree_depth", 0), tag_trials)
    metrics.update(
        {
            "store.put_many.s": tracer.self_seconds("store.put_many"),
            "store.get.calls": tracer.call_count("store.get"),
            "store.get.s": tracer.self_seconds("store.get"),
            "store.records_put": count("store.records_put", 0),
            "store.hits": count("store.hits", 0),
            "campaigns.units_self_s": tracer.self_seconds("campaigns.run"),
            "campaigns.artifacts_s": tracer.self_seconds("campaigns.artifact"),
            "campaigns.render_s": tracer.self_seconds("campaigns.render"),
        }
    )
    return metrics
