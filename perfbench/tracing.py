"""Traced runs: spans around the calls into each layer's public entry points.

:class:`Instrumentation` wraps the entry points listed in
:func:`_function_targets` and :func:`_method_targets` for the duration
of a ``with`` block; nothing under ``src/`` is changed.  A function that
callers import by name (``from repro.runtime.workload import
make_workload``) is re-bound in every ``repro`` module that holds it, so
each caller resolves the wrapper.  Each wrapped call records a span in
the current :class:`SpanRecorder`; a span's self time is its duration
minus the durations of its child spans.
"""

import functools
import sys
import time
from collections import Counter
from typing import Any, Callable

#: Root span around one whole iteration; its self time is the part of
#: the iteration no layer span covers.
ITERATION = "iteration"

#: Layers measured by span, in the order the per-layer metrics list them.
LAYERS = (
    "workload",
    "time_layer",
    "graph.lower",
    "graph.schedule",
    "serve.loop",
    "serve.step_cost",
    "fleet.engine",
    "fleet.route",
    "traffic",
    "export",
)


class SpanRecorder:
    """Spans and counts of one traced iteration, kept in memory.

    ``clock`` returns integer nanoseconds; tests pass a fake one.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self._clock = clock
        self._stack: list[list[Any]] = []  # [layer, start_ns, child_ns]
        #: Closed spans as ``(layer, start_ns, end_ns, depth)``.
        self.spans: list[tuple[str, int, int, int]] = []
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.total_ns: Counter[str] = Counter()
        #: Plain counters: DES events, graph nodes, serve steps, ...
        self.counts: Counter[str] = Counter()
        #: Step-cost models seen, for their per-bucket memo statistics.
        self.step_models: dict[int, Any] = {}

    def enter(self, layer: str) -> None:
        self._stack.append([layer, self._clock(), 0])

    def exit(self) -> None:
        layer, start, child_ns = self._stack.pop()
        end = self._clock()
        duration = end - start
        self.calls[layer] += 1
        self.self_ns[layer] += duration - child_ns
        self.total_ns[layer] += duration
        if self._stack:
            self._stack[-1][2] += duration
        self.spans.append((layer, start, end, len(self._stack)))


#: Per-layer metrics of a traced run, with their units.
LAYER_UNITS = {
    "workload.calls": "count",
    "workload.self_s": "s",
    "workload_cache.hit_ratio": "ratio",
    "time_layer.calls": "count",
    "time_layer.self_s": "s",
    "timing_cache.hit_ratio": "ratio",
    "graph.lower.calls": "count",
    "graph.lower.self_s": "s",
    "graph.nodes": "count",
    "graph.schedule.calls": "count",
    "graph.schedule.self_s": "s",
    "graph.symmetry.hit_ratio": "ratio",
    "graph_cache.hit_ratio": "ratio",
    "serve.loop.calls": "count",
    "serve.loop.self_s": "s",
    "serve.steps": "count",
    "serve.step_cost.calls": "count",
    "serve.step_cost.self_s": "s",
    "step_cost_cache.hit_ratio": "ratio",
    "fleet.engine.self_s": "s",
    "fleet.route.calls": "count",
    "fleet.route.self_s": "s",
    "sim.events": "count",
    "fleet.us_per_event": "us",
    "traffic.calls": "count",
    "traffic.self_s": "s",
    "export.calls": "count",
    "export.self_s": "s",
    "unattributed_s": "s",
    "tracing_overhead_s": "s",
}


def _ratio(hits: int, attempts: int) -> float:
    """Hit ratio; 0 when the layer never ran."""
    return hits / attempts if attempts else 0.0


def layer_metrics(
    recorder: SpanRecorder, counts: dict[str, dict[str, int]]
) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (all but the overhead).

    ``step_cost_cache`` is the per-bucket step memo of the
    :class:`~repro.serve.engine_adapter.StepCostModel` instances the
    iteration priced steps with; the other caches are those of
    :func:`repro.perf.cache_stats`.
    """
    calls, self_ns, tally = recorder.calls, recorder.self_ns, recorder.counts

    def cache_ratio(name: str) -> float:
        doc = counts[name]
        return _ratio(doc["hits"], doc["hits"] + doc["misses"])

    memo = [model.cache_stats() for model in recorder.step_models.values()]
    memo_hits = sum(doc["hits"] for doc in memo)
    memo_attempts = memo_hits + sum(doc["misses"] for doc in memo)
    events = tally["sim.events"]
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.self_s"] = self_ns[layer] / 1e9
    metrics.update(
        {
            "workload_cache.hit_ratio": cache_ratio("workload"),
            "timing_cache.hit_ratio": cache_ratio("timing"),
            "graph.nodes": tally["graph.nodes"],
            "graph.symmetry.hit_ratio": _ratio(
                tally["graph.symmetry.hits"], tally["graph.symmetry.calls"]
            ),
            "graph_cache.hit_ratio": cache_ratio("graph"),
            "serve.steps": tally["serve.steps"],
            "step_cost_cache.hit_ratio": _ratio(memo_hits, memo_attempts),
            "sim.events": events,
            "fleet.us_per_event": (
                recorder.total_ns["fleet.engine"] / 1e3 / events if events else 0.0
            ),
            "unattributed_s": self_ns[ITERATION] / 1e9,
        }
    )
    return {name: metrics[name] for name in LAYER_UNITS if name in metrics}


def _count_nodes(recorder: SpanRecorder, args: tuple, graph: Any) -> None:
    recorder.counts["graph.nodes"] += len(graph)


def _count_symmetry(recorder: SpanRecorder, args: tuple, reduction: Any) -> None:
    recorder.counts["graph.symmetry.calls"] += 1
    recorder.counts["graph.symmetry.hits"] += reduction is not None


def _count_steps(recorder: SpanRecorder, args: tuple, result: Any) -> None:
    _records, timeline = result
    recorder.counts["serve.steps"] += len(timeline)


def _note_step_model(recorder: SpanRecorder, args: tuple, result: Any) -> None:
    model = args[0]
    recorder.step_models[id(model)] = model


def _count_event(recorder: SpanRecorder, args: tuple, result: Any) -> None:
    recorder.counts["sim.events"] += 1


def _function_targets() -> list[tuple[str, str, str | None, Callable | None]]:
    """``(module, name, layer, after)`` for module-level entry points.

    ``layer`` ``None`` counts calls through ``after`` without a span, so
    the time stays with the enclosing layer.
    """
    return [
        ("repro.runtime.workload", "make_workload", "workload", None),
        ("repro.graph.lower", "build_forward_graph", "graph.lower", _count_nodes),
        ("repro.graph.lower", "build_training_graph", "graph.lower", _count_nodes),
        ("repro.perf", "cached_graph_schedule", "graph.schedule", None),
        ("repro.graph.scheduler", "reduce_symmetry", None, _count_symmetry),
        ("repro.obs.manifest", "capture", "export", None),
    ]


def _method_targets() -> list[tuple[type, str, str | None, Callable | None]]:
    """``(class, name, layer, after)`` for methods, one entry per class
    that defines the method itself."""
    from repro.api.registry import SYSTEM_REGISTRY
    from repro.api.results import ResultSet
    from repro.fleet.metrics import FleetResultSet
    from repro.fleet.router import ROUTER_REGISTRY
    from repro.fleet.simulator import FleetEngine
    from repro.fleet.spec import FleetScenario
    from repro.serve.engine_adapter import StepCostModel
    from repro.serve.metrics import ServeResultSet
    from repro.serve.scenario import ServeScenario
    from repro.serve.scheduler import ContinuousBatchingScheduler
    from repro.sim.engine import Environment

    def defining(classes: list[type], name: str) -> list[type]:
        owners: dict[type, None] = {}
        for cls in classes:
            for klass in cls.__mro__:
                if name in vars(klass):
                    owners[klass] = None
        return list(owners)

    systems = [SYSTEM_REGISTRY.get(name) for name in SYSTEM_REGISTRY.names()]
    routers = [ROUTER_REGISTRY.get(name) for name in ROUTER_REGISTRY.names()]
    return [
        (ServeScenario, "build_trace", "traffic", None),
        (FleetScenario, "build_trace", "traffic", None),
        *((cls, "time_layer", "time_layer", None) for cls in defining(systems, "time_layer")),
        (ContinuousBatchingScheduler, "run", "serve.loop", _count_steps),
        (StepCostModel, "step_us", "serve.step_cost", _note_step_model),
        (FleetEngine, "run", "fleet.engine", None),
        *((cls, "choose", "fleet.route", None) for cls in defining(routers, "choose")),
        (Environment, "step", None, _count_event),
        (ResultSet, "to_json", "export", None),
        (ServeResultSet, "to_json", "export", None),
        (FleetResultSet, "to_json", "export", None),
    ]


class Instrumentation:
    """Installs the span wrappers on entry and restores the originals on exit.

    Wrappers report to :attr:`recorder`; give it a fresh
    :class:`SpanRecorder` per iteration.
    """

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self._patches: list[tuple[Any, str, Any, Any]] = []
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        ]
        for module_name, attr, layer, after in _function_targets():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, layer, after)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, binding, original, wrapper))
        for cls, attr, layer, after in _method_targets():
            original = vars(cls)[attr]
            self._patches.append((cls, attr, original, self._wrap(original, layer, after)))

    def _wrap(self, fn: Callable, layer: str | None, after: Callable | None) -> Callable:
        if layer is None:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(self.recorder, args, result)
                return result

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            recorder = self.recorder
            recorder.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.exit()
            if after is not None:
                after(recorder, args, result)
            return result

        return traced

    def __enter__(self) -> "Instrumentation":
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc: object) -> None:
        for owner, attr, original, _wrapper in reversed(self._patches):
            setattr(owner, attr, original)


def chrome_trace(spans: list[tuple[str, int, int, int]]) -> dict:
    """Render spans as a validated Chrome trace on one host lane, with
    time zero at the earliest span."""
    from repro.obs.schema import validate_chrome_trace
    from repro.sim.trace import Tracer

    tracer = Tracer()
    origin_ns = min((span[1] for span in spans), default=0)
    for layer, start, end, depth in spans:
        tracer.record(
            layer,
            "host",
            "benchmark",
            (start - origin_ns) / 1000.0,
            (end - origin_ns) / 1000.0,
            depth=depth,
        )
    doc = tracer.to_chrome_trace()
    validate_chrome_trace(doc)
    return doc
