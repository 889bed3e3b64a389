"""A unified metrics registry over every simulation tier.

The repository computes rich statistics in scattered places —
``perf.cache_stats()`` for the timing caches, ``busy_ms``/``steps`` on
serving schedulers, autoscaler churn on fleet reports, percentile
summaries on result sets — each with its own shape.
:class:`MetricsRegistry` is the single funnel: counters (monotonic),
gauges (last-write-wins), and histograms (full distribution summarised
at snapshot time), with dotted metric names namespacing the tier
(``cache.step-cost.hits``, ``fleet.goodput_rps``).

:func:`snapshot_for` turns any result container — a
:class:`~repro.api.results.ResultSet`,
:class:`~repro.serve.metrics.ServeResultSet`, or
:class:`~repro.fleet.metrics.FleetResultSet` — plus the process-wide
cache stats into one JSON-ready snapshot, which the CLI writes next to
reports via ``--metrics-out``.  A registry is filled after a run, from
what the run returned, so collecting metrics cannot change a simulated
number.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "MetricsRegistry",
    "collect_cache_stats",
    "collect_experiment",
    "collect_fleet",
    "collect_serve",
    "snapshot_for",
]


class MetricsRegistry:
    """Counters, gauges, and histograms keyed by dotted metric names."""

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, list[float]] = {}

    def counter(self, name: str, amount: float = 1.0) -> None:
        """Increment a monotonic counter."""
        self._counters[name] = self._counters.get(name, 0.0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set a last-write-wins gauge."""
        self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Add one sample to a histogram."""
        self._histograms.setdefault(name, []).append(value)

    def observe_all(self, name: str, values: Any) -> None:
        """:meth:`observe` each sample of a numpy column, in order."""
        if len(values):
            self._histograms.setdefault(name, []).extend(values.tolist())

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready dump; histograms summarise to count/min/mean/max
        and the repo-standard p50/p95/p99."""
        from repro.serve.metrics import percentiles

        histograms: dict[str, Any] = {}
        for name in sorted(self._histograms):
            samples = self._histograms[name]
            summary: dict[str, Any] = {
                "count": len(samples),
                "min": min(samples) if samples else None,
                "mean": sum(samples) / len(samples) if samples else None,
                "max": max(samples) if samples else None,
            }
            pct = percentiles(samples)
            for key, value in pct.items():
                # NaN (empty histogram) exports as null, per repo rule.
                summary[key] = None if value != value else value
            histograms[name] = summary
        return {
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
            "histograms": histograms,
        }


def collect_cache_stats(registry: MetricsRegistry) -> None:
    """Fold ``perf.cache_stats()`` into ``cache.<name>.<stat>`` counters."""
    from repro import perf

    for cache_name, stats in perf.cache_stats().items():
        for stat_name, value in stats.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                registry.counter(f"cache.{cache_name}.{stat_name}", value)


def collect_experiment(registry: MetricsRegistry, results: Any) -> None:
    """Metrics of an offline :class:`~repro.api.results.ResultSet`."""
    registry.counter("experiment.rows", len(results.rows))
    registry.counter("experiment.skips", len(results.skips))
    registry.gauge("experiment.scenarios", len(results.scenarios()))
    for row in results.rows:
        registry.observe("experiment.layer_ms", row.layer_ms)
        if row.model_timing is not None:
            registry.observe("experiment.model_ms", row.model_timing.makespan_ms)


def collect_serve(registry: MetricsRegistry, results: Any) -> None:
    """Metrics of a :class:`~repro.serve.metrics.ServeResultSet`."""
    registry.counter("serve.reports", len(results.reports))
    registry.counter("serve.skips", len(results.skips))
    for report in results.reports:
        registry.counter("serve.requests", report.num_requests)
        registry.gauge("serve.peak_queue_depth", report.peak_queue_depth)
        registry.observe("serve.goodput_rps", report.goodput_rps)
        registry.observe("serve.slo_attainment", report.slo_attainment)
        registry.observe("serve.mean_batch_occupancy", report.mean_batch_occupancy)
        ttft, _, e2e = report.latencies()
        registry.observe_all("serve.ttft_ms", ttft)
        registry.observe_all("serve.e2e_ms", e2e)


def collect_fleet(registry: MetricsRegistry, results: Any) -> None:
    """Metrics of a :class:`~repro.fleet.metrics.FleetResultSet`."""
    registry.counter("fleet.reports", len(results.reports))
    registry.counter("fleet.skips", len(results.skips))
    for report in results.reports:
        registry.counter("fleet.requests", report.num_requests)
        registry.counter("fleet.unserved", report.unserved)
        registry.counter("fleet.dispatches", len(report.dispatches))
        registry.counter("fleet.scale_ups", report.scale_ups)
        registry.counter("fleet.scale_downs", report.scale_downs)
        registry.counter("fleet.failures", report.failures)
        registry.counter("fleet.recoveries", report.recoveries)
        registry.observe("fleet.goodput_rps", report.goodput_rps)
        registry.observe("fleet.goodput_per_gpu", report.goodput_per_gpu)
        registry.observe("fleet.mean_utilization", report.mean_utilization)
        for stat in report.replica_stats:
            registry.observe("fleet.replica_busy_ms", stat.busy_ms)
            registry.observe("fleet.replica_utilization", stat.utilization)
        ttft, _, e2e = report.latencies()
        registry.observe_all("fleet.ttft_ms", ttft)
        registry.observe_all("fleet.e2e_ms", e2e)


def snapshot_for(results: Any, include_caches: bool = True) -> dict[str, Any]:
    """One JSON-ready metrics snapshot for any result container.

    Dispatches on shape — fleet sets hold reports with a ``router``
    attribute, serve sets hold reports without one, experiment sets hold
    ``rows`` — and folds in the process-wide timing-cache stats unless
    ``include_caches=False``.
    """
    registry = MetricsRegistry()
    if hasattr(results, "rows"):
        collect_experiment(registry, results)
    elif hasattr(results, "reports"):
        if results.reports and hasattr(results.reports[0], "router"):
            collect_fleet(registry, results)
        elif not results.reports and hasattr(results, "routers"):
            collect_fleet(registry, results)
        else:
            collect_serve(registry, results)
    else:
        raise TypeError(
            f"snapshot_for() wants a ResultSet/ServeResultSet/FleetResultSet, "
            f"got {type(results).__name__}"
        )
    if include_caches:
        collect_cache_stats(registry)
    return registry.snapshot()
