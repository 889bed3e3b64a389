"""`repro.obs` — unified observability: traces, metrics, provenance.

Three pillars, all with a **zero-perturbation guarantee** (observation
never changes a simulated result — the identity tests assert byte
equality of every export with observation on vs. off):

* **Timelines** (:mod:`repro.obs.timeline`): post-hoc builders that
  render a :class:`~repro.graph.scheduler.GraphSchedule`, a
  :class:`~repro.serve.metrics.ServeReport`, or a
  :class:`~repro.fleet.metrics.FleetReport` into a
  :class:`~repro.sim.trace.Tracer` — Chrome/Perfetto JSON with counter
  tracks, instant events, flow arrows, and per-rank / per-replica
  process grouping.  Validate with
  :func:`~repro.obs.schema.validate_chrome_trace`.
* **Metrics** (:mod:`repro.obs.metrics`): a
  :class:`~repro.obs.metrics.MetricsRegistry` of counters / gauges /
  histograms; :func:`~repro.obs.metrics.snapshot_for` summarises any
  result container plus the process-wide timing-cache stats into one
  JSON-ready snapshot (the CLI's ``--metrics-out``).
* **Provenance** (:mod:`repro.obs.manifest`): a deterministic
  :class:`~repro.obs.manifest.RunManifest` (spec fingerprint, seeds,
  version) attached to every ``*Spec.run()`` result set and embedded in
  its ``to_json()``; call :meth:`~repro.obs.manifest.RunManifest.stamp`
  to add wall-clock at an export boundary.

The module-level flag (:func:`is_enabled`, with the :func:`enabled` /
:func:`disabled` context managers) gates *emission only* — a disabled
tracer or registry is a no-op — and is never consulted by the
simulators, which is what makes the bit-identity guarantee structural
rather than aspirational.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro._lazy import lazy_exports

#: Every public name defined outside this file, with its module (PEP 562).
_LAZY = {
    "RunManifest": "repro.obs.manifest",
    "capture": "repro.obs.manifest",
    "fingerprint_obj": "repro.obs.manifest",
    "MetricsRegistry": "repro.obs.metrics",
    "collect_cache_stats": "repro.obs.metrics",
    "collect_experiment": "repro.obs.metrics",
    "collect_fleet": "repro.obs.metrics",
    "collect_serve": "repro.obs.metrics",
    "snapshot_for": "repro.obs.metrics",
    "validate_chrome_trace": "repro.obs.schema",
    "FlowIdAllocator": "repro.obs.timeline",
    "trace_fleet_report": "repro.obs.timeline",
    "trace_graph_schedule": "repro.obs.timeline",
    "trace_serve_report": "repro.obs.timeline",
}

__all__ = sorted([*_LAZY, "disabled", "enabled", "is_enabled", "set_enabled"])
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)

_STATE = {"enabled": True}


def is_enabled() -> bool:
    """Whether observability emission is globally on (default: on)."""
    return _STATE["enabled"]


def set_enabled(flag: bool) -> bool:
    """Set the global emission flag; returns the previous value."""
    previous = _STATE["enabled"]
    _STATE["enabled"] = bool(flag)
    return previous


@contextmanager
def disabled():
    """Context manager: suppress all observability emission inside."""
    previous = set_enabled(False)
    try:
        yield
    finally:
        set_enabled(previous)


@contextmanager
def enabled():
    """Context manager: force observability emission on inside."""
    previous = set_enabled(True)
    try:
        yield
    finally:
        set_enabled(previous)
