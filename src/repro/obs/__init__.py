"""`repro.obs` — unified observability: traces, metrics, provenance.

Three pillars, all with a **zero-perturbation guarantee**: every one
reads a finished result and never runs inside a simulation, so
observing a run cannot change it (the identity tests render every
trace and a metrics snapshot, and assert the result set's
``to_json()`` bytes and its reports are unchanged):

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
"""

from __future__ import annotations

from repro._lazy import lazy_exports

#: Every public name, with the module that defines it (PEP 562).
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
    "trace_fleet_report": "repro.obs.timeline",
    "trace_graph_schedule": "repro.obs.timeline",
    "trace_serve_report": "repro.obs.timeline",
}

__all__ = sorted(_LAZY)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
