"""Declarative experiment API: registries, scenario grids, result sets.

Three layers:

* :mod:`repro.api.registry` — string-addressable registries
  (:data:`SYSTEM_REGISTRY`, :data:`MODEL_REGISTRY`,
  :data:`CLUSTER_REGISTRY`) and the :func:`register_system` decorator.
* :mod:`repro.api.scenario` — :class:`Scenario` (one grid point) and
  :class:`ExperimentSpec` (cartesian grids + execution with per-scenario
  workload/geometry caching), plus the sweep engine every spec kind
  shares (:func:`~repro.api.scenario.expand`,
  :func:`~repro.api.scenario.run_tasks`).
* :mod:`repro.api.results` — :class:`ResultSet` of
  ``(Scenario, system, LayerTiming)`` rows with ``filter`` / ``best`` /
  ``speedup_over`` queries and skip-reason records.

``scenario`` and ``results`` are loaded lazily (PEP 562): system modules
import :func:`register_system` from :mod:`repro.api.registry` at class
definition time, and an eager import here would cycle back through
:mod:`repro.runtime` while it is still initialising.
"""

from repro.api.registry import (
    CLUSTER_REGISTRY,
    MODEL_REGISTRY,
    SYSTEM_REGISTRY,
    Registry,
    SystemRegistry,
    UnknownNameError,
    register_system,
    resolve_cluster,
    resolve_model,
)

__all__ = [
    "CLUSTER_REGISTRY",
    "ExperimentSpec",
    "MODEL_REGISTRY",
    "Registry",
    "ResultRow",
    "ResultSet",
    "SYSTEM_REGISTRY",
    "Scenario",
    "ServeReport",
    "ServeResultSet",
    "ServeScenario",
    "ServeSpec",
    "SkipRecord",
    "SystemRegistry",
    "TraceSpec",
    "UnknownNameError",
    "default_system_names",
    "register_system",
    "resolve_cluster",
    "resolve_model",
    "rows_to_csv",
]

_LAZY = {
    "ExperimentSpec": "repro.api.scenario",
    "Scenario": "repro.api.scenario",
    "default_system_names": "repro.api.scenario",
    "ResultRow": "repro.api.results",
    "ResultSet": "repro.api.results",
    "SkipRecord": "repro.api.results",
    "rows_to_csv": "repro.api.results",
    # Online-serving layer (repro.serve) — addressable from the same
    # declarative API namespace as the offline experiment grids.
    "ServeReport": "repro.serve.metrics",
    "ServeResultSet": "repro.serve.metrics",
    "ServeScenario": "repro.serve.scenario",
    "ServeSpec": "repro.serve.scenario",
    "TraceSpec": "repro.serve.traffic",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(__all__)
