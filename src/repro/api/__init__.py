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

Every name here resolves on first use (PEP 562), as in every package
root but :mod:`repro.systems`, so importing :mod:`repro.api.registry`
runs no other submodule.  Each system module imports
:func:`register_system` from it while :mod:`repro.systems` is still
loading, and an eager ``scenario`` import here would reach back into
that half-loaded package.  ``tests/test_import_graph.py`` keeps the
module-level import graph acyclic.
"""

from repro._lazy import lazy_exports

#: Every public name, with the module that defines it (PEP 562).
_LAZY = {
    "CLUSTER_REGISTRY": "repro.api.registry",
    "MODEL_REGISTRY": "repro.api.registry",
    "register_system": "repro.api.registry",
    "Registry": "repro.api.registry",
    "resolve_cluster": "repro.api.registry",
    "resolve_model": "repro.api.registry",
    "SYSTEM_REGISTRY": "repro.api.registry",
    "SystemRegistry": "repro.api.registry",
    "UnknownNameError": "repro.api.registry",
    "ResultRow": "repro.api.results",
    "ResultSet": "repro.api.results",
    "rows_to_csv": "repro.api.results",
    "SkipRecord": "repro.api.results",
    "default_system_names": "repro.api.scenario",
    "ExperimentSpec": "repro.api.scenario",
    "Scenario": "repro.api.scenario",
    "ServeReport": "repro.serve.metrics",
    "ServeResultSet": "repro.serve.metrics",
    "ServeScenario": "repro.serve.scenario",
    "ServeSpec": "repro.serve.scenario",
    "TraceSpec": "repro.serve.traffic",
}

__all__ = sorted(_LAZY)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
