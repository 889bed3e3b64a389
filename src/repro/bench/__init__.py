"""Benchmark harness: one runner per table/figure of the paper.

Each ``fig*``/``table*`` function regenerates the corresponding result:
it builds the paper's workload, runs the systems, and returns a
structured result object whose ``format()`` prints the same rows/series
the paper plots.  ``validate_all`` checks every paper claim against
them: ``quick=True`` at reduced sizes, ``quick=False`` as the full
ledger with the paper's values and bands.
"""

from repro._lazy import lazy_exports

#: Every public name, with the module that defines it (PEP 562).
_LAZY = {
    "fig01_time_breakdown": "repro.bench.figures",
    "fig08_nc_sweep": "repro.bench.figures",
    "fig09_end_to_end": "repro.bench.figures",
    "fig10_single_layer": "repro.bench.figures",
    "fig11_breakdown": "repro.bench.figures",
    "fig12_parallelism": "repro.bench.figures",
    "fig13_moe_params": "repro.bench.figures",
    "fig14_imbalance": "repro.bench.figures",
    "fig14_l20": "repro.bench.figures",
    "table3_memory": "repro.bench.figures",
    "format_table": "repro.bench.report",
    "Claim": "repro.bench.validation",
    "validate_all": "repro.bench.validation",
}

__all__ = sorted(_LAZY)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
