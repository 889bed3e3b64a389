"""One benchmark for the whole simulator stack.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one of four workloads (see :mod:`perfbench.workloads`) against the
public ``repro`` API and prints one JSON result line last.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer split from
spans recorded around each layer's public entry points
(:mod:`perfbench.tracing`).  Host times are normalised by a reference
kernel run between iterations (:mod:`perfbench.reference`), because the
shared host's speed drifts within minutes.  ``BENCHMARK.json`` at the
repository root lists the workloads and metrics.
"""
