"""Parallelisation strategies: tensor parallel x expert parallel hybrids.

Implements the paper's two MoE parallelisation axes (§2.1): expert
parallelism distributes whole experts over EP groups; tensor parallelism
shards every expert's FFN dimension over the ranks of a TP group.  A
:class:`ParallelStrategy` fixes ``W = TP x EP`` and provides the rank /
expert / token geometry every scheduler in :mod:`repro.systems` consumes.
"""

from repro._lazy import lazy_exports

#: Every public name, with the module that defines it (PEP 562).
_LAZY = {
    "ExpertPlacement": "repro.parallel.placement",
    "ParallelStrategy": "repro.parallel.strategy",
}

__all__ = sorted(_LAZY)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
