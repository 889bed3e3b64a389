"""Hardware models: GPUs, interconnect links, and cluster topologies.

These are *rate* models, not cycle-accurate simulators: each device exposes
the throughputs and latencies that the kernel- and communication-level cost
models in :mod:`repro.kernels` and :mod:`repro.comm` consume.  The presets
mirror the two testbeds of the COMET paper: an 8xH800 NVLink node and an
8xL20 PCIe node.
"""

from repro._lazy import lazy_exports

#: Every public name, with the module that defines it (PEP 562).
_LAZY = {
    "ClusterSpec": "repro.hw.cluster",
    "GpuSpec": "repro.hw.gpu",
    "LinkSpec": "repro.hw.link",
    "h800_pod": "repro.hw.multinode",
    "IB_400G": "repro.hw.multinode",
    "TwoTierCluster": "repro.hw.multinode",
    "H800": "repro.hw.presets",
    "h800_node": "repro.hw.presets",
    "L20": "repro.hw.presets",
    "l20_node": "repro.hw.presets",
}

__all__ = sorted(_LAZY)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
