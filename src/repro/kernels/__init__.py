"""GPU kernel models: tiling, GEMM costs, fused kernels, block assignment.

The compute side of the reproduction.  :mod:`repro.kernels.gemm` prices
(Group)GEMMs with a tile/wave model; :mod:`repro.kernels.fused` simulates
COMET's thread-block-specialised fused kernels at tile granularity; and
:mod:`repro.kernels.assignment` implements the adaptive `nc` selection of
paper §3.2.2 (offline profile -> runtime lookup).
"""

from repro._lazy import lazy_exports

#: Every public name, with the module that defines it (PEP 562).
_LAZY = {
    "AssignmentProfile": "repro.kernels.assignment",
    "KernelVariant": "repro.kernels.assignment",
    "profile_division_points": "repro.kernels.assignment",
    "select_division_point": "repro.kernels.assignment",
    "FusedKernelResult": "repro.kernels.fused",
    "simulate_layer0_fused": "repro.kernels.fused",
    "simulate_layer1_fused": "repro.kernels.fused",
    "activation_time_us": "repro.kernels.gemm",
    "gemm_time_us": "repro.kernels.gemm",
    "GemmCost": "repro.kernels.gemm",
    "group_gemm_time_us": "repro.kernels.gemm",
    "tile_time_us": "repro.kernels.gemm",
    "gemm_tile_count": "repro.kernels.tiling",
    "group_gemm_tile_count": "repro.kernels.tiling",
    "num_tiles_1d": "repro.kernels.tiling",
    "TileShape": "repro.kernels.tiling",
}

__all__ = sorted(_LAZY)
__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
