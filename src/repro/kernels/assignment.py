"""Adaptive workload assignment (paper §3.2.2).

COMET ships multiple pre-compiled fused-kernel variants, each with a
distinct communication/computation thread-block division point ``nc``.
Before deployment, each (layer, shape, parallelism, hardware) setup is
profiled and the optimal variant recorded as metadata; at runtime the
stored metadata selects the kernel.  This module implements that loop
against the fused-kernel simulator: :func:`profile_division_points` is
the offline profiler, :class:`AssignmentProfile` the metadata store, and
:func:`select_division_point` the runtime lookup (with nearest-bucket
fallback for shapes never profiled).

:class:`~repro.systems.comet.Comet` fills each missing power-of-two
token bucket from that bucket's canonical workload: the bucket's token
count rounded up to a multiple of the world size, balanced routing,
seed 0.  The table is then a pure function of its key (system knobs,
cluster, model, split, layer, bucket), as an offline profile is, and
never of which workload probed a bucket first.

:meth:`repro.systems.comet.Comet.sweep_division_points` prices one
workload's sweep on its bottleneck rank.  Each layer prices the whole
library in one call of its fused-kernel simulator, one row per variant:
:func:`repro.kernels.fused.simulate_layer0_fused` with an iterable of
``nc`` and :func:`repro.kernels.fused.simulate_layer1_fused_variants`.
Both keep the fastest variant, lowest ``nc`` on ties, through
:meth:`SweepResult.from_durations`, and both leave out a variant the
kernel cannot launch, as :func:`profile_division_points` does when it
times one variant at a time.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterable

__all__ = [
    "AssignmentProfile",
    "KernelVariant",
    "ProfileKey",
    "SweepResult",
    "default_variants",
    "profile_division_points",
    "select_division_point",
]


@dataclass(frozen=True)
class KernelVariant:
    """One pre-compiled fused kernel with a fixed division point."""

    nc: int

    def __post_init__(self) -> None:
        if self.nc < 0:
            raise ValueError(f"nc must be non-negative, got {self.nc}")


def default_variants(num_sms: int, step: int = 4, min_nc: int = 2) -> list[KernelVariant]:
    """The variant library: division points from ``min_nc`` up to ~60% of SMs.

    Compiling one kernel per possible ``nc`` would be wasteful; like the
    real system, the library quantises the division point with ``step``.
    """
    if num_sms <= 2:
        raise ValueError(f"num_sms too small to split, got {num_sms}")
    if isinstance(step, bool) or not isinstance(step, numbers.Integral) or step <= 0:
        raise ValueError(f"step must be a positive integer, got {step!r}")
    max_nc = max(min_nc, int(num_sms * 0.6))
    return [KernelVariant(nc) for nc in range(min_nc, max_nc + 1, step)]


@dataclass(frozen=True, order=True)
class ProfileKey:
    """Lookup key for profiled metadata.

    ``m_bucket`` is the token count rounded up to a power of two — shapes
    vary at runtime (MoE routing is dynamic) and bucketing keeps the
    metadata table small while staying close to optimal.
    """

    layer: int  # 0 or 1
    tp_size: int
    ep_size: int
    m_bucket: int

    @staticmethod
    def bucket_tokens(tokens: int) -> int:
        if tokens <= 0:
            return 1
        bucket = 1
        while bucket < tokens:
            bucket *= 2
        return bucket

    @staticmethod
    def check_layer(layer: int) -> None:
        """Reject a layer other than COMET's two fused kernels, 0 and 1."""
        if layer not in (0, 1):
            raise ValueError(f"layer must be 0 or 1, got {layer}")

    @classmethod
    def make(cls, layer: int, tp_size: int, ep_size: int, tokens: int) -> "ProfileKey":
        cls.check_layer(layer)
        return cls(
            layer=layer,
            tp_size=tp_size,
            ep_size=ep_size,
            m_bucket=cls.bucket_tokens(tokens),
        )


@dataclass(frozen=True)
class SweepResult:
    """Durations measured for each candidate division point."""

    durations_us: dict[int, float]  # nc -> duration
    best_nc: int

    @classmethod
    def from_durations(cls, durations_us: dict[int, float]) -> "SweepResult":
        """Keep the fastest variant, the lowest ``nc`` among equally fast ones."""
        if not durations_us:
            raise ValueError("no viable division point among the variants")
        best_nc = min(durations_us, key=lambda nc: (durations_us[nc], nc))
        return cls(durations_us=durations_us, best_nc=best_nc)

    @property
    def best_duration_us(self) -> float:
        return self.durations_us[self.best_nc]

    def curve(self) -> list[tuple[int, float]]:
        """(nc, duration) pairs sorted by nc — Figure 8's plotted series."""
        return sorted(self.durations_us.items())


def profile_division_points(
    simulate: Callable[[int], float],
    variants: Iterable[KernelVariant],
) -> SweepResult:
    """Offline profiling: time every variant, remember the best.

    ``simulate`` maps a division point ``nc`` to a duration (µs); variants
    whose simulation raises ``ValueError`` (e.g. ``nc`` too large for the
    SM budget) are skipped, mirroring variants that fail to launch.
    """
    durations: dict[int, float] = {}
    for variant in variants:
        try:
            durations[variant.nc] = float(simulate(variant.nc))
        except ValueError:
            continue
    return SweepResult.from_durations(durations)


@dataclass
class AssignmentProfile:
    """Metadata store mapping profiled setups to their optimal variants.

    The paper's §3.2.2 workflow persists this metadata before deployment
    and consults it at runtime; :meth:`save` / :meth:`load` provide that
    round-trip as a JSON file.
    """

    entries: dict[ProfileKey, SweepResult] = field(default_factory=dict)

    def record(self, key: ProfileKey, sweep: SweepResult) -> None:
        self.entries[key] = sweep

    def __contains__(self, key: ProfileKey) -> bool:
        return key in self.entries

    def lookup(self, key: ProfileKey) -> SweepResult | None:
        return self.entries.get(key)

    def save(self, path: str) -> None:
        """Persist the profiled metadata to a JSON file."""
        import json

        payload = [
            {
                "layer": key.layer,
                "tp_size": key.tp_size,
                "ep_size": key.ep_size,
                "m_bucket": key.m_bucket,
                "best_nc": sweep.best_nc,
                "durations_us": {str(nc): d for nc, d in sweep.durations_us.items()},
            }
            for key, sweep in sorted(self.entries.items())
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)

    @classmethod
    def load(cls, path: str) -> "AssignmentProfile":
        """Restore profiled metadata written by :meth:`save`."""
        import json

        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        profile = cls()
        for entry in payload:
            key = ProfileKey(
                layer=int(entry["layer"]),
                tp_size=int(entry["tp_size"]),
                ep_size=int(entry["ep_size"]),
                m_bucket=int(entry["m_bucket"]),
            )
            durations = {
                int(nc): float(d) for nc, d in entry["durations_us"].items()
            }
            best_nc = int(entry["best_nc"])
            if best_nc not in durations:
                raise ValueError(f"corrupt profile entry for {key}")
            profile.record(
                key, SweepResult(durations_us=durations, best_nc=best_nc)
            )
        return profile


def select_division_point(
    profile: AssignmentProfile,
    key: ProfileKey,
    fallback_nc: int = 16,
) -> int:
    """Runtime selection of ``nc`` for a (possibly unprofiled) setup.

    Exact hit first; otherwise the nearest profiled ``m_bucket`` with the
    same layer and parallelism; otherwise ``fallback_nc`` (a conservative
    default for cold starts).
    """
    hit = profile.lookup(key)
    if hit is not None:
        return hit.best_nc
    candidates = [
        (abs(entry_key.m_bucket - key.m_bucket), entry_key)
        for entry_key in profile.entries
        if entry_key.layer == key.layer
        and entry_key.tp_size == key.tp_size
        and entry_key.ep_size == key.ep_size
    ]
    if candidates:
        _, nearest = min(candidates)
        return profile.entries[nearest].best_nc
    return fallback_nc
