"""Per-rank straggler and skew specifications for schedule graphs.

COMET's gains come from hiding communication behind computation, but the
*exposed* remainder of a synchronous MoE step is paced by the slowest
rank: every dispatch/combine all-to-all and the gradient all-reduce are
barriers, so one slow device (thermal throttling, a shared host, a
degraded NIC) or a skewed expert placement drags every rank's timeline.
Lancet (arXiv:2404.19429) schedules against per-device timelines for the
same reason.

A :class:`StragglerSpec` describes that heterogeneity as three finite,
positive multipliers per rank:

* ``compute_mult`` — scales every compute phase of the rank (attention,
  gate, expert GEMMs, activation, host epilogue, optimizer);
* ``comm_mult`` — scales the rank's communication phases (dispatch,
  combine, grad-sync), e.g. a degraded link;
* ``expert_mult`` — additionally scales the expert-branch compute
  (expert GEMMs + activation) to model *placement skew*: a rank hosting
  hot experts does more GroupGEMM work than the balanced average.

The spec is frozen and hashable, so it keys scenario grids and the
graph-schedule cache directly; :meth:`fingerprint` exposes the exact
IEEE-754 bits for cache composition.  The uniform spec (all multipliers
1.0) is the documented degenerate case: lowering with it produces
per-rank graphs whose scheduled makespan equals the single-rank graph's
makespan **bit for bit** (the straggler test suite asserts ``==``).

Constructors cover the three scenario families named in the roadmap:

* :meth:`slow_rank` — one slow device (compute and/or comm multiplier);
* :meth:`degraded_link` — a rank whose NIC runs at another
  :class:`~repro.hw.link.LinkSpec`'s bandwidth (e.g. an H800 rank
  falling back from NVLink to the :data:`~repro.hw.multinode.IB_400G`
  fabric tier);
* :meth:`skewed_placement` — per-rank expert-load multipliers derived
  from temporally correlated routing
  (:func:`repro.moe.correlated.correlated_routing`) under a round-robin
  expert placement.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

__all__ = ["StragglerSpec", "check_multiplier"]


def check_multiplier(value: float, name: str = "straggler multiplier") -> float:
    """``value`` as a float, if it is a finite positive multiplier.

    The rule for a :class:`StragglerSpec`'s per-rank multipliers, the
    grid-axis shorthands and the CLI flags (a single multiplier field,
    such as a degrade event's, declares the same domain), so an infinite
    or NaN multiplier is rejected where it is given instead of reaching
    an export as ``Infinity`` or ``NaN``.
    """
    mult = float(value)
    if not 0.0 < mult < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {mult}")
    return mult


def _validated(name: str, values: tuple[float, ...], num_ranks: int) -> None:
    if len(values) != num_ranks:
        raise ValueError(
            f"{name} has {len(values)} entries for {num_ranks} ranks"
        )
    for rank, value in enumerate(values):
        check_multiplier(value, f"{name}[{rank}]")


@dataclass(frozen=True)
class StragglerSpec:
    """Per-rank compute/comm/expert-load multipliers (all finite and
    positive; a :meth:`compose` that overflows is rejected too).

    ``name`` is a display label used in scenario labels and export
    columns; it participates in equality so two differently named specs
    stay distinct grid points even when their multipliers coincide.
    """

    compute_mult: tuple[float, ...]
    comm_mult: tuple[float, ...]
    expert_mult: tuple[float, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if not self.compute_mult:
            raise ValueError("StragglerSpec needs at least one rank")
        num_ranks = len(self.compute_mult)
        object.__setattr__(
            self, "compute_mult", tuple(float(m) for m in self.compute_mult)
        )
        object.__setattr__(
            self, "comm_mult", tuple(float(m) for m in self.comm_mult)
        )
        object.__setattr__(
            self, "expert_mult", tuple(float(m) for m in self.expert_mult)
        )
        _validated("compute_mult", self.compute_mult, num_ranks)
        _validated("comm_mult", self.comm_mult, num_ranks)
        _validated("expert_mult", self.expert_mult, num_ranks)

    # -- constructors ----------------------------------------------------------
    @classmethod
    def uniform(cls, num_ranks: int) -> "StragglerSpec":
        """The degenerate spec: every rank identical (multiplier 1.0)."""
        if num_ranks <= 0:
            raise ValueError(f"num_ranks must be positive, got {num_ranks}")
        ones = (1.0,) * num_ranks
        return cls(
            compute_mult=ones, comm_mult=ones, expert_mult=ones,
            name="uniform",
        )

    @classmethod
    def slow_rank(
        cls,
        num_ranks: int,
        rank: int = 0,
        compute_mult: float = 1.5,
        comm_mult: float = 1.0,
    ) -> "StragglerSpec":
        """One straggling device: ``rank`` runs its compute (and
        optionally its comm) slower by the given multipliers."""
        if num_ranks <= 0:
            raise ValueError(f"num_ranks must be positive, got {num_ranks}")
        if not 0 <= rank < num_ranks:
            raise ValueError(
                f"rank {rank} out of range for {num_ranks} ranks"
            )
        compute = [1.0] * num_ranks
        comm = [1.0] * num_ranks
        compute[rank] = float(compute_mult)
        comm[rank] = float(comm_mult)
        return cls(
            compute_mult=tuple(compute),
            comm_mult=tuple(comm),
            expert_mult=(1.0,) * num_ranks,
            name=f"slow{rank}x{compute_mult:g}"
            + (f"/comm{comm_mult:g}" if comm_mult != 1.0 else ""),
        )

    @classmethod
    def degraded_link(
        cls, num_ranks: int, rank: int, link, baseline
    ) -> "StragglerSpec":
        """``rank``'s NIC runs at ``link`` bandwidth instead of
        ``baseline`` (both :class:`~repro.hw.link.LinkSpec`), e.g. an
        NVLink rank demoted to the IB fabric tier of
        :mod:`repro.hw.multinode`."""
        if link.gbps <= 0 or baseline.gbps <= 0:
            raise ValueError("link bandwidths must be positive")
        mult = baseline.gbps / link.gbps
        if mult < 1.0:
            raise ValueError(
                f"degraded link {link.name} is faster than baseline "
                f"{baseline.name} — swap the arguments"
            )
        comm = [1.0] * num_ranks
        if not 0 <= rank < num_ranks:
            raise ValueError(f"rank {rank} out of range for {num_ranks} ranks")
        comm[rank] = mult
        return cls(
            compute_mult=(1.0,) * num_ranks,
            comm_mult=tuple(comm),
            expert_mult=(1.0,) * num_ranks,
            name=f"link{rank}:{link.name}",
        )

    @classmethod
    def skewed_placement(
        cls,
        num_ranks: int,
        num_experts: int,
        topk: int = 2,
        correlation: float = 0.9,
        drift_scale: float = 1.5,
        tokens: int = 4096,
        seed: int = 0,
    ) -> "StragglerSpec":
        """Expert-placement skew from temporally correlated routing.

        Samples an AR(1)-correlated routing plan
        (:func:`repro.moe.correlated.correlated_routing`), assigns
        experts to ranks round-robin, and sets each rank's
        ``expert_mult`` to its share of routed pairs relative to the
        balanced average — the load profile a bursty production trace
        imposes on a static placement.
        """
        import numpy as np

        from repro.moe.correlated import correlated_routing

        if num_ranks <= 0:
            raise ValueError(f"num_ranks must be positive, got {num_ranks}")
        if num_experts < num_ranks or num_experts % num_ranks:
            raise ValueError(
                f"num_experts {num_experts} must be a positive multiple of "
                f"num_ranks {num_ranks}"
            )
        plan = correlated_routing(
            tokens,
            topk,
            num_experts,
            correlation,
            drift_scale=drift_scale,
            rng=np.random.default_rng(seed),
        )
        counts = np.bincount(plan.experts.ravel(), minlength=num_experts)
        # Round-robin placement: expert e lives on rank e % num_ranks.
        rank_load = np.zeros(num_ranks)
        for expert in range(num_experts):
            rank_load[expert % num_ranks] += counts[expert]
        mean = rank_load.mean()
        if mean <= 0:
            return cls.uniform(num_ranks)
        # Floor at a small positive load so empty ranks stay schedulable.
        mult = np.maximum(rank_load / mean, 1e-3)
        ones = (1.0,) * num_ranks
        # Every distinguishing knob goes into the label: specs differing
        # only in drift/topk/tokens must export distinct cells.
        return cls(
            compute_mult=ones,
            comm_mult=ones,
            expert_mult=tuple(float(m) for m in mult),
            name=(
                f"skew:r{correlation:g}d{drift_scale:g}k{topk}"
                f"t{tokens}s{seed}"
            ),
        )

    def compose(self, other: "StragglerSpec") -> "StragglerSpec":
        """Elementwise product of two specs over the same ranks.

        Composition models independent slowdown mechanisms stacking — a
        skewed placement on a thermally throttled device, or a
        mid-trace :class:`~repro.faults.plan.DegradeEvent` landing on a
        replica that already has a base straggler spec.  Multiplication
        commutes, so composition order never changes the fingerprint.
        """
        if other.num_ranks != self.num_ranks:
            raise ValueError(
                f"cannot compose specs over {self.num_ranks} and "
                f"{other.num_ranks} ranks"
            )
        name = "*".join(part for part in (self.label, other.label) if part)
        return StragglerSpec(
            compute_mult=tuple(
                a * b for a, b in zip(self.compute_mult, other.compute_mult)
            ),
            comm_mult=tuple(
                a * b for a, b in zip(self.comm_mult, other.comm_mult)
            ),
            expert_mult=tuple(
                a * b for a, b in zip(self.expert_mult, other.expert_mult)
            ),
            name=name,
        )

    # -- structure -------------------------------------------------------------
    @property
    def num_ranks(self) -> int:
        return len(self.compute_mult)

    @property
    def is_uniform(self) -> bool:
        """Whether every multiplier is exactly 1.0 (the degenerate spec)."""
        return all(
            m == 1.0
            for mults in (self.compute_mult, self.comm_mult, self.expert_mult)
            for m in mults
        )

    def rank_multipliers(self, rank: int) -> tuple[float, float, float]:
        """``(compute, comm, expert)`` multipliers of one rank.

        This triple is the rank's *timing class*: ranks sharing it lower
        to identical phase lists, which is how identical ranks share one
        lowered phase tuple (the PR 3 rank-deduplication idea applied to
        lowering).
        """
        if not 0 <= rank < self.num_ranks:
            raise ValueError(f"rank {rank} out of range for {self.num_ranks} ranks")
        return (
            self.compute_mult[rank],
            self.comm_mult[rank],
            self.expert_mult[rank],
        )

    @property
    def label(self) -> str:
        """Compact identifier for scenario labels and export columns."""
        if self.name:
            return self.name
        if self.is_uniform:
            return "uniform"
        return f"strag:{self.fingerprint()[:8]}"

    def fingerprint(self) -> str:
        """Stable digest over the exact IEEE-754 multiplier bits.

        Composes into graph-cache keys: two specs with equal
        fingerprints scale every lowered duration identically.  ``name``
        is a display label only: it keeps identically-shaped grid points
        distinct through ``==`` but never changes a lowered duration, so
        it stays out of the digest by design — two specs differing only
        in name share cached schedules.
        """
        digest = hashlib.sha1()
        for mults in (self.compute_mult, self.comm_mult, self.expert_mult):
            digest.update(",".join(m.hex() for m in mults).encode())
            digest.update(b";")
        return digest.hexdigest()

    # -- lowering helpers ------------------------------------------------------
    def per_rank_table(self, build) -> tuple:
        """One ``build(rank)`` result per rank, memoised per timing class.

        Ranks sharing a multiplier triple (:meth:`rank_multipliers`)
        share one returned object — the single implementation of the
        identical-ranks-share-lowered-phases deduplication, used both by
        the generic scaling in :mod:`repro.graph.lower` and the
        system-aware :meth:`repro.systems.base.MoESystem.lower_rank_phases`.
        ``build`` must therefore be a pure function of the rank's
        multiplier triple.
        """
        memo: dict[tuple[float, float, float], object] = {}
        table = []
        for rank in range(self.num_ranks):
            key = self.rank_multipliers(rank)
            if key not in memo:
                memo[key] = build(rank)
            table.append(memo[key])
        return tuple(table)

    def scale_phases(self, phases, rank: int) -> tuple:
        """Generic per-rank scaling of a :class:`LayerPhase` sequence.

        Comm phases scale by ``comm_mult``; expert-branch compute
        (``EXPERT`` / ``ACTIVATION``) by ``compute_mult * expert_mult``;
        every other compute phase by ``compute_mult``.  A multiplier of
        exactly 1.0 returns the input durations untouched (no float
        operation at all), preserving the uniform-case bit identity.

        System-aware lowering (which re-exposes hidden communication
        under the multipliers) lives in
        :meth:`repro.systems.base.MoESystem.lower_rank_layer`; this
        helper is the structure-agnostic fallback for hand-built phase
        lists and tests.
        """
        from repro.graph.ir import LayerPhase, NodeKind

        compute, comm, expert = self.rank_multipliers(rank)
        if compute == 1.0 and comm == 1.0 and expert == 1.0:
            return tuple(phases)
        expert_kinds = (NodeKind.EXPERT, NodeKind.ACTIVATION)
        out = []
        for phase in phases:
            if phase.comm:
                mult = comm
            elif phase.kind in expert_kinds:
                mult = compute * expert
            else:
                mult = compute
            out.append(
                phase
                if mult == 1.0
                else LayerPhase(phase.kind, phase.duration_us * mult, phase.comm)
            )
        return tuple(out)

    def scale_compute(self, duration_us: float, rank: int) -> float:
        """Scale a compute-stream duration (attention, optimizer)."""
        mult = self.compute_mult[rank]
        return duration_us if mult == 1.0 else duration_us * mult

    def scale_comm(self, duration_us: float, rank: int) -> float:
        """Scale a comm-stream duration (grad-sync)."""
        mult = self.comm_mult[rank]
        return duration_us if mult == 1.0 else duration_us * mult
