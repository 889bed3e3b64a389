"""Lower per-layer system timings into whole-model schedule graphs.

This module turns the phase lists produced by
:meth:`repro.systems.base.MoESystem.lower_layer` into model-level
:class:`~repro.graph.ir.ScheduleGraph` instances under one of three
**overlap policies** — the new sweep axis:

* ``per_layer`` — today's execution model: every layer is a serial chain
  (attention, gate, dispatch, experts, combine, host) and layers follow
  each other back to back.  The makespan is *proven equal, bit for bit*,
  to the legacy additive totals of ``run_model`` / ``run_training_step``
  / ``StepCostModel`` (the equivalence tests enforce ``==``): a chain
  schedule accumulates finish times in exactly the order
  :attr:`~repro.systems.base.LayerTiming.total_us` sums its segments.
* ``cross_layer`` — Lancet-style whole-graph overlapping: the combine
  all-to-all of layer *i* runs on the comm stream concurrently with the
  host epilogue and the attention of layer *i + 1*; the next gate waits
  for both.  In training, the dense gradient all-reduce is additionally
  bucketed per layer and overlaps the remaining backward compute.
* ``shortcut`` — ScMoE-style shortcut-connected expert parallelism: the
  MoE branch of a block consumes the *previous* block's output, so the
  gate+dispatch launch before the block's attention and the dispatch
  overlaps the dense path as well; combine still merges one block later.

**Per-rank lowering.**  Every builder accepts an optional
:class:`~repro.graph.straggler.StragglerSpec`; when given, the graph
carries one compute + comm stream pair *per rank* instead of the single
bottleneck-rank pair.  Ranks sharing a multiplier triple share one
scaled phase tuple (the PR 3 rank-deduplication idea applied to
lowering), and every communication phase — dispatch, combine,
grad-sync — becomes a cross-rank barrier: its node on rank *r* depends
on the chain predecessors of *all* ranks, because an all-to-all cannot
complete before the slowest participant reaches it.  The uniform spec
is the proven degenerate case: each rank's chain performs exactly the
float accumulations of the single-rank chain, barrier maxima take the
maximum of bit-equal values, and the per-rank makespan therefore equals
the single-rank graph's makespan ``==``-exactly (the straggler tests
assert it per system x policy).  ``phases`` may also be a pre-lowered
per-rank table (a sequence of phase sequences), which is how
:meth:`repro.systems.base.MoESystem.lower_rank_phases` feeds
system-aware re-exposure of hidden communication into the builders.

Comm-phase durations are the *exposed* remainders after whatever
intra-layer overlapping each system already performs, so cross-layer
gains compound on top of COMET's fine-grained intra-layer gains — the
compounding Lancet and ScMoE report over per-layer overlappers.

**One skeleton per topology.**  A build first computes its
``topology_token`` (policy, layer count, rank count, per-position phase
shape with its zero/nonzero pattern) and one flat *source vector* of
its per-rank durations — phases, attention, grad-sync, chunks,
optimizer — checked once for finite, non-negative values.  The
duration-free *skeleton* of the token — the graph's structural columns
plus, per node, the index of its duration in the source vector — is
lowered once per process (:func:`repro.perf.lowered_skeleton`, in
:data:`repro.perf.GRAPH_BATCH_CACHE`); every later build of the
topology only gathers its durations with one numpy take and shares the
skeleton's columns read-only.  The gather does no arithmetic, so each
graph equals a node-by-node build, float for float.

All scheduling goes through :func:`repro.perf.cached_graph_schedule`
(keyed by :meth:`ScheduleGraph.fingerprint`, whose stream inventory
covers the per-rank streams), so repeated grid points and ``workers=N``
runs stay byte-identical while scheduling each distinct graph once.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from repro.graph.ir import (
    COMM,
    COMPUTE,
    LayerPhase,
    NodeKind,
    ScheduleGraph,
    Stream,
    check_duration,
)
from repro.graph.scheduler import GraphSchedule, list_schedule
from repro.graph.straggler import StragglerSpec

__all__ = [
    "OVERLAP_POLICIES",
    "build_forward_graph",
    "build_moe_chain",
    "build_training_graph",
    "check_policy",
    "forward_makespan",
    "forward_schedule",
    "training_makespan",
    "training_schedule",
]

OVERLAP_POLICIES = ("per_layer", "cross_layer", "shortcut")

_COMPUTE = Stream(COMPUTE, 0)
_COMM = Stream(COMM, 0)


def check_policy(policy: str) -> str:
    if policy not in OVERLAP_POLICIES:
        raise ValueError(
            f"overlap_policy must be one of {', '.join(OVERLAP_POLICIES)}; "
            f"got {policy!r}"
        )
    return policy


def _cached_schedule(graph: ScheduleGraph) -> GraphSchedule:
    from repro import perf

    return perf.cached_graph_schedule(graph)


def build_moe_chain(phases: Sequence[LayerPhase]) -> ScheduleGraph:
    """One MoE layer as a serial chain (the per-layer execution model).

    Scheduling this chain accumulates finish times left to right in the
    phases' order, so its makespan equals
    :attr:`~repro.systems.base.LayerTiming.total_us` bit for bit when the
    phases come from the default ``lower_layer`` (zero-duration phases
    are dropped; adding ``0.0`` never changes an IEEE-754 sum).
    """
    graph = ScheduleGraph()
    prev: int | None = None
    for phase in phases:
        if phase.duration_us == 0.0:
            continue
        prev = graph.add(
            phase.kind,
            phase.duration_us,
            _COMM if phase.comm else _COMPUTE,
            deps=() if prev is None else (prev,),
            layer=0,
        )
    return graph


def _is_rank_table(phases: Sequence) -> bool:
    """Whether ``phases`` is a per-rank table (sequence of sequences)."""
    return bool(phases) and not isinstance(phases[0], LayerPhase)


def _phase_table(
    phases: Sequence, stragglers: StragglerSpec | None
) -> list[tuple[LayerPhase, ...]]:
    """Normalise ``phases`` to one phase tuple per rank.

    A flat phase list replicates across the spec's ranks through
    :meth:`StragglerSpec.scale_phases`, memoised per multiplier triple so
    identical ranks share one tuple; a pre-lowered per-rank table passes
    through (validated against the spec's rank count).  Structural
    alignment across ranks — same phase kinds at the same positions, the
    same zero/non-zero pattern — is guaranteed for scaled tables because
    every multiplier is positive; per-rank tables from
    ``lower_rank_phases`` preserve it by construction.
    """
    if _is_rank_table(phases):
        table = [tuple(rank_phases) for rank_phases in phases]
        if stragglers is not None and len(table) != stragglers.num_ranks:
            raise ValueError(
                f"per-rank phase table has {len(table)} ranks, straggler "
                f"spec has {stragglers.num_ranks}"
            )
        # Structural alignment is a hard requirement of the barrier
        # lowering: every rank must carry the same phase kinds on the
        # same streams at the same positions (durations may differ,
        # including down to zero).
        shape = [(p.kind, p.comm) for p in table[0]]
        for rank, rank_phases in enumerate(table[1:], start=1):
            if [(p.kind, p.comm) for p in rank_phases] != shape:
                raise ValueError(
                    f"per-rank phase table rank {rank} is structurally "
                    f"misaligned with rank 0 (same kinds/streams per "
                    f"position required)"
                )
        return table
    flat = tuple(phases)
    if stragglers is None:
        return [flat]
    return list(
        stragglers.per_rank_table(
            lambda rank: stragglers.scale_phases(flat, rank)
        )
    )


def _attention_table(
    attention_us: float, num_ranks: int, stragglers: StragglerSpec | None
) -> list[float]:
    if stragglers is None:
        return [attention_us] * num_ranks
    return [
        stragglers.scale_compute(attention_us, rank)
        for rank in range(num_ranks)
    ]


def _source_vector(
    *segments: tuple[str, Sequence[float]]
) -> tuple[np.ndarray, list[int]]:
    """One build's node durations, concatenated: the source vector its
    skeleton gathers from, and the offset of each segment in it.

    The vector is checked once, here: every value must be finite and
    ``>= 0``.  That covers the builder scalars (attention, grad-sync,
    optimizer) too, whose nodes a ``> 0.0`` test would otherwise drop
    silently for a NaN.
    """
    offsets = []
    values: list[float] = []
    for _, segment in segments:
        offsets.append(len(values))
        values.extend(segment)
    source = np.array(values, dtype=np.float64)
    if not (source.min() >= 0.0 and source.max() < math.inf):
        for name, segment in segments:
            for value in segment:
                check_duration(value, name)
    return source, offsets


def _phase_durations(table: Sequence[Sequence[LayerPhase]]) -> list[float]:
    """A phase table's durations, rank-major (rank *r*, position *i* at
    ``r * width + i``)."""
    return [phase.duration_us for phases in table for phase in phases]


class _Skeleton:
    """One topology's lowering with the durations left out.

    ``graph`` holds the structural columns (its durations are zero
    placeholders); ``sources[i]`` is the index of node *i*'s duration in
    the builder's per-call source vector (:func:`_source_vector`), so a
    build of a known topology is one gather.
    """

    __slots__ = ("graph", "sources")

    def __init__(self) -> None:
        self.graph = ScheduleGraph()
        self.sources: list[int] | np.ndarray = []

    def add(
        self,
        kind: NodeKind,
        source: int,
        stream: Stream,
        deps: Sequence[int],
        layer: int = -1,
        tag: str = "",
    ) -> int:
        self.sources.append(source)
        return self.graph.add(kind, 0.0, stream, deps, layer=layer, tag=tag)


def _lowered(
    token: tuple, lower: Callable[[_Skeleton], None], source: np.ndarray
) -> ScheduleGraph:
    """The graph of ``token`` running for this call's ``source`` vector.

    The skeleton comes from :func:`repro.perf.lowered_skeleton` — lowered
    by ``lower`` once per topology and process — and the durations are
    one numpy take: no arithmetic, so every float is the source value.
    """
    from repro import perf

    def build() -> _Skeleton:
        skeleton = _Skeleton()
        lower(skeleton)
        skeleton.sources = np.array(skeleton.sources, dtype=np.intp)
        return skeleton

    skeleton = perf.lowered_skeleton(token, build)
    return skeleton.graph.with_durations(source[skeleton.sources], token)


class _LayerState:
    """Cross-layer context threaded through the per-layer builders."""

    __slots__ = ("exit_ids", "combine_id")

    def __init__(self) -> None:
        self.exit_ids: tuple[int, ...] = ()  # serial compute-path exit
        self.combine_id: int | None = None  # detached trailing combine


def _barrier_deps(dep_sets: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """Union of every rank's dependency set, in first-seen order.

    Comm nodes are collectives: rank *r*'s dispatch/combine/grad-sync
    cannot finish before every rank reached the collective, so its
    dependency set is the union of all ranks' chain predecessors.  With
    one rank this is the rank's own set, so single-rank graphs are
    unchanged bit for bit.
    """
    merged: list[int] = []
    for deps in dep_sets:
        merged.extend(deps)
    return tuple(dict.fromkeys(merged))


def _add_layer(
    skeleton: _Skeleton,
    shape: tuple,
    phase_src: int,
    attention_src: int,
    policy: str,
    layer: int,
    states: Sequence[_LayerState],
    streams: Sequence[tuple[Stream, Stream]],
    tag: str = "",
    attention_kind: NodeKind = NodeKind.ATTENTION,
    attention_first: bool = True,
) -> None:
    """Append one transformer layer for every rank to ``skeleton``.

    ``shape`` is the phase table's :func:`_table_token` — rank count,
    per-position (kind, comm side, active) and whether attention runs —
    which is everything the node topology depends on.  Rank *r*'s phase
    at position *i* takes its duration from source index
    ``phase_src + r * width + i``, its attention from
    ``attention_src + r``.

    Nodes are added phase-major, rank-minor: each structural position is
    emitted for all ranks before the next position, so cross-rank
    barrier edges always point at earlier nodes.  Within one rank the
    add order — and therefore the id-based stream tie-breaking — is
    identical to the historical single-rank builder, which this function
    reproduces exactly when called with one rank.

    ``attention_first=False`` appends the attention node after the MoE
    phases instead — the backward pass runs the reversed layer, where the
    attention backward trails the expert backward and is what the
    detached combine overlaps with.
    """
    num_ranks, positions, attention_active = shape
    width = len(positions)
    ranks = range(num_ranks)
    # A position is active when ANY rank has nonzero duration there:
    # system-aware re-exposure can zero one rank's comm phase (fully
    # hidden) while another rank's stays exposed, so pruning by rank 0
    # alone would silently drop the other ranks' collectives.  Ranks
    # with a zero duration at an active position emit a zero-length
    # node — timing-neutral (both executors handle zero nodes exactly)
    # and keeps the barrier structure aligned.  With one rank this is
    # the historical drop-if-zero rule, node for node.
    active_idx = [i for i, (_, _, active) in enumerate(positions) if active]
    kinds = [NodeKind(positions[i][0]) for i in active_idx]
    comms = [positions[i][1] for i in active_idx]

    def add_position(pos: int, deps: Sequence[tuple[int, ...]]) -> list[int]:
        side = 1 if comms[pos] else 0
        return [
            skeleton.add(
                kinds[pos],
                phase_src + r * width + active_idx[pos],
                streams[r][side],
                deps[r],
                layer=layer,
                tag=tag,
            )
            for r in ranks
        ]

    def add_attention(deps: Sequence[tuple[int, ...]]) -> list[int]:
        return [
            skeleton.add(
                attention_kind, attention_src + r, streams[r][0], deps[r],
                layer=layer, tag=tag,
            )
            for r in ranks
        ]

    # The detachable boundary comm phase: the trailing combine, whose
    # output is only needed at the next layer's merge point.
    combine_pos = None
    if policy != "per_layer":
        for idx in range(len(active_idx) - 1, -1, -1):
            if comms[idx] and kinds[idx] is NodeKind.COMBINE:
                combine_pos = idx
                break

    entry_deps = [states[r].exit_ids for r in ranks]
    combine_dep = [
        () if states[r].combine_id is None else (states[r].combine_id,)
        for r in ranks
    ]
    merge_deps = [(*entry_deps[r], *combine_dep[r]) for r in ranks]

    has_attention = attention_first and attention_active
    overlap_dense = policy == "shortcut" and has_attention and bool(active_idx)

    attn_id: list[int | None] = [None for _ in ranks]
    combine_id: list[int | None] = [None for _ in ranks]
    prev: list[tuple[int, ...]]
    remaining = list(range(len(active_idx)))
    if overlap_dense:
        # ScMoE: the MoE branch consumes the previous block's output, so
        # the gate launches before this block's attention (lower node id
        # wins the compute-stream tie) and the dispatch overlaps the
        # dense path; the paths merge again at the layer exit.
        first_pos = remaining.pop(0)
        first_ids = add_position(
            first_pos,
            [_barrier_deps(merge_deps)] * num_ranks
            if comms[first_pos]
            else merge_deps,
        )
        attn_id = add_attention(entry_deps)
        prev = [
            (first_ids[r],) if first_pos != combine_pos else merge_deps[r]
            for r in ranks
        ]
        if first_pos == combine_pos:
            combine_id = list(first_ids)
    elif has_attention:
        # per_layer keeps the strict chain; cross_layer lets attention
        # skip the previous combine (Lancet's boundary overlap) while
        # the gate — which needs the merged output — waits for both.
        attn_id = add_attention(
            entry_deps if policy == "cross_layer" else merge_deps
        )
        prev = [
            (attn_id[r], *combine_dep[r])
            if policy == "cross_layer"
            else (attn_id[r],)
            for r in ranks
        ]
    else:
        prev = list(merge_deps)

    for pos in remaining:
        ids = add_position(
            pos,
            [_barrier_deps(prev)] * num_ranks if comms[pos] else prev,
        )
        if pos == combine_pos:
            combine_id = ids  # detached: the chain continues without it
        else:
            prev = [(ids[r],) for r in ranks]

    if not attention_first and attention_active:
        attn_id = add_attention(prev)
        prev = [(attn_id[r],) for r in ranks]
    elif overlap_dense:
        # Merge the dense path back in: the layer's serial exit requires
        # both the expert chain and the attention output.
        for r in ranks:
            if attn_id[r] is not None and attn_id[r] not in prev[r]:
                prev[r] = (*prev[r], attn_id[r])

    for r in ranks:
        states[r].exit_ids = prev[r] if prev[r] else entry_deps[r]
        states[r].combine_id = combine_id[r]


def _rank_streams(num_ranks: int) -> list[tuple[Stream, Stream]]:
    """One (compute, comm) stream pair per rank."""
    if num_ranks == 1:
        return [(_COMPUTE, _COMM)]
    return [
        (Stream(COMPUTE, rank), Stream(COMM, rank))
        for rank in range(num_ranks)
    ]


def _table_token(
    table: Sequence[Sequence[LayerPhase]], attention0: float
) -> tuple:
    """Structural summary of one phase table: everything ``_add_layer``
    branches on besides the policy.

    Node topology depends on durations only through their zero/nonzero
    pattern — ``_add_layer`` prunes positions where *every* rank is zero
    and skips attention when rank 0's attention is zero — so the token
    records per-position (kind, stream side, any-rank-active) plus the
    attention flag and the rank count.  Two builder calls with equal
    tokens therefore produce identical topologies, and ``_add_layer``
    lowers from the token alone.
    """
    return (
        len(table),
        tuple(
            (
                phase.kind.value,
                phase.comm,
                any(rank[i].duration_us > 0.0 for rank in table),
            )
            for i, phase in enumerate(table[0])
        ),
        attention0 > 0.0,
    )


def build_forward_graph(
    phases: Sequence,
    attention_us: float,
    num_layers: int,
    policy: str,
    stragglers: StragglerSpec | None = None,
) -> ScheduleGraph:
    """Whole-model forward graph: ``num_layers`` identical layers.

    With ``stragglers`` (or a per-rank ``phases`` table) the graph
    carries one stream pair per rank and barrier edges at every comm
    phase; without, it is the historical single-rank graph, node for
    node.
    """
    check_policy(policy)
    if num_layers <= 0:
        raise ValueError(f"num_layers must be positive, got {num_layers}")
    table = _phase_table(phases, stragglers)
    num_ranks = len(table)
    attention = _attention_table(attention_us, num_ranks, stragglers)
    source, (phase_src, attention_src) = _source_vector(
        ("phase duration_us", _phase_durations(table)),
        ("attention_us", attention),
    )
    shape = _table_token(table, attention[0])

    def lower(skeleton: _Skeleton) -> None:
        states = [_LayerState() for _ in range(num_ranks)]
        streams = _rank_streams(num_ranks)
        for layer in range(num_layers):
            _add_layer(
                skeleton, shape, phase_src, attention_src, policy, layer,
                states, streams,
            )

    # The token is the O(1) structural identity of the perf-layer caches
    # and keys the skeleton: ``lower`` reads nothing it does not fix.
    return _lowered(("fwd", policy, num_layers, shape), lower, source)


def build_training_graph(
    fwd_phases: Sequence,
    bwd_phases: Sequence,
    attention_fwd_us: float,
    attention_bwd_us: float,
    num_layers: int,
    grad_sync_us: float,
    optimizer_us: float,
    policy: str,
    stragglers: StragglerSpec | None = None,
) -> ScheduleGraph:
    """One full training step: forward sweep, backward sweep, sync, update.

    Under ``cross_layer``/``shortcut`` the dense gradient all-reduce is
    bucketed into one chunk per layer, released as that layer's backward
    finishes — the standard DDP bucketing overlap — and the optimizer
    waits for every bucket plus the final backward compute.  Per-rank
    graphs put one grad-sync node per rank behind a cross-rank barrier
    (an all-reduce waits for the slowest contributor) and one optimizer
    node per rank on that rank's compute stream.
    """
    check_policy(policy)
    if num_layers <= 0:
        raise ValueError(f"num_layers must be positive, got {num_layers}")
    fwd_table = _phase_table(fwd_phases, stragglers)
    bwd_table = _phase_table(bwd_phases, stragglers)
    if len(fwd_table) != len(bwd_table):
        raise ValueError(
            f"forward table has {len(fwd_table)} ranks, backward "
            f"{len(bwd_table)}"
        )
    num_ranks = len(fwd_table)
    attention_fwd = _attention_table(attention_fwd_us, num_ranks, stragglers)
    attention_bwd = _attention_table(attention_bwd_us, num_ranks, stragglers)
    sync_us = [
        grad_sync_us
        if stragglers is None
        else stragglers.scale_comm(grad_sync_us, rank)
        for rank in range(num_ranks)
    ]
    opt_us = [
        optimizer_us
        if stragglers is None
        else stragglers.scale_compute(optimizer_us, rank)
        for rank in range(num_ranks)
    ]
    has_sync = grad_sync_us > 0.0
    has_optimizer = optimizer_us > 0.0
    bucketed = policy != "per_layer" and has_sync
    chunk_us = [us / num_layers if bucketed else 0.0 for us in sync_us]
    source, offsets = _source_vector(
        ("forward phase duration_us", _phase_durations(fwd_table)),
        ("backward phase duration_us", _phase_durations(bwd_table)),
        ("attention_fwd_us", attention_fwd),
        ("attention_bwd_us", attention_bwd),
        ("grad_sync_us", sync_us),
        ("grad_sync_us chunk", chunk_us),
        ("optimizer_us", opt_us),
    )
    fwd_src, bwd_src, attn_fwd_src, attn_bwd_src, sync_src, chunk_src, opt_src = offsets
    fwd_shape = _table_token(fwd_table, attention_fwd[0])
    bwd_shape = _table_token(bwd_table, attention_bwd[0])

    def lower(skeleton: _Skeleton) -> None:
        states = [_LayerState() for _ in range(num_ranks)]
        streams = _rank_streams(num_ranks)
        for layer in range(num_layers):
            _add_layer(
                skeleton, fwd_shape, fwd_src, attn_fwd_src, policy, layer,
                states, streams, tag="fwd",
            )
        sync_chunks: list[list[int]] = [[] for _ in range(num_ranks)]
        for layer in range(num_layers - 1, -1, -1):
            _add_layer(
                skeleton,
                bwd_shape,
                bwd_src,
                attn_bwd_src,
                policy,
                layer,
                states,
                streams,
                tag="bwd",
                attention_kind=NodeKind.ATTENTION_BWD,
                attention_first=False,
            )
            if bucketed:
                barrier = _barrier_deps([state.exit_ids for state in states])
                for rank in range(num_ranks):
                    sync_chunks[rank].append(
                        skeleton.add(
                            NodeKind.GRAD_SYNC,
                            chunk_src + rank,
                            streams[rank][1],
                            barrier,
                            layer=layer,
                            tag="bwd",
                        )
                    )
        tail_deps = [state.exit_ids for state in states]
        if not bucketed and has_sync:
            barrier = _barrier_deps(tail_deps)
            tail_deps = [
                (
                    skeleton.add(
                        NodeKind.GRAD_SYNC, sync_src + rank,
                        streams[rank][1], barrier,
                    ),
                )
                for rank in range(num_ranks)
            ]
        if has_optimizer:
            for rank in range(num_ranks):
                skeleton.add(
                    NodeKind.OPTIMIZER,
                    opt_src + rank,
                    streams[rank][0],
                    (*tail_deps[rank], *sync_chunks[rank]),
                )

    token = (
        "train",
        policy,
        num_layers,
        fwd_shape,
        bwd_shape,
        has_sync,
        has_optimizer,
    )
    return _lowered(token, lower, source)


def forward_schedule(
    phases: Sequence,
    attention_us: float,
    num_layers: int,
    policy: str,
    stragglers: StragglerSpec | None = None,
) -> GraphSchedule:
    """Schedule the flat forward graph (cached by graph fingerprint)."""
    return _cached_schedule(
        build_forward_graph(phases, attention_us, num_layers, policy, stragglers)
    )


def forward_makespan(
    phases: Sequence,
    attention_us: float,
    num_layers: int,
    policy: str,
    stragglers: StragglerSpec | None = None,
) -> float:
    """End-to-end forward makespan under ``policy``.

    ``per_layer`` (without stragglers) composes the scheduled
    single-layer chain exactly the way the legacy additive path does —
    ``num_layers x (attention + chain makespan)`` — so the result is
    bit-identical to ``ModelTiming.total_us`` (and to ``StepCostModel``'s
    per-bucket cost); the unrolled flat graph agrees to float
    associativity and is what the DES cross-check executes.  Straggler
    specs (and per-rank phase tables) always schedule the flat per-rank
    graph, because the cross-rank barriers are the model.
    """
    check_policy(policy)
    if (
        policy == "per_layer"
        and stragglers is None
        and not _is_rank_table(phases)
    ):
        check_duration(attention_us, "attention_us")
        moe_us = list_schedule(build_moe_chain(phases)).makespan_us
        return num_layers * (attention_us + moe_us)
    return forward_schedule(
        phases, attention_us, num_layers, policy, stragglers
    ).makespan_us


def training_schedule(
    fwd_phases: Sequence,
    bwd_phases: Sequence,
    attention_fwd_us: float,
    attention_bwd_us: float,
    num_layers: int,
    grad_sync_us: float,
    optimizer_us: float,
    policy: str,
    stragglers: StragglerSpec | None = None,
) -> GraphSchedule:
    """Schedule the flat training-step graph (cached by fingerprint)."""
    return _cached_schedule(
        build_training_graph(
            fwd_phases,
            bwd_phases,
            attention_fwd_us,
            attention_bwd_us,
            num_layers,
            grad_sync_us,
            optimizer_us,
            policy,
            stragglers,
        )
    )


def training_makespan(
    fwd_phases: Sequence,
    bwd_phases: Sequence,
    attention_fwd_us: float,
    attention_bwd_us: float,
    num_layers: int,
    grad_sync_us: float,
    optimizer_us: float,
    policy: str,
    stragglers: StragglerSpec | None = None,
) -> float:
    """Training-step makespan under ``policy``.

    ``per_layer`` (without stragglers) reproduces
    :attr:`TrainStepTiming.step_us` bit for bit (same summation order
    and association as the legacy formula); straggler specs schedule
    the flat per-rank graph.
    """
    check_policy(policy)
    if (
        policy == "per_layer"
        and stragglers is None
        and not _is_rank_table(fwd_phases)
        and not _is_rank_table(bwd_phases)
    ):
        for name, value in (
            ("attention_fwd_us", attention_fwd_us),
            ("attention_bwd_us", attention_bwd_us),
            ("grad_sync_us", grad_sync_us),
            ("optimizer_us", optimizer_us),
        ):
            check_duration(value, name)
        moe_fwd_us = list_schedule(build_moe_chain(fwd_phases)).makespan_us
        moe_bwd_us = list_schedule(build_moe_chain(bwd_phases)).makespan_us
        layer_us = attention_fwd_us + attention_bwd_us + moe_fwd_us + moe_bwd_us
        return num_layers * layer_us + grad_sync_us + optimizer_us
    return training_schedule(
        fwd_phases,
        bwd_phases,
        attention_fwd_us,
        attention_bwd_us,
        num_layers,
        grad_sync_us,
        optimizer_us,
        policy,
        stragglers,
    ).makespan_us
