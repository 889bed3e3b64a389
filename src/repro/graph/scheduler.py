"""Deterministic analytic list scheduler for :class:`ScheduleGraph`.

The scheduler assigns every node a start and finish time under the IR's
execution semantics:

* a node may start once all its dependency predecessors have finished;
* nodes sharing a :class:`~repro.graph.ir.Stream` execute serially;
* when a stream is free and several nodes are ready, the lowest node id
  runs first (ids are assigned in graph construction order).

This is the same analytic event-loop style as the PR 3 wave scheduler in
:mod:`repro.kernels.fused`: a heap of completion events, per-stream
ready queues, no per-tick stepping.  All completions sharing one
timestamp are drained before any stream dispatches again, which makes
the dispatch order — and therefore every start/finish float — exactly
equal to the discrete-event reference executor in
:mod:`repro.oracles.graph_des` (the oracle table asserts ``==``, not
approximate agreement).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.graph.ir import GraphNode, ScheduleGraph, Stream

__all__ = [
    "GraphSchedule",
    "SymmetryReduction",
    "expand_symmetry",
    "list_schedule",
    "rank_makespans",
    "reduce_symmetry",
]


def rank_makespans(
    graph: ScheduleGraph, finish_us: tuple[float, ...]
) -> dict[int, float]:
    """Latest finish per rank, keyed by rank id (ascending).

    Shared by the analytic :class:`GraphSchedule` and the DES reference
    executor (which returns raw finish tuples), so both report per-rank
    makespans through one definition: the makespan of rank *r* is the
    latest finish over every node on one of *r*'s streams.
    """
    spans: dict[int, float] = {}
    for stream, finish in zip(graph.node_streams, finish_us):
        rank = stream.rank
        if rank not in spans or finish > spans[rank]:
            spans[rank] = finish
    return dict(sorted(spans.items()))


@dataclass(frozen=True)
class GraphSchedule:
    """The result of scheduling one graph: per-node times and makespan."""

    graph: ScheduleGraph = field(repr=False)
    start_us: tuple[float, ...]
    finish_us: tuple[float, ...]

    @property
    def makespan_us(self) -> float:
        """End-to-end wall clock of the scheduled graph."""
        return max(self.finish_us, default=0.0)

    @property
    def makespan_ms(self) -> float:
        return self.makespan_us / 1000.0

    def stream_busy_us(self) -> dict[Stream, float]:
        """Total occupied time per stream (utilisation numerator)."""
        busy: dict[Stream, float] = {}
        for stream, duration in zip(
            self.graph.node_streams, self.graph.durations
        ):
            busy[stream] = busy.get(stream, 0.0) + duration
        return busy

    def overlap_saved_us(self) -> float:
        """Work hidden by overlap: total work minus the makespan."""
        return self.graph.total_work_us - self.makespan_us

    # -- per-rank accessors (straggler & skew reporting) ----------------------
    def rank_makespans(self) -> dict[int, float]:
        """Latest finish per rank (multi-rank graphs; ``{0: makespan}``
        for the single-rank graphs the default lowering emits)."""
        return rank_makespans(self.graph, self.finish_us)

    def imbalance_us(self) -> float:
        """Spread between the slowest and fastest rank's makespan.

        Zero for single-rank graphs and for uniform per-rank graphs
        (every rank's timeline is identical); positive exactly when a
        straggler or placement skew leaves fast ranks idle at the end of
        the step.
        """
        spans = self.rank_makespans()
        if not spans:
            return 0.0
        values = spans.values()
        return max(values) - min(values)

    def straggler_rank(self) -> int:
        """The rank pacing the makespan (lowest id on exact ties)."""
        spans = self.rank_makespans()
        if not spans:
            return 0
        return min(spans, key=lambda rank: (-spans[rank], rank))

    def critical_path(self) -> list[GraphNode]:
        """One chain of nodes that paces the makespan, source to sink.

        Each step walks from a node to the predecessor that determined
        its start time: a dependency predecessor whose finish equals the
        start, or the node that ran immediately before it on the same
        stream (a resource wait).  Ties break toward the lowest id, so
        the path is deterministic.
        """
        if len(self.graph) == 0:
            return []
        stream_prev = _stream_predecessors(self.graph, self.start_us)
        # Sink: latest finish, lowest id on ties.
        sink = min(
            range(len(self.graph)),
            key=lambda i: (-self.finish_us[i], i),
        )
        path = [sink]
        current = sink
        while self.start_us[current] > 0.0:
            candidates = [
                p
                for p in self.graph.preds[current]
                if self.finish_us[p] == self.start_us[current]
            ]
            prev_on_stream = stream_prev[current]
            if (
                prev_on_stream is not None
                and self.finish_us[prev_on_stream] == self.start_us[current]
            ):
                candidates.append(prev_on_stream)
            if not candidates:  # start pinned by a zero-length wait chain
                break
            current = min(candidates)
            path.append(current)
        path.reverse()
        return [self.graph.nodes[i] for i in path]


def _stream_predecessors(
    graph: ScheduleGraph, start_us: tuple[float, ...]
) -> list[int | None]:
    """For each node, the node that ran just before it on its stream."""
    order: dict[Stream, list[int]] = {}
    for node_id, stream in enumerate(graph.node_streams):
        order.setdefault(stream, []).append(node_id)
    for ids in order.values():
        ids.sort(key=lambda i: (start_us[i], i))
    prev: list[int | None] = [None] * len(graph)
    for ids in order.values():
        for before, after in zip(ids, ids[1:]):
            prev[after] = before
    return prev


class _StreamState:
    __slots__ = ("busy", "free_at", "ready")

    def __init__(self) -> None:
        self.busy = False
        self.free_at = 0.0
        self.ready: list[int] = []  # heap of ready node ids


def list_schedule(graph: ScheduleGraph) -> GraphSchedule:
    """Schedule ``graph`` and return every node's start/finish time.

    Raises :class:`ValueError` if the graph contains a dependency cycle
    (impossible via :meth:`ScheduleGraph.add`, which only accepts edges
    from earlier nodes, but hand-built graphs are validated anyway).
    """
    n = len(graph)
    start = [0.0] * n
    finish = [0.0] * n
    if n == 0:
        return GraphSchedule(graph=graph, start_us=(), finish_us=())

    indegree = [len(deps) for deps in graph.preds]
    ready_at = [0.0] * n
    succs = graph.successors()
    streams: dict[Stream, _StreamState] = {
        stream: _StreamState() for stream in graph.streams()
    }

    node_streams = graph.node_streams
    durations = graph.durations
    events: list[tuple[float, int, int]] = []  # (finish, dispatch seq, node)
    seq = 0
    scheduled = 0

    def make_ready(node_id: int) -> None:
        heapq.heappush(streams[node_streams[node_id]].ready, node_id)

    def dispatch(state: _StreamState) -> None:
        nonlocal seq, scheduled
        if state.busy or not state.ready:
            return
        node_id = heapq.heappop(state.ready)
        begin = state.free_at if state.free_at > ready_at[node_id] else ready_at[node_id]
        start[node_id] = begin
        finish[node_id] = begin + durations[node_id]
        state.busy = True
        seq += 1
        scheduled += 1
        heapq.heappush(events, (finish[node_id], seq, node_id))

    for node_id in range(n):
        if indegree[node_id] == 0:
            make_ready(node_id)
    for state in streams.values():
        dispatch(state)

    while events:
        now = events[0][0]
        touched: dict[Stream, _StreamState] = {}
        # Drain every completion at this timestamp before dispatching,
        # mirroring the event ordering of the DES reference executor.
        while events and events[0][0] == now:
            _, _, node_id = heapq.heappop(events)
            stream = node_streams[node_id]
            state = streams[stream]
            state.busy = False
            state.free_at = finish[node_id]
            touched[stream] = state
            for succ in succs[node_id]:
                if finish[node_id] > ready_at[succ]:
                    ready_at[succ] = finish[node_id]
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    make_ready(succ)
                    touched[node_streams[succ]] = streams[node_streams[succ]]
        for state in touched.values():
            dispatch(state)

    if scheduled != n:
        raise ValueError(
            f"schedule graph has a dependency cycle: scheduled {scheduled} "
            f"of {n} nodes"
        )
    return GraphSchedule(
        graph=graph, start_us=tuple(start), finish_us=tuple(finish)
    )


# -- graph-level symmetry reduction -------------------------------------------
#
# The per-rank lowering (graph/lower.py) emits *rank-blocked* graphs:
# every structural position of the model is a block of ``world`` nodes —
# one per rank, in rank order — whose dependency sets are either a
# barrier (one node-id tuple shared by all ranks) or rank-local (every
# dep lands on the same rank, with one dep *block* pattern shared by all
# ranks).  In such a graph, two ranks whose duration bits agree in every
# block are exchangeable: their streams see the same ready times and the
# same dispatch order, so the list scheduler assigns them identical
# start/finish floats.  ``reduce_symmetry`` detects this shape, folds
# each equivalence class of ranks down to its lowest-ranked
# representative, and ``expand_symmetry`` replicates the representative
# times back out — bit-identical to scheduling the full graph (the
# property suite cross-checks against ``list_schedule`` and the DES
# reference).  Uniform and k-distinct-straggler graphs collapse from
# O(world) to O(k) scheduled streams.


@dataclass(frozen=True)
class SymmetryReduction:
    """A rank-blocked graph folded to one representative rank per class."""

    reduced: ScheduleGraph = field(repr=False)
    reps: tuple[int, ...]  # representative rank per class, ascending
    rep_index: tuple[int, ...]  # rank -> class index (into ``reps``)
    world: int
    blocks: int


@dataclass(frozen=True)
class BlockStructure:
    """The duration-independent half of a symmetry reduction.

    Everything here is a function of the graph's *topology* alone, so the
    perf layer caches it per topology key and re-runs only the (cheap,
    vectorisable) duration classification per graph.
    """

    world: int
    blocks: int
    #: Per block: ``None`` for a barrier (one dep tuple shared by all
    #: ranks), else the rank-local dep *block* pattern.
    local_pattern: tuple[tuple[int, ...] | None, ...]
    #: True when every barrier's deps cover each referenced block for
    #: *all* ranks.  Then the reduced dependency structure is determined
    #: by the class count alone — first-occurrence class labels ascend in
    #: rank order, so each fully-covered dep block maps to all of its
    #: class representatives regardless of which ranks form the classes —
    #: and the perf layer may reuse one compiled reduced topology across
    #: graphs with different rank→class assignments.
    reusable_deps: bool


def block_structure(graph: ScheduleGraph) -> BlockStructure | None:
    """Detect the rank-blocked shape :func:`reduce_symmetry` folds.

    Returns ``None`` whenever the graph is not rank-blocked or a block's
    dependency sets are neither barriers nor rank-local.
    """
    n = len(graph)
    if n == 0:
        return None
    ranks = graph.ranks()
    world = len(ranks)
    if world <= 1 or ranks != tuple(range(world)) or n % world:
        return None
    blocks = n // world
    kinds, node_streams = graph.kinds, graph.node_streams
    layers, tags, preds = graph.layers, graph.tags, graph.preds

    # Rank-blocked layout: block b holds ranks 0..world-1 in order, all
    # sharing kind/layer/tag and the compute-or-comm stream side.
    for b in range(blocks):
        base = b * world
        stream0 = node_streams[base]
        if stream0.rank != 0:
            return None
        for r in range(1, world):
            i = base + r
            if (
                node_streams[i].rank != r
                or node_streams[i].kind != stream0.kind
                or kinds[i] is not kinds[base]
                or layers[i] != layers[base]
                or tags[i] != tags[base]
            ):
                return None

    # Classify each block's dependencies: a barrier (identical tuple for
    # every rank) or rank-local (all deps on the own rank, one shared
    # block pattern).  Deps must come from strictly earlier blocks so the
    # reduced graph can be emitted in the same block order.
    local_pattern: list[tuple[int, ...] | None] = []
    reusable = True
    for b in range(blocks):
        base = b * world
        deps0 = preds[base]
        if all(preds[base + r] == deps0 for r in range(1, world)):
            if any(d // world >= b for d in deps0):
                return None
            local_pattern.append(None)
            if reusable:
                covered: dict[int, set[int]] = {}
                for d in deps0:
                    covered.setdefault(d // world, set()).add(d % world)
                reusable = all(
                    len(members) == world for members in covered.values()
                )
        else:
            pattern = tuple(d // world for d in deps0)
            if any(p >= b for p in pattern):
                return None
            for r in range(world):
                deps = preds[base + r]
                if any(d % world != r for d in deps):
                    return None
                if tuple(d // world for d in deps) != pattern:
                    return None
            local_pattern.append(pattern)
    return BlockStructure(
        world=world,
        blocks=blocks,
        local_pattern=tuple(local_pattern),
        reusable_deps=reusable,
    )


def reduce_symmetry(graph: ScheduleGraph) -> SymmetryReduction | None:
    """Fold exchangeable ranks of a rank-blocked multi-rank graph.

    Returns ``None`` whenever the graph is not rank-blocked, its
    dependency sets are neither barriers nor rank-local, or every rank
    is already distinct — callers then schedule the full graph.  When a
    reduction is returned, scheduling ``reduced`` and replicating via
    :func:`expand_symmetry` equals scheduling ``graph`` directly, float
    bit for float bit.
    """
    structure = block_structure(graph)
    if structure is None:
        return None
    world = structure.world
    blocks = structure.blocks
    durations = graph.durations
    preds = graph.preds
    local_pattern = structure.local_pattern

    # Equivalence classes: ranks whose duration bits agree in every block.
    classes: dict[tuple[str, ...], int] = {}
    reps: list[int] = []
    rep_index = [0] * world
    for r in range(world):
        signature = tuple(
            durations[b * world + r].hex() for b in range(blocks)
        )
        j = classes.get(signature)
        if j is None:
            j = len(reps)
            classes[signature] = j
            reps.append(r)
        rep_index[r] = j
    k = len(reps)
    if k >= world:
        return None  # every rank distinct: nothing to fold

    reduced = ScheduleGraph()
    for b in range(blocks):
        base = b * world
        pattern = local_pattern[b]
        if pattern is None:
            # Barrier: map every dep to its class representative.  Class
            # members finish at bit-equal times, so the max over the
            # deduplicated representative set is the same float.
            shared = tuple(
                dict.fromkeys(
                    (d // world) * k + rep_index[d % world]
                    for d in preds[base]
                )
            )
        for j, r in enumerate(reps):
            i = base + r
            deps = (
                shared
                if pattern is None
                else tuple(pb * k + j for pb in pattern)
            )
            reduced.add(
                graph.kinds[i],
                durations[i],
                graph.node_streams[i],
                deps=deps,
                layer=graph.layers[i],
                tag=graph.tags[i],
            )
    return SymmetryReduction(
        reduced=reduced,
        reps=tuple(reps),
        rep_index=tuple(rep_index),
        world=world,
        blocks=blocks,
    )


def expand_symmetry(
    graph: ScheduleGraph,
    symmetry: SymmetryReduction,
    reduced_schedule: GraphSchedule,
) -> GraphSchedule:
    """Replicate representative start/finish times to all class members.

    The returned :class:`GraphSchedule` wraps the *full* graph, so
    ``rank_makespans`` / ``imbalance_us`` / ``critical_path`` report over
    every rank exactly as if the full graph had been scheduled.
    """
    world = symmetry.world
    k = len(symmetry.reps)
    rep_index = symmetry.rep_index
    rstart = reduced_schedule.start_us
    rfinish = reduced_schedule.finish_us
    start: list[float] = []
    finish: list[float] = []
    for i in range(len(graph)):
        rid = (i // world) * k + rep_index[i % world]
        start.append(rstart[rid])
        finish.append(rfinish[rid])
    return GraphSchedule(
        graph=graph, start_us=tuple(start), finish_us=tuple(finish)
    )
