"""Batched analytic scheduling: one compiled topology, many duration vectors.

Grid sweeps schedule thousands of graphs that share a *topology* —
node kinds, streams, and dependency edges — and differ only in node
durations (one graph per system x scenario x straggler point).  The
list scheduler re-derives the dispatch order from scratch for each one;
this module compiles the order once per topology and replays it as a
pure max/add recurrence, the same generalisation step the PR 3 wave
scheduler applied to the per-tile heapq loop in
:mod:`repro.kernels.fused`.

The compilation is sound only for *chain topologies*: every stream's
nodes form a transitive dependency chain (each node's immediately
preceding same-stream node is one of its dependency ancestors).  Then
the dispatch order on every stream is forced to node-id order for *any*
duration assignment, and — because finish times are monotone along
dependency paths — a node's stream is always free by the time its
dependencies resolve, so::

    begin[i]  = max(finish[d] for d in deps[i])   (0.0 with no deps)
    finish[i] = begin[i] + duration[i]

reproduces :func:`repro.graph.scheduler.list_schedule` exactly, float
bit for float bit (``max`` over the same floats, the same single
addition).  The per-layer lowering — including every per-rank straggler
graph, whose barrier unions contain each rank's own chain — and the
cross-layer forward lowering are chain topologies; the ``shortcut``
policy (gate and attention independently ready on one compute stream)
and cross-layer *training* graphs (the detached combine is not an
ancestor of the gradient chunk) are not, and fall back to the list
scheduler.  :func:`compile_topology` verifies the property exactly, per
topology, with a per-stream reachability pass — there is no heuristic
that could silently change results.

:func:`schedule_batch` stacks same-topology duration vectors into a
``(batch, nodes)`` matrix and runs the recurrence across the whole
batch per node; :func:`fast_schedule` is the single-graph form used by
:func:`repro.perf.cached_graph_schedule` on every cache miss (the
compiled topology itself is cached process-wide in
:data:`repro.perf.GRAPH_BATCH_CACHE`, keyed by the builder's O(1)
``topology_token`` when present and by
:meth:`~repro.graph.ir.ScheduleGraph.topology_fingerprint` otherwise,
so a sweep pays the compilation once).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.ir import ScheduleGraph
from repro.graph.scheduler import GraphSchedule, list_schedule

__all__ = [
    "CompiledTopology",
    "compile_topology",
    "fast_schedule",
    "schedule_batch",
]


@dataclass(frozen=True)
class CompiledTopology:
    """One topology's verified dispatch structure, duration-free.

    ``chain_ok`` records whether the chain property holds; when it does
    not, the recurrence is unsound and every scheduler entry point falls
    back to :func:`~repro.graph.scheduler.list_schedule`.

    ``key`` is the topology identity used for grouping and caching —
    the perf layer's cheap key (:func:`repro.perf.topology_key`) when
    compiled through :func:`repro.perf.compiled_topology`, else the
    graph's topology fingerprint.
    """

    key: object
    num_nodes: int
    chain_ok: bool
    deps: tuple[tuple[int, ...], ...] = field(default=(), repr=False)


def compile_topology(
    graph: ScheduleGraph, key: object = None
) -> CompiledTopology:
    """Verify the chain property and capture the dependency structure.

    The verification is exact: for every node, a reachability pass
    computes the highest-id dependency *ancestor* per stream, and the
    chain property holds iff that ancestor is at least the node's
    immediately preceding same-stream node.  (Same-stream nodes with ids
    between the two are then ancestors too, by induction along the
    chain.)

    ``key`` overrides the stored topology identity; callers that already
    hold a cheap equivalent (the perf layer) pass it to skip the sha1
    fingerprint walk.
    """
    n = len(graph)
    if key is None:
        key = graph.topology_fingerprint()
    if n == 0:
        return CompiledTopology(key=key, num_nodes=0, chain_ok=True)

    stream_index = {stream: i for i, stream in enumerate(graph.streams())}
    num_streams = len(stream_index)
    sidx = [stream_index[stream] for stream in graph.node_streams]

    prev_on_stream = [-1] * n
    last_seen = [-1] * num_streams
    for i, s in enumerate(sidx):
        prev_on_stream[i] = last_seen[s]
        last_seen[s] = i

    # reach[i, s]: highest id among node i's dependency ancestors *or i
    # itself* on stream s (-1 if none).  Rows build in id order, so every
    # dependency's row is final when consumed.
    chain_ok = True
    reach = np.full((n, num_streams), -1, dtype=np.int32)
    empty = np.full(num_streams, -1, dtype=np.int32)
    for i in range(n):
        deps = graph.preds[i]
        if deps:
            row = reach[list(deps)].max(axis=0)
        else:
            row = empty.copy()
        prev = prev_on_stream[i]
        if prev >= 0 and row[sidx[i]] < prev:
            chain_ok = False
            break
        row[sidx[i]] = i
        reach[i] = row

    if not chain_ok:
        return CompiledTopology(key=key, num_nodes=n, chain_ok=False)
    return CompiledTopology(
        key=key,
        num_nodes=n,
        chain_ok=True,
        deps=tuple(graph.preds),
    )


# parity: repro.graph.scheduler.list_schedule
def fast_schedule(
    graph: ScheduleGraph, topology: CompiledTopology | None = None
) -> GraphSchedule:
    """Schedule one graph through its compiled topology.

    Bit-identical to :func:`~repro.graph.scheduler.list_schedule` on
    chain topologies; delegates to it otherwise.  Pass a pre-compiled
    ``topology`` (e.g. from :func:`repro.perf.compiled_topology`) to
    amortise the verification across a sweep.
    """
    if topology is None:
        topology = compile_topology(graph)
    if not topology.chain_ok:
        return list_schedule(graph)
    if topology.num_nodes != len(graph):
        raise ValueError(
            f"compiled topology has {topology.num_nodes} nodes, "
            f"graph has {len(graph)}"
        )
    n = len(graph)
    durations = graph.durations
    start = [0.0] * n
    finish = [0.0] * n
    for i, deps in enumerate(topology.deps):
        begin = 0.0
        for d in deps:
            f = finish[d]
            if f > begin:
                begin = f
        start[i] = begin
        finish[i] = begin + durations[i]
    return GraphSchedule(
        graph=graph, start_us=tuple(start), finish_us=tuple(finish)
    )


def schedule_batch(graphs: list[ScheduleGraph]) -> list[GraphSchedule]:
    """Schedule many graphs at once, vectorising over shared topologies.

    Graphs are grouped by topology key; each chain-compatible
    group runs the recurrence over a ``(batch, nodes)`` duration matrix
    (one numpy max/add per node for the whole batch), and incompatible
    or singleton groups schedule per graph.  The result list matches the
    input order, and every schedule equals what
    :func:`~repro.graph.scheduler.list_schedule` would return, float bit
    for float bit.
    """
    from repro import perf

    groups: dict[object, list[int]] = {}
    topologies: dict[object, CompiledTopology] = {}
    for position, graph in enumerate(graphs):
        topology = perf.compiled_topology(graph)
        groups.setdefault(topology.key, []).append(position)
        topologies[topology.key] = topology

    schedules: list[GraphSchedule | None] = [None] * len(graphs)
    for key, positions in groups.items():
        topology = topologies[key]
        if not topology.chain_ok or len(positions) == 1:
            for position in positions:
                schedules[position] = fast_schedule(
                    graphs[position], topology
                )
            continue
        batch = len(positions)
        n = topology.num_nodes
        durations = np.empty((batch, n), dtype=np.float64)
        for row, position in enumerate(positions):
            graph = graphs[position]
            if len(graph) != n:
                raise ValueError(
                    "graphs sharing a topology key disagree on size"
                )
            durations[row] = graph.durations
        start = np.zeros((batch, n), dtype=np.float64)
        finish = np.zeros((batch, n), dtype=np.float64)
        for i, deps in enumerate(topology.deps):
            if deps:
                if len(deps) == 1:
                    begin = finish[:, deps[0]]
                else:
                    begin = finish[:, deps].max(axis=1)
                start[:, i] = begin
                finish[:, i] = begin + durations[:, i]
            else:
                finish[:, i] = durations[:, i]
        for row, position in enumerate(positions):
            schedules[position] = GraphSchedule(
                graph=graphs[position],
                start_us=tuple(start[row].tolist()),
                finish_us=tuple(finish[row].tolist()),
            )
    return [schedule for schedule in schedules if schedule is not None]
