"""Typed schedule-graph IR: nodes, resource streams, and the DAG builder.

The IR lifts the repository's timing substrate from per-layer scalars to
a whole-model dependency graph.  A :class:`GraphNode` is one phase of
model execution (attention, gate, dispatch, expert GEMM, activation,
combine, host, grad-sync, optimizer) priced in microseconds; every node
carries a :class:`Stream` resource tag — the compute stream or the
communication stream of one rank — and explicit dependency edges.

Nodes on one stream execute serially (a stream is one queue of one
device engine); nodes on different streams overlap freely once their
dependencies allow it.  The deterministic semantics of "which ready node
runs next on a stream" (lowest node id) are implemented twice — by the
analytic list scheduler in :mod:`repro.graph.scheduler` and by the
discrete-event reference executor in :mod:`repro.oracles.graph_des` —
and the oracle table asserts both agree exactly on every graph.

**Columnar storage.**  A :class:`ScheduleGraph` stores its nodes as
parallel columns — kinds, per-node streams, layers, tags, dependency
tuples and durations — and the hot readers (the list scheduler, the
compiled recurrence, the symmetry fold) walk the columns directly.
:attr:`ScheduleGraph.nodes` is a view: the :class:`GraphNode` objects
are built on first use (critical paths, timelines, the DES reference)
and memoised until the next :meth:`~ScheduleGraph.add`.  Graphs of one
topology can share their structural columns
(:meth:`~ScheduleGraph.with_durations`, which the lowering builders use
so a topology is lowered once); shared columns are tuples, so they are
read-only, and :meth:`~ScheduleGraph.add` copies them before its first
append (copy-on-write).

The IR is deliberately backend-agnostic: it knows nothing about MoE
systems.  :mod:`repro.graph.lower` builds model-level graphs out of
:meth:`repro.systems.base.MoESystem.lower_layer` phase lists.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "COMM",
    "COMPUTE",
    "GraphNode",
    "LayerPhase",
    "NodeKind",
    "ScheduleGraph",
    "Stream",
    "check_duration",
]


class NodeKind(str, Enum):
    """Execution phase a node represents (the paper's Figure 11 segments
    plus the training-step extensions)."""

    ATTENTION = "attention"
    ATTENTION_BWD = "attention_bwd"
    GATE = "gate"
    DISPATCH = "dispatch"
    EXPERT = "expert"
    ACTIVATION = "activation"
    COMBINE = "combine"
    HOST = "host"
    GRAD_SYNC = "grad_sync"
    OPTIMIZER = "optimizer"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


COMPUTE = "compute"
COMM = "comm"


def check_duration(value: float, name: str = "duration_us") -> None:
    """Durations are finite and ``>= 0``: a NaN never matches the list
    scheduler's same-timestamp drain and an infinity never finishes."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class Stream:
    """One serial execution engine: the compute or comm stream of a rank.

    The simulator prices the bottleneck rank, so ``rank`` defaults to 0;
    multi-rank graphs (e.g. hand-built test graphs) tag nodes with other
    ranks to model per-rank engines.
    """

    kind: str = COMPUTE
    rank: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (COMPUTE, COMM):
            raise ValueError(f"stream kind must be {COMPUTE!r} or {COMM!r}")
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")

    def __str__(self) -> str:
        return f"{self.kind}{self.rank}"


@dataclass(frozen=True)
class LayerPhase:
    """One phase of a single MoE layer, as emitted by ``lower_layer``.

    ``comm=True`` places the phase on the communication stream; the
    duration is the phase's *standalone* time (for comm phases, the
    exposed remainder after whatever intra-layer overlapping the system
    already performs — cross-layer policies compound on top of it).
    """

    kind: NodeKind
    duration_us: float
    comm: bool = False

    def __post_init__(self) -> None:
        check_duration(self.duration_us)


@dataclass(frozen=True)
class GraphNode:
    """One scheduled unit of work."""

    id: int
    kind: NodeKind
    duration_us: float
    stream: Stream
    layer: int = -1  # transformer layer index; -1 for step-level nodes
    tag: str = ""  # free-form qualifier, e.g. "fwd" / "bwd"

    @property
    def label(self) -> str:
        prefix = f"L{self.layer:02d}." if self.layer >= 0 else ""
        suffix = f".{self.tag}" if self.tag else ""
        return f"{prefix}{self.kind.value}{suffix}[{self.stream}]"


class ScheduleGraph:
    """A DAG of :class:`GraphNode` with explicit dependency edges.

    Nodes are added in a deterministic order; the node id doubles as the
    scheduling priority (among simultaneously-ready nodes on one stream,
    the lowest id runs first), so graph construction order is part of the
    schedule's semantics — both executors honour it identically.

    Storage is columnar: node *i* is ``kinds[i]`` on ``node_streams[i]``
    in ``layers[i]`` tagged ``tags[i]``, waits for ``preds[i]`` and runs
    for ``durations[i]`` microseconds.  :attr:`nodes` is a memoised view
    over the columns.  The five structural columns may be shared with
    other graphs of the same topology (see :meth:`with_durations`); the
    durations column always belongs to the graph.
    """

    def __init__(self) -> None:
        self.kinds: Sequence[NodeKind] = []
        self.node_streams: Sequence[Stream] = []
        self.layers: Sequence[int] = []
        self.tags: Sequence[str] = []
        self.preds: Sequence[tuple[int, ...]] = []
        self.durations: list[float] = []
        #: Cheap structural identity set by the lowering builders (see
        #: :func:`repro.graph.lower.build_forward_graph`): two graphs with
        #: equal tokens are guaranteed topology-identical without hashing
        #: every node.  ``None`` for hand-built graphs (and after any
        #: post-build :meth:`add`), in which case
        #: :meth:`topology_fingerprint` is the identity.
        self.topology_token: tuple | None = None
        self._nodes: list[GraphNode] | None = None

    def __len__(self) -> int:
        return len(self.durations)

    def __iter__(self) -> Iterator[GraphNode]:
        return iter(self.nodes)

    @property
    def nodes(self) -> list[GraphNode]:
        """The nodes as :class:`GraphNode` objects, built from the
        columns on first use and memoised until the next :meth:`add`."""
        if self._nodes is None:
            self._nodes = [
                GraphNode(node_id, kind, duration, stream, layer, tag)
                for node_id, (kind, duration, stream, layer, tag) in enumerate(
                    zip(
                        self.kinds,
                        self.durations,
                        self.node_streams,
                        self.layers,
                        self.tags,
                    )
                )
            ]
        return self._nodes

    def add(
        self,
        kind: NodeKind,
        duration_us: float,
        stream: Stream,
        deps: Iterable[int] = (),
        layer: int = -1,
        tag: str = "",
    ) -> int:
        """Append a node and return its id (= scheduling priority)."""
        check_duration(duration_us)
        node_id = len(self.durations)
        dep_ids = tuple(dict.fromkeys(int(d) for d in deps))
        for dep in dep_ids:
            if not 0 <= dep < node_id:
                raise ValueError(
                    f"node {node_id} depends on {dep}, which does not precede it"
                )
        if isinstance(self.preds, tuple):  # shared columns: copy on write
            self.kinds = list(self.kinds)
            self.node_streams = list(self.node_streams)
            self.layers = list(self.layers)
            self.tags = list(self.tags)
            self.preds = list(self.preds)
        self.kinds.append(kind)
        self.node_streams.append(stream)
        self.layers.append(layer)
        self.tags.append(tag)
        self.preds.append(dep_ids)
        self.durations.append(float(duration_us))
        self._nodes = None
        self.topology_token = None  # builder tokens cover finished graphs only
        return node_id

    def with_durations(
        self, durations: np.ndarray, topology_token: tuple | None = None
    ) -> "ScheduleGraph":
        """A graph of this graph's topology running for ``durations``.

        The new graph shares this graph's structural columns — both
        graphs hold them as tuples from here on, and :meth:`add` on
        either copies them first — so no per-node work happens beyond
        one vectorised check and one ``tolist`` of ``durations`` (one
        float64 per node, each finite and ``>= 0``).
        """
        durations = np.asarray(durations, dtype=np.float64)
        if durations.shape != (len(self),):
            raise ValueError(
                f"need {len(self)} durations, got shape {durations.shape}"
            )
        if len(self) and not (
            durations.min() >= 0.0 and durations.max() < math.inf
        ):
            raise ValueError("durations must be finite and >= 0")
        self.kinds = tuple(self.kinds)
        self.node_streams = tuple(self.node_streams)
        self.layers = tuple(self.layers)
        self.tags = tuple(self.tags)
        self.preds = tuple(self.preds)
        graph = ScheduleGraph()
        graph.kinds = self.kinds
        graph.node_streams = self.node_streams
        graph.layers = self.layers
        graph.tags = self.tags
        graph.preds = self.preds
        graph.durations = durations.tolist()
        graph.topology_token = topology_token
        return graph

    def streams(self) -> tuple[Stream, ...]:
        """Distinct streams, in first-use order."""
        return tuple(dict.fromkeys(self.node_streams))

    def successors(self) -> list[list[int]]:
        """Adjacency list derived from ``preds`` (computed on demand)."""
        succs: list[list[int]] = [[] for _ in range(len(self))]
        for node_id, deps in enumerate(self.preds):
            for dep in deps:
                succs[dep].append(node_id)
        return succs

    @property
    def total_work_us(self) -> float:
        """Sum of all node durations (the zero-overlap upper bound)."""
        return sum(self.durations)

    def ranks(self) -> tuple[int, ...]:
        """Distinct stream ranks, ascending (single-rank graphs: ``(0,)``)."""
        return tuple(sorted({stream.rank for stream in self.node_streams}))

    def fingerprint(self) -> str:
        """Stable digest of the graph's structure and exact durations.

        Keys :data:`repro.perf.GRAPH_CACHE`: two graphs with equal
        fingerprints schedule identically, bit for bit, because the
        digest covers node order, kinds, streams (and therefore every
        per-rank stream tag), dependency edges, and the IEEE-754 bits
        of every duration.
        """
        digest = hashlib.sha1()
        for kind, stream, layer, tag, duration, deps in zip(
            self.kinds,
            self.node_streams,
            self.layers,
            self.tags,
            self.durations,
            self.preds,
        ):
            digest.update(
                (
                    f"{kind.value}|{stream}|{layer}|{tag}|"
                    f"{duration.hex()}|{','.join(map(str, deps))};"
                ).encode()
            )
        return digest.hexdigest()

    def topology_fingerprint(self) -> str:
        """Stable digest of the graph's *structure only* — durations
        excluded.

        Keys :data:`repro.perf.GRAPH_BATCH_CACHE`: all the graphs a grid
        sweep produces for one (model, policy, straggler-shape) point
        share a topology fingerprint while differing in durations, so the
        compiled schedule recurrence (:mod:`repro.graph.batch`) is built
        once and replayed per duration vector.
        """
        digest = hashlib.sha1()
        for kind, stream, layer, tag, deps in zip(
            self.kinds, self.node_streams, self.layers, self.tags, self.preds
        ):
            digest.update(
                (
                    f"{kind.value}|{stream}|{layer}|{tag}|"
                    f"{','.join(map(str, deps))};"
                ).encode()
            )
        return digest.hexdigest()
