"""Property suite: how the scheduling fast paths classify their inputs.

That every fast path equals :func:`~repro.graph.scheduler.list_schedule`
(and the list scheduler the DES reference) is checked by the oracle
table in ``tests/test_oracles.py``, over the generators defined there.
This file keeps what the table does not check:

* *chain graphs* — per-stream transitive chains with random extra edges
  must compile as chain-compatible, so the recurrence really runs;
* *rank-blocked graphs* — a repeated straggler class must fold, to the
  reduced size the class count predicts;
* *batches* — :func:`~repro.graph.batch.schedule_batch` returns one
  schedule per input, in order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.graph import compile_topology, reduce_symmetry, schedule_batch
from test_oracles import blocked_graph, chain_graph, graph_batch


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_nodes=st.integers(min_value=1, max_value=60),
    num_ranks=st.sampled_from((1, 2, 4, 8)),
    zero_fraction=st.sampled_from((0.0, 0.25, 0.6)),
)
@settings(max_examples=100, deadline=None)
def test_chain_graphs_take_fast_path(seed, num_nodes, num_ranks, zero_fraction):
    graph = chain_graph(seed, num_nodes, num_ranks, zero_fraction)
    assert compile_topology(graph).chain_ok  # by construction, verified exactly


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    blocks=st.integers(min_value=1, max_value=12),
    world=st.sampled_from((2, 3, 4, 8)),
    classes=st.sampled_from((1, 2, 3)),
    zero_fraction=st.sampled_from((0.0, 0.3)),
)
@settings(max_examples=100, deadline=None)
def test_blocked_graphs_fold(seed, blocks, world, classes, zero_fraction):
    graph, class_of = blocked_graph(seed, blocks, world, classes, zero_fraction)
    symmetry = reduce_symmetry(graph)
    if len(set(class_of)) < world:
        # Duration classes can only merge rank signatures further, so a
        # reduction must exist whenever the assignment repeats a class.
        assert symmetry is not None
    if symmetry is not None:
        assert len(symmetry.reps) < world
        assert len(symmetry.reduced) == len(graph) // world * len(symmetry.reps)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    batch=st.integers(min_value=2, max_value=6),
)
@settings(max_examples=30, deadline=None)
def test_schedule_batch_keeps_order(seed, batch):
    graphs = graph_batch(seed, batch)
    perf.clear_caches()
    schedules = schedule_batch(graphs)
    assert len(schedules) == len(graphs)
    assert all(s.graph is graph for s, graph in zip(schedules, graphs))
