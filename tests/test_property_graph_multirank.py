"""Property test: list-scheduler invariants on random multi-rank graphs.

Hypothesis-driven seeded generation of multi-rank :class:`ScheduleGraph`
instances — random node kinds, compute/comm streams across several
ranks, random dependency edges (cross-rank edges included), zero-duration
nodes, and single-rank degenerate graphs — asserting the schedule's own
invariants.  That the analytic scheduler equals the discrete-event
reference executor exactly is a row of the oracle table in
``tests/test_oracles.py``, over the same generator.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import list_schedule
from test_oracles import random_graph


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_nodes=st.integers(min_value=1, max_value=60),
    num_ranks=st.sampled_from((1, 2, 3, 4, 8)),
    zero_fraction=st.sampled_from((0.0, 0.2, 0.5)),
)
@settings(max_examples=120, deadline=None)
def test_schedule_invariants(seed, num_nodes, num_ranks, zero_fraction):
    analytic = list_schedule(random_graph(seed, num_nodes, num_ranks, zero_fraction))
    assert all(f >= s for s, f in zip(analytic.start_us, analytic.finish_us))
    assert analytic.imbalance_us() >= 0.0
    spans = analytic.rank_makespans()
    assert analytic.makespan_us == (max(spans.values()) if spans else 0.0)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_all_zero_duration_graphs(seed):
    """Graphs made entirely of zero-duration nodes finish at t=0 (pure
    cascade settling, no wall clock)."""
    graph = random_graph(seed, 30, 4, 1.0)
    assert all(node.duration_us == 0.0 for node in graph)
    analytic = list_schedule(graph)
    assert analytic.makespan_us == 0.0
    assert analytic.imbalance_us() == 0.0


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_nodes=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=40, deadline=None)
def test_single_rank_degenerate(seed, num_nodes):
    """Single-rank random graphs: the multi-rank machinery reduces to the
    historical two-stream case."""
    graph = random_graph(seed, num_nodes, 1, 0.25)
    assert graph.ranks() == (0,)
    assert set(list_schedule(graph).rank_makespans()) <= {0}
