"""Reference oracles: independent re-derivations the fast paths must equal.

Nothing on the simulation path imports this package; only the oracle
table in ``tests/test_oracles.py`` does, which pairs every fast path and
cache with the oracle it is checked against.

* :mod:`repro.oracles.layer0_des` — the layer0 fused kernel as explicit
  DES processes (checks :func:`repro.kernels.fused.layer0_makespan_reference`);
* :mod:`repro.oracles.layer0_schedule` — the sorted layer0 row-block
  schedule walked token by token (checks
  :func:`repro.tensor.reschedule.build_layer0_schedule`);
* :mod:`repro.oracles.graph_des` — a DES executor for schedule graphs
  (checks :func:`repro.graph.scheduler.list_schedule`);
* :mod:`repro.oracles.distributed` — the MoE layer run on real payloads
  (checks the per-rank traffic the cost models price);
* :mod:`repro.oracles.routing` — Gumbel-top-k routing for every plan
  (checks :func:`repro.moe.routing.routing_from_fractions`' balanced
  plans, taken from the uniform draws).
"""
