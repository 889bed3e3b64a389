"""Gumbel-top-k routing for every plan.

:func:`repro.moe.routing.routing_from_fractions` takes a balanced plan's
experts from the uniform draws under the Gumbel noise.  This module keeps
the one path it must equal: Gumbel keys drawn with ``Generator.gumbel``
for every plan, each token's ``topk`` largest keys taken by one
``argpartition`` over the whole key matrix.
"""

from __future__ import annotations

import numpy as np

from repro.moe.routing import RoutingPlan

__all__ = ["gumbel_routing_from_fractions"]


def gumbel_routing_from_fractions(
    num_tokens: int,
    topk: int,
    fractions: np.ndarray,
    rng: np.random.Generator,
) -> RoutingPlan:
    """The Gumbel-top-k plan of ``fractions``, balanced or not."""
    fractions = np.asarray(fractions, dtype=np.float64)
    num_experts = fractions.shape[0]
    log_p = np.where(fractions > 0, np.log(np.maximum(fractions, 1e-300)), -np.inf)
    keys = log_p[None, :] + rng.gumbel(size=(num_tokens, num_experts))
    top_unsorted = np.argpartition(-keys, topk - 1, axis=1)[:, :topk]
    row_idx = np.arange(num_tokens)[:, None]
    order = np.argsort(-keys[row_idx, top_unsorted], axis=1, kind="stable")
    experts = np.take_along_axis(top_unsorted, order, axis=1)
    raw = fractions[experts] * rng.uniform(0.5, 1.5, size=experts.shape)
    raw = np.maximum(raw, 1e-9)
    weights = (raw / raw.sum(axis=1, keepdims=True)).astype(np.float32)
    return RoutingPlan(experts=experts, weights=weights, num_experts=num_experts)
