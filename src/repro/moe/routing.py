"""Routing plans and workload generators.

A :class:`RoutingPlan` is the bridge between the functional layer and the
timing layer: it records which experts each token visits (and with what
combine weight), and can summarise itself into the per-(source rank,
expert) token counts that drive both communication volume and GroupGEMM
shapes.

The generators below produce plans with controlled expert-load imbalance:
the paper's Figure 14 sweeps the standard deviation of the token fraction
received by each expert (``std = 0`` means perfectly uniform; their
production training jobs average ``std = 0.032``).

:func:`routing_from_fractions` samples top-k experts with the Gumbel-top-k
trick.  A balanced plan (every fraction equal) reaches the same plan from
the uniform draws under the Gumbel noise instead: numpy's
``Generator.gumbel`` returns ``0.0 - 1.0 * log(-log(1.0 - u))`` over the
stream ``Generator.random`` returns, a strictly decreasing function of
``u``, so a token's top-k experts are its k smallest uniforms, smallest
first.  The rows where that order could differ from the Gumbel keys' (a
near-tie among the k+1 smallest uniforms) and the draws where the two
streams part (a zero, which ``gumbel`` rejects and redraws) go the Gumbel
way, so every plan and every later draw is the one the Gumbel path makes.

A balanced plan's experts are therefore a prefix: row ``i`` comes from
uniforms ``[i*E, (i+1)*E)`` of ``default_rng(seed)`` alone, so the plan
of ``M`` tokens is rows ``[0, M)`` of one ``(E, top-k, seed)`` expert
stream, and its combine weights are the ``M*top-k`` uniforms after the
first ``M*E`` (``PCG64(seed).advance(M*E)``).  :class:`ExpertStream`
draws that stream once and cuts every plan of the seed from it.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.moe.gate import GateOutput

__all__ = [
    "ExpertStream",
    "RoutingPlan",
    "balanced_fractions",
    "imbalanced_fractions",
    "max_imbalance_std",
    "routing_from_fractions",
    "token_owner_ranks",
]


@dataclass(frozen=True)
class RoutingPlan:
    """Token-to-expert assignment for one MoE layer invocation.

    Attributes:
        experts: ``(M, topk)`` int array; each row holds ``topk`` *distinct*
            expert ids.
        weights: ``(M, topk)`` float array of combine weights (rows sum to 1).
        num_experts: total number of experts E (>= max id + 1).
    """

    experts: np.ndarray
    weights: np.ndarray
    num_experts: int

    def __post_init__(self) -> None:
        if self.experts.shape != self.weights.shape or self.experts.ndim != 2:
            raise ValueError("experts/weights must be matching (M, topk) arrays")
        if self.experts.size and (
            self.experts.min() < 0 or self.experts.max() >= self.num_experts
        ):
            raise ValueError("expert id out of range")
        # Distinctness per row is a structural invariant of top-k routing.
        m, k = self.experts.shape
        if k > 1 and m:
            sorted_rows = np.sort(self.experts, axis=1)
            if np.any(sorted_rows[:, 1:] == sorted_rows[:, :-1]):
                raise ValueError("a token was routed to the same expert twice")

    @classmethod
    def from_gate(cls, gate_output: GateOutput, num_experts: int) -> "RoutingPlan":
        return cls(
            experts=gate_output.experts,
            weights=gate_output.weights,
            num_experts=num_experts,
        )

    @property
    def num_tokens(self) -> int:
        return self.experts.shape[0]

    @property
    def topk(self) -> int:
        return self.experts.shape[1]

    @property
    def total_routed(self) -> int:
        """Number of (token, expert) pairs = M * topk."""
        return self.experts.size

    @cached_property
    def expert_counts(self) -> np.ndarray:
        """``(E,)`` tokens received per expert."""
        return np.bincount(self.experts.ravel(), minlength=self.num_experts)

    def tokens_for_expert(self, expert: int) -> tuple[np.ndarray, np.ndarray]:
        """Token ids routed to ``expert`` and the top-k slot used.

        Returns ``(token_ids, slots)`` sorted by token id — this is the
        canonical (unscheduled) dispatch order.
        """
        if not 0 <= expert < self.num_experts:
            raise ValueError(f"expert {expert} out of range")
        token_ids, slots = np.nonzero(self.experts == expert)
        return token_ids, slots

    def counts_by_rank(self, owner: np.ndarray) -> np.ndarray:
        """``(W, E)`` matrix: tokens sent from each source rank to each expert.

        ``owner[i]`` is the rank holding token ``i`` before dispatch.
        """
        if owner.shape != (self.num_tokens,):
            raise ValueError(
                f"owner must have shape ({self.num_tokens},), got {owner.shape}"
            )
        world = int(owner.max()) + 1 if owner.size else 0
        pair_ids = np.repeat(owner, self.topk) * self.num_experts + self.experts.ravel()
        counts = np.bincount(pair_ids, minlength=world * self.num_experts)
        return counts.astype(np.int64, copy=False).reshape(world, self.num_experts)

    def fractions(self) -> np.ndarray:
        """Fraction of routed tokens landing on each expert."""
        total = self.total_routed
        if total == 0:
            return np.zeros(self.num_experts)
        return self.expert_counts / total

    def load_std(self) -> float:
        """Std of the per-expert token fractions (the paper's ``std``)."""
        return float(self.fractions().std())


def token_owner_ranks(num_tokens: int, world_size: int) -> np.ndarray:
    """Contiguous block distribution of tokens over ranks.

    Matches the paper's setup where each device holds ``M/W`` tokens before
    dispatch; uneven remainders go to the leading ranks.
    """
    if world_size <= 0:
        raise ValueError(f"world_size must be positive, got {world_size}")
    if num_tokens < 0:
        raise ValueError(f"num_tokens must be non-negative, got {num_tokens}")
    sizes = np.full(world_size, num_tokens // world_size, dtype=np.int64)
    sizes[: num_tokens % world_size] += 1
    return np.repeat(np.arange(world_size), sizes)


def balanced_fractions(num_experts: int) -> np.ndarray:
    """Uniform expert popularity (the paper's ``std = 0`` case)."""
    if num_experts <= 0:
        raise ValueError(f"num_experts must be positive, got {num_experts}")
    return np.full(num_experts, 1.0 / num_experts)


def max_imbalance_std(num_experts: int) -> float:
    """The supremum of expert-fraction std over ``num_experts`` experts.

    ``sqrt(E-1)/E`` is the std of all mass on one expert, which the
    softmax family of :func:`imbalanced_fractions` approaches but never
    reaches, so every target std must stay strictly below it.
    """
    return float(np.sqrt(num_experts - 1) / num_experts)


def imbalanced_fractions(
    num_experts: int,
    std: float,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Expert popularity fractions with a target standard deviation.

    Uses a softmax-temperature family: ``f(tau) = softmax(tau * d)`` for a
    random direction ``d``.  At ``tau = 0`` the distribution is uniform;
    as ``tau`` grows it concentrates on ``argmax(d)``, so the family
    sweeps the full std range ``[0, sqrt(E-1)/E)`` and a bisection on
    ``tau`` can hit any achievable target — including the paper's
    production value 0.032 and its Figure 14 sweep up to 0.05.
    """
    if num_experts <= 0:
        raise ValueError(f"num_experts must be positive, got {num_experts}")
    if not math.isfinite(std):
        raise ValueError(f"std must be finite, got {std}")
    if std < 0:
        raise ValueError(f"std must be non-negative, got {std}")
    if std == 0:
        return balanced_fractions(num_experts)
    max_std = max_imbalance_std(num_experts)
    if std >= max_std:
        raise ValueError(
            f"std {std} unreachable for E={num_experts} (max {max_std:.4f})"
        )
    rng = rng or np.random.default_rng(0)
    direction = rng.normal(size=num_experts)
    direction -= direction.mean()
    norm = direction.std()
    if norm < 1e-12:  # pathological draw; fall back to a fixed ramp
        direction = np.linspace(-1.0, 1.0, num_experts)
        direction -= direction.mean()
        norm = direction.std()
    direction /= norm

    def realised(tau: float) -> tuple[float, np.ndarray]:
        logits = tau * direction
        logits -= logits.max()
        f = np.exp(logits)
        f /= f.sum()
        return float(f.std()), f

    lo, hi = 0.0, 1.0
    achieved_hi, _ = realised(hi)
    while achieved_hi < std:
        hi *= 2.0
        achieved_hi, _ = realised(hi)
        if hi > 1e6:
            raise RuntimeError(f"cannot reach std={std} for E={num_experts}")
    fractions = balanced_fractions(num_experts)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        achieved, fractions = realised(mid)
        if abs(achieved - std) <= 1e-10:
            break
        if achieved < std:
            lo = mid
        else:
            hi = mid
    return fractions


#: Uniform draws closer than this may give equal Gumbel keys (the keys are
#: rounded), whose order only the Gumbel path's own partition defines.
#: The keys' slope is at least ``e`` in magnitude and their rounding error
#: below 1e-14, so a wider gap always orders them as the uniforms.
TIE_GAP = 1e-12


def routing_from_fractions(
    num_tokens: int,
    topk: int,
    fractions: np.ndarray,
    rng: np.random.Generator | None = None,
) -> RoutingPlan:
    """Sample a routing plan whose expert loads follow ``fractions``.

    Each token draws ``topk`` *distinct* experts via the Gumbel-top-k
    trick, which yields marginal selection frequencies proportional to the
    requested popularity while never assigning a token to the same expert
    twice (the structural invariant of top-k gating).  Balanced fractions
    take the experts from the uniform draws under the Gumbel noise (see
    the module docstring): the same plan and the same generator state
    afterwards, for less work.
    """
    fractions = np.asarray(fractions, dtype=np.float64)
    num_experts = fractions.shape[0]
    if not 1 <= topk <= num_experts:
        raise ValueError(f"topk must lie in [1, {num_experts}], got {topk}")
    if not np.isfinite(fractions).all():
        raise ValueError(f"fractions must be finite, got {fractions}")
    if np.any(fractions < 0) or abs(fractions.sum() - 1.0) > 1e-6:
        raise ValueError("fractions must be non-negative and sum to 1")
    rng = rng or np.random.default_rng(0)

    log_p = np.where(fractions > 0, np.log(np.maximum(fractions, 1e-300)), -np.inf)
    experts = None
    if (fractions == fractions[0]).all():
        experts = _uniform_top_k(num_tokens, topk, log_p, rng)
    if experts is None:
        experts = _gumbel_top_k(log_p, rng.gumbel(size=(num_tokens, num_experts)), topk)
    return RoutingPlan(
        experts=experts,
        weights=_combine_weights(fractions, experts, rng),
        num_experts=num_experts,
    )


def _combine_weights(
    fractions: np.ndarray, experts: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Combine weights: proportional to popularity of the chosen experts
    with mild noise, renormalised per token — mimics a softmax gate's
    output.  Takes ``experts.size`` uniforms from ``rng``."""
    raw = fractions[experts] * rng.uniform(0.5, 1.5, size=experts.shape)
    raw = np.maximum(raw, 1e-9)
    return (raw / raw.sum(axis=1, keepdims=True)).astype(np.float32)


def _gumbel_top_k(log_p: np.ndarray, gumbel: np.ndarray, topk: int) -> np.ndarray:
    """Each row's ``topk`` largest keys ``log_p + gumbel``, largest first."""
    keys = log_p[None, :] + gumbel
    top_unsorted = np.argpartition(-keys, topk - 1, axis=1)[:, :topk]
    row_idx = np.arange(keys.shape[0])[:, None]
    order = np.argsort(-keys[row_idx, top_unsorted], axis=1, kind="stable")
    return np.take_along_axis(top_unsorted, order, axis=1)


def _uniform_top_k(
    num_tokens: int, topk: int, log_p: np.ndarray, rng: np.random.Generator
) -> np.ndarray | None:
    """The Gumbel-top-k experts of equal ``log_p`` from the uniform draws.

    Returns ``None``, with ``rng`` back where it started, when a draw is
    zero: ``gumbel`` would reject it and draw again, so the Gumbel path
    must make the plan.
    """
    state = rng.bit_generator.state
    uniform = rng.random((num_tokens, log_p.size))
    if uniform.size and not uniform.min() > 0.0:
        rng.bit_generator.state = state
        return None
    return _top_k_of_uniforms(uniform, topk, log_p)


def _top_k_of_uniforms(uniform: np.ndarray, topk: int, log_p: np.ndarray) -> np.ndarray:
    """Each row's experts from that row's uniforms alone: its ``topk``
    smallest, smallest first.  Rows whose ``topk + 1`` smallest uniforms
    lie within :data:`TIE_GAP` of each other take their keys from the
    same draws through numpy's own expression on libm's ``log``, and
    their experts from :func:`_gumbel_top_k`."""
    rows = np.arange(uniform.shape[0])[:, None]
    if topk < log_p.size:
        candidates = np.argpartition(uniform, topk, axis=1)[:, : topk + 1]
    else:
        candidates = np.broadcast_to(np.arange(log_p.size), uniform.shape)
    order = np.argsort(uniform[rows, candidates], axis=1)
    ranked = candidates[rows, order]
    experts = np.ascontiguousarray(ranked[:, :topk])
    gaps = np.diff(uniform[rows, ranked], axis=1)
    near = np.flatnonzero((gaps <= TIE_GAP).any(axis=1))
    if near.size:
        gumbel = np.array(
            [
                [0.0 - 1.0 * math.log(-math.log(1.0 - u)) for u in row]
                for row in uniform[near].tolist()
            ]
        ).reshape(near.size, log_p.size)
        experts[near] = _gumbel_top_k(log_p, gumbel, topk)
    return experts


class ExpertStream:
    """The balanced plans of one ``(E, top-k, seed)``, cut from one draw.

    ``routing_from_fractions(M, topk, balanced_fractions(E),
    default_rng(seed))`` takes row ``i`` of its experts from the uniforms
    ``[i*E, (i+1)*E)`` of the seed's stream alone, and its weights from
    the ``M*topk`` uniforms after the first ``M*E``.  So every plan's
    experts are the first rows of one expert stream, which this object
    draws only as far as a plan asks and keeps (read-only); each plan's
    weights are drawn at its own offset.  Rows that hold a zero draw
    make their plan on its own, the Gumbel way, and the stream never
    grows past them.  Plans of any token count, asked in any order and
    from any thread, equal the direct draw bit for bit.
    """

    def __init__(self, num_experts: int, topk: int, seed: int):
        if not 1 <= topk <= num_experts:
            raise ValueError(f"topk must lie in [1, {num_experts}], got {topk}")
        np.random.default_rng(seed)  # a seed numpy rejects fails here
        self.num_experts = num_experts
        self.topk = topk
        self.seed = seed
        self._fractions = balanced_fractions(num_experts)
        self._log_p = np.log(self._fractions)
        self._rows = np.empty((0, topk), dtype=np.intp)
        self._rows.setflags(write=False)
        self._lock = threading.Lock()

    def generator(self, offset: int) -> np.random.Generator:
        """``default_rng(seed)`` advanced past its first ``offset`` draws."""
        rng = np.random.default_rng(self.seed)
        rng.bit_generator.advance(offset)
        return rng

    def plan(self, num_tokens: int) -> RoutingPlan:
        """The balanced plan of ``num_tokens`` tokens."""
        experts = self._experts(num_tokens)
        if experts is None:
            return routing_from_fractions(
                num_tokens, self.topk, self._fractions, self.generator(0)
            )
        rng = self.generator(num_tokens * self.num_experts)
        return RoutingPlan(
            experts=experts,
            weights=_combine_weights(self._fractions, experts, rng),
            num_experts=self.num_experts,
        )

    def _experts(self, num_tokens: int) -> np.ndarray | None:
        """Rows ``[0, num_tokens)`` of the stream, drawing the missing
        ones; ``None`` when one of them holds a zero draw."""
        with self._lock:
            rows = self._rows
            drawn = rows.shape[0]
            if num_tokens > drawn:
                width = self.num_experts
                uniform = self.generator(drawn * width).random((num_tokens - drawn, width))
                if not uniform.min() > 0.0:
                    return None
                new_rows = _top_k_of_uniforms(uniform, self.topk, self._log_p)
                rows = np.concatenate((rows, new_rows)) if drawn else new_rows
                rows.setflags(write=False)
                self._rows = rows
        return rows[:num_tokens]
