"""Per-iteration step costs for serving, composed from ``MoESystem.time_layer``.

The serving scheduler needs one number per engine iteration: how long a
continuous-batching step takes when the batch carries ``P`` prefill
tokens and ``D`` decoding sequences (one token each).  This adapter
composes that from the repository's existing per-layer system timings —
every registered :class:`~repro.systems.base.MoESystem` ("comet",
"tutel", "fastermoe", "megatron-cutlass", ...) is servable through the
same :data:`~repro.api.registry.SYSTEM_REGISTRY` with no serving-specific
code in the systems themselves.

Cost model (documented approximations):

* One iteration runs the full model: ``num_layers`` transformer layers,
  each attention + one MoE layer over the batch's ``M = P + D`` tokens.
* The MoE layer is priced by ``system.time_layer`` on a balanced
  workload of ``M`` tokens (the serving batch mixes many requests, so
  per-expert load is near the balanced average); attention follows
  :func:`~repro.runtime.model_runner.attention_time_us` with the same
  data-parallel token split as ``run_model``.
* ``M`` is rounded up to a token bucket (a multiple of the cluster's
  world size) and the timing is cached per bucket — a serving run makes
  tens of thousands of steps but only ever sees a few dozen distinct
  buckets, and the bucket rounding models the padded/quantised batch
  shapes real engines run anyway.

Caching goes through :mod:`repro.perf` at every level: the bucket
workload comes from the process-wide bounded
:data:`~repro.perf.WORKLOAD_CACHE` (so every system prices the identical
batch geometry), the MoE layer timing from the cross-stack
:data:`~repro.perf.TIMING_CACHE` (shared with grids and training steps),
and the composed step cost of each priced bucket lives in the model's
own memo, keyed by bucket number ``(P + D - 1) // bucket``.  A step in a
priced bucket costs one dict lookup, so the step loop's ten thousand
steps pay for pricing only on each bucket's first use.  The memo is
bounded (:attr:`StepCostModel.MEMO_SIZE`), counts every lookup in
:meth:`StepCostModel.cache_stats` and empties with ``clear()``.  A
bucket is priced under the model's lock, once, because
:data:`~repro.perf.STEP_COST_CACHE` shares one model across thread
workers.  A hit takes no lock: it reads the dict and counts itself with
one ``next()`` on an :func:`itertools.count`, a single call into C that
the interpreter lock keeps whole, so concurrent hits all count.
"""

from __future__ import annotations

import itertools
import threading

from repro import perf
from repro.hw.cluster import ClusterSpec
from repro.moe.config import MoEConfig
from repro.parallel.strategy import ParallelStrategy
from repro.runtime.model_runner import attention_time_us
from repro.runtime.workload import MoELayerWorkload
from repro.systems.base import MoESystem

__all__ = ["StepCostModel"]


class StepCostModel:
    """Prices continuous-batching iterations for one system.

    Args:
        system: the MoE execution mechanism to price.
        config: model shapes; ``config.num_layers`` scales one layer to a
            full forward pass.
        cluster: hardware the engine runs on.
        strategy: TP x EP decomposition of the serving replica.
        bucket_tokens: batch-size quantum; iteration token counts round
            up to a multiple of this (itself rounded to a multiple of
            the world size).  Bigger buckets mean fewer ``time_layer``
            calls but coarser step costs.
        step_overhead_us: fixed per-iteration host cost (scheduler bookkeeping,
            batch reshaping, sampling) added once per step.
        overlap_policy: cross-layer scheduling model for the iteration
            (``"per_layer"`` | ``"cross_layer"`` | ``"shortcut"``).  The
            default reproduces the additive per-layer step cost byte for
            byte; the others price the iteration as the makespan of the
            whole-model schedule graph (:mod:`repro.graph`), making the
            overlap policy a serving knob.
        stragglers: per-rank straggler/skew multipliers
            (:class:`~repro.graph.straggler.StragglerSpec`).  A
            non-uniform spec prices every iteration as the makespan of
            the per-rank schedule graph — the slow rank paces each
            continuous-batching step, which is how one degraded device
            drags a whole serving replica's goodput.  ``None`` or a
            uniform spec keeps the byte-identical single-rank costs.

    Raises:
        UnsupportedWorkload: eagerly at construction if the system cannot
            run this (config, strategy) at all, so serving runs fail fast
            instead of on the first scheduled batch.
    """

    #: Priced buckets one model keeps; past it the first-priced goes.
    MEMO_SIZE = 1024

    def __init__(
        self,
        system: MoESystem,
        config: MoEConfig,
        cluster: ClusterSpec,
        strategy: ParallelStrategy,
        bucket_tokens: int = 256,
        step_overhead_us: float = 150.0,
        overlap_policy: str = "per_layer",
        stragglers=None,
    ):
        from repro.graph.lower import check_policy

        if bucket_tokens <= 0:
            raise ValueError(f"bucket_tokens must be positive, got {bucket_tokens}")
        if step_overhead_us < 0:
            raise ValueError(
                f"step_overhead_us must be >= 0, got {step_overhead_us}"
            )
        self.overlap_policy = check_policy(overlap_policy)
        self.stragglers = (
            stragglers
            if stragglers is not None and not stragglers.is_uniform
            else None
        )
        if (
            self.stragglers is not None
            and self.stragglers.num_ranks != strategy.world_size
        ):
            # Same rule as run_model/run_training_step: the per-rank
            # graph spans the strategy's ranks (the replica actually
            # serving), not whatever larger cluster hosts it.
            raise ValueError(
                f"straggler spec covers {self.stragglers.num_ranks} ranks, "
                f"strategy {strategy} has world size {strategy.world_size}"
            )
        self.system = system
        self.config = config
        self.cluster = cluster
        self.strategy = strategy
        world = cluster.world_size
        self.bucket = max(world, (bucket_tokens + world - 1) // world * world)
        self.step_overhead_us = step_overhead_us
        #: Step cost in µs per priced bucket number ``(P + D - 1) // bucket``.
        self._memo: dict[int, float] = {}
        self._lock = threading.Lock()
        self._hits = itertools.count()
        self._hit_reads = self._misses = self._evictions = 0
        # Fail fast on fundamentally unsupported (system, strategy) pairs.
        system.check_supported(self._workload(self.bucket))

    def _workload(self, tokens: int) -> MoELayerWorkload:
        return perf.shared_workload(
            self.config, self.cluster, self.strategy, tokens
        )

    def bucketed(self, tokens: int) -> int:
        """Round a batch token count up to the bucket quantum."""
        if tokens <= 0:
            raise ValueError(f"tokens must be positive, got {tokens}")
        return (tokens + self.bucket - 1) // self.bucket * self.bucket

    def clear(self) -> None:
        """Drop the per-bucket step memo (the shared caches stay)."""
        with self._lock:
            self._memo.clear()
            self._hits = itertools.count()
            self._hit_reads = self._misses = self._evictions = 0

    def cache_stats(self) -> dict:
        """Hit/miss statistics of the per-bucket step memo, in the shape
        of :meth:`repro.perf.BoundedCache.stats`."""
        with self._lock:
            # Reading the hit counter takes a value from it too; the
            # reads so far are not hits.
            hits = next(self._hits) - self._hit_reads
            self._hit_reads += 1
            total = hits + self._misses
            return {
                "name": "serve-step",
                "size": len(self._memo),
                "maxsize": self.MEMO_SIZE,
                "hits": hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "hit_rate": hits / total if total else 0.0,
            }

    def step_us(self, prefill_tokens: int, decode_tokens: int) -> float:
        """One engine iteration over ``P`` prefill + ``D`` decode tokens.

        Prices the bucket on its first use and memoises it.
        """
        total = prefill_tokens + decode_tokens
        if total <= 0:
            raise ValueError("a step needs at least one token")
        number = (total - 1) // self.bucket
        cost = self._memo.get(number)
        if cost is not None:
            next(self._hits)
            return cost
        with self._lock:
            cost = self._memo.get(number)
            if cost is not None:  # priced while this thread waited
                next(self._hits)
                return cost
            self._misses += 1
            tokens = (number + 1) * self.bucket
            cost = self._iteration_us(tokens) + self.step_overhead_us
            if len(self._memo) >= self.MEMO_SIZE:
                del self._memo[next(iter(self._memo))]
                self._evictions += 1
            self._memo[number] = cost
        return cost

    def _iteration_us(self, tokens: int) -> float:
        """Price one iteration over a bucket of ``tokens`` tokens."""
        workload = self._workload(tokens)
        moe = perf.cached_time_layer(self.system, workload)
        tokens_per_dp = max(1, tokens // self.strategy.ep_size)
        attention_us = attention_time_us(
            self.config, self.cluster, self.strategy.tp_size, tokens_per_dp
        )
        if self.stragglers is not None:
            from repro.graph.lower import forward_makespan

            # The slow rank paces the iteration: price the per-rank
            # graph (every policy, per_layer included — the barrier
            # edges are the model).
            return forward_makespan(
                self.system.lower_rank_phases(moe, self.stragglers),
                attention_us,
                self.config.num_layers,
                self.overlap_policy,
                self.stragglers,
            )
        if self.overlap_policy == "per_layer":
            return self.config.num_layers * (attention_us + moe.total_us)
        from repro.graph.lower import forward_makespan

        return forward_makespan(
            self.system.lower_layer(moe),
            attention_us,
            self.config.num_layers,
            self.overlap_policy,
        )

    def step_ms(self, prefill_tokens: int, decode_tokens: int) -> float:
        return self.step_us(prefill_tokens, decode_tokens) / 1000.0

    def step_ms_at(
        self, now: float, prefill_tokens: int, decode_tokens: int
    ) -> float:
        """Step cost for an iteration *launched at* ``now`` ms.

        The schedulers price every step through this entry point.  A
        plain cost model is time-invariant: a priced bucket is one memo
        lookup by bucket number, and a bucket's first use prices it
        through :meth:`step_us`.  The time-varying wrapper
        (:class:`~repro.faults.plan.TimeVaryingStepCost`) picks the model
        of a :class:`~repro.faults.plan.FaultPlan`'s degradation window
        and asks it here.
        """
        cost = self._memo.get((prefill_tokens + decode_tokens - 1) // self.bucket)
        if cost is None:
            return self.step_us(prefill_tokens, decode_tokens) / 1000.0
        next(self._hits)
        return cost / 1000.0

    def prefill_ms(self, prompt_tokens: int) -> float:
        """Estimated solo-prefill latency (used by the SLO-aware policy)."""
        return self.step_ms(prompt_tokens, 0)
