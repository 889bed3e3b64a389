"""Costed KV-cache migration over the inter-replica link.

PR 6 documented the prefill→decode handoff as a *free* KV transfer — an
optimistic lower bound.  :class:`MigrationSpec` replaces it with an
alpha-beta-priced transfer over an inter-replica
:class:`~repro.hw.link.LinkSpec` (the datacenter fabric tier,
:data:`~repro.hw.multinode.IB_400G` by default — KV shipping crosses
nodes, not NVLink):

* **Prefill → decode handoff**: a sequence leaving the prefill pool
  carries ``kv_bytes_per_token × (prompt + generated)`` bytes of KV
  cache.  Handoffs are *batched with decode admission* — every sequence
  a prefill step emits toward the same decode replica shares one
  transfer (one latency term, per-message costs summed), and the whole
  group becomes admissible only when the transfer lands.
* **Post-crash re-dispatch**: a crashed replica's reclaimed requests
  re-route with their *context* (``config.token_bytes`` per prompt
  token — raw activations-width tokens, not KV: the KV died with the
  replica and is rebuilt by the re-prefill the destination pays anyway).

``kv_bytes_per_token`` defaults to ``2 × num_layers × token_bytes``
(K and V per layer at the model's hidden width and dtype) via
:meth:`kv_bytes` — ~0.5 MiB/token for Mixtral-8x7B, which prices a
512-token handoff at a few milliseconds on a 400 Gb/s fabric: real
enough to surface on disaggregated pools, small enough that migration
stays worth it.  :class:`~repro.faults.plan.BrownoutEvent` windows
multiply the transfer time of migrations launched inside them.

:class:`OutcomeRecord` is the non-completion terminal state of a
request under a resilience policy — exactly one of *timed out* or
*shed*.  Fleet conservation becomes: every offered request is exactly
one of completed / timed-out / shed / unserved.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.scenario import check_count
from repro.hw.link import LinkSpec
from repro.hw.multinode import IB_400G

__all__ = ["MigrationSpec", "OutcomeRecord"]


@dataclass(frozen=True)
class MigrationSpec:
    """Prices KV/context movement between replicas.

    Args:
        link: the inter-replica transport (defaults to the IB fabric
            tier — replicas live on different nodes).
        kv_bytes_per_token: KV-cache footprint of one token; ``None``
            derives it from the model config at pricing time.
        messages_per_seq: transfer descriptors one migrating sequence
            contributes to the batched send (per-message initiation
            costs model the paged-KV block scatter).
    """

    link: LinkSpec = IB_400G
    kv_bytes_per_token: float | None = None
    messages_per_seq: int = 1

    def __post_init__(self) -> None:
        if self.kv_bytes_per_token is not None and self.kv_bytes_per_token <= 0:
            raise ValueError(
                f"kv_bytes_per_token must be positive, got "
                f"{self.kv_bytes_per_token}"
            )
        check_count("messages_per_seq", self.messages_per_seq, low=1)

    @property
    def label(self) -> str:
        return f"kv:{self.link.name}"

    def kv_bytes(self, config, tokens: int) -> float:
        """KV-cache bytes ``tokens`` tokens occupy under ``config``."""
        per_token = (
            self.kv_bytes_per_token
            if self.kv_bytes_per_token is not None
            else 2.0 * config.num_layers * config.token_bytes
        )
        return per_token * tokens

    def transfer_ms(self, nbytes: float, sequences: int, mult: float = 1.0) -> float:
        """One batched migration of ``sequences`` sequences totalling
        ``nbytes`` bytes; ``mult`` is the active brownout slowdown."""
        messages = max(1, sequences * self.messages_per_seq)
        return self.link.transfer_us(nbytes, messages=messages) / 1000.0 * mult


@dataclass(frozen=True)
class OutcomeRecord:
    """Terminal non-completion of one request: ``kind`` is ``"timeout"``
    (deadline expired with no retries left, after ``attempts`` total
    attempts) or ``"shed"`` (rejected at the front door, ``attempts``
    is 0)."""

    rid: int
    t_ms: float
    kind: str
    attempts: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("timeout", "shed"):
            raise ValueError(
                f"outcome kind must be 'timeout' or 'shed', got {self.kind!r}"
            )
        if self.attempts < 0:
            raise ValueError(f"attempts must be >= 0, got {self.attempts}")
