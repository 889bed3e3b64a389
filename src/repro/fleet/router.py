"""Front-door load-balancing policies for the fleet simulator.

A router decides which replica an incoming request lands on.  Policies
live in :data:`ROUTER_REGISTRY` (the same string-addressable
:class:`~repro.api.registry.Registry` the systems, traces, and admission
policies use), so ``FleetScenario(router="least_queue")`` and the CLI's
``repro fleet --router`` resolve through one namespace and plugins can
register their own.

Routers are *deterministic simulation objects*: one instance is created
per fleet run (seeded from the scenario), its decisions depend only on
the request, the candidate replica views handed to it, and its own
internal state, and the fleet engine calls it in a deterministic event
order — so every fleet report is bit-reproducible.

Two classes of policy matter to the engine:

* **state-independent** (``state_dependent = False``) — the decision is a
  pure function of the arrival sequence (round-robin, session-affinity
  hashing).  A static fleet under such a router decomposes into
  independent per-replica serving runs, which lets the engine reuse the
  PR 3 fast serving loop replica by replica.
* **state-dependent** (``state_dependent = True``) — the decision reads
  live replica state (queue depths, token backlogs), so the fleet must
  be co-simulated: every replica advances in one event loop, and the
  router decides at each arrival against the load of that instant.

The candidate "views" expose three load signals, all maintained by the
engine: ``queue_depth`` (waiting requests), ``running`` (sequences in
the batch), and ``backlog_tokens`` (waiting prompt tokens plus one token
per running decode — the work the replica still owes).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.api.registry import Registry
from repro.serve.traffic import Request

__all__ = [
    "ROUTER_REGISTRY",
    "LeastQueue",
    "PowerOfTwo",
    "RoundRobin",
    "Router",
    "SessionAffinity",
]


class Router:
    """Base router: one instance per fleet run.

    Args:
        num_replicas: size of the full replica pool (some replicas may be
            failed or scaled down when :meth:`choose` runs — the engine
            passes only routable candidates).
        seed: deterministic seed for randomised policies.
    """

    state_dependent: bool = False

    def __init__(self, num_replicas: int, seed: int = 0):
        if num_replicas <= 0:
            raise ValueError(
                f"num_replicas must be positive, got {num_replicas}"
            )
        self.num_replicas = num_replicas
        self.seed = seed

    def choose(self, request: Request, candidates: Sequence, now: float):
        """Pick one of ``candidates`` (never empty) for ``request``.

        Returns the chosen candidate view object itself.
        """
        raise NotImplementedError


ROUTER_REGISTRY = Registry("router")


def _register(name: str) -> Callable[[type], type]:
    def decorate(cls: type) -> type:
        ROUTER_REGISTRY.register(name, cls)
        cls.slug = name
        return cls

    return decorate


@_register("round_robin")
class RoundRobin(Router):
    """Cycle through the candidates in order, one request each.

    The cursor advances per dispatch (re-dispatches after a replica
    failure included), so on a static healthy fleet request ``i`` lands
    on replica ``i mod N`` — the classic DNS/L4 baseline that ignores
    request size and replica load entirely.
    """

    def __init__(self, num_replicas: int, seed: int = 0):
        super().__init__(num_replicas, seed)
        self._cursor = 0

    def choose(self, request: Request, candidates: Sequence, now: float):
        pick = candidates[self._cursor % len(candidates)]
        self._cursor += 1
        return pick


@_register("session_affinity")
class SessionAffinity(Router):
    """Sticky routing: requests of one session always hit one replica.

    The traffic model carries no explicit session ids, so sessions are
    derived deterministically from the request id — ``rid mod S`` with
    ``S = 4 * num_replicas`` sessions — modelling multi-turn users whose
    follow-ups return to the replica holding their KV/prefix cache.  The
    session hashes onto the *candidate list*, so when a replica fails
    only its sessions re-hash (the others stay sticky).
    """

    #: Knuth's multiplicative hash constant — spreads consecutive
    #: session ids across replicas instead of striping them.
    _HASH = 2654435761

    def __init__(self, num_replicas: int, seed: int = 0):
        super().__init__(num_replicas, seed)
        self.num_sessions = 4 * num_replicas

    def session_of(self, request: Request) -> int:
        return request.rid % self.num_sessions

    def choose(self, request: Request, candidates: Sequence, now: float):
        session = self.session_of(request)
        index = ((session + self.seed) * self._HASH) % (2 ** 32)
        return candidates[index % len(candidates)]


@_register("least_queue")
class LeastQueue(Router):
    """Join the replica with the shortest queue (JSQ).

    Load is compared as ``(queue_depth + running, backlog_tokens)`` with
    the replica index as the final deterministic tiebreaker.  JSQ needs a
    full scan of the fleet per request — the omniscient-router upper
    bound that power-of-two-choices approximates with two probes.
    """

    state_dependent = True

    def choose(self, request: Request, candidates: Sequence, now: float):
        return min(
            candidates,
            key=lambda r: (r.queue_depth + r.running, r.backlog_tokens, r.index),
        )


@_register("power_of_two")
class PowerOfTwo(Router):
    """SLO-aware power-of-two-choices: probe two replicas, join the one
    owing less work.

    Two distinct candidates are sampled from a seeded generator and the
    request joins whichever has the smaller *token backlog* (waiting
    prompt tokens + running decodes) — the quantity that prices the
    request's expected TTFT, which is what makes the comparison
    SLO-aware rather than merely queue-length-aware.  The classic
    Mitzenmacher result: two random probes capture most of the benefit
    of the full JSQ scan at O(1) cost.

    The probes are ``rng.integers(n)`` then ``rng.integers(n - 1)`` for
    ``n`` candidates, drawn :data:`BLOCK` pairs at a time by one call
    with per-element bounds, which gives the same values and leaves the
    generator in the same state as the scalar calls
    (:func:`repro.oracles.fleet_des.scalar_probes` is the reference).
    """

    state_dependent = True
    #: Probe pairs drawn per generator call.
    BLOCK = 256

    def __init__(self, num_replicas: int, seed: int = 0):
        super().__init__(num_replicas, seed)
        self._rng = np.random.default_rng(seed)
        self._draws: list[int] = []  # the block: first, second, first, ...
        self._used = 0  # draws taken from the block
        self._count = 0  # the candidate count the block was drawn for
        self._highs = np.zeros(0, dtype=np.int64)  # the block's bounds
        self._state: dict = {}  # the generator's state before the block

    def choose(self, request: Request, candidates: Sequence, now: float):
        n = len(candidates)
        if n == 1:
            return candidates[0]
        first, second = self._probes(n)
        if second >= first:
            second += 1
        a, b = candidates[first], candidates[second]
        if (a.backlog_tokens, a.index) <= (b.backlog_tokens, b.index):
            return a
        return b

    def _probes(self, n: int) -> tuple[int, int]:
        """The next probe pair for ``n`` candidates.

        When ``n`` differs from the block's candidate count, the
        generator rewinds to the block's start and redraws only the
        pairs already taken, so it stands where the scalar draws would
        have left it.
        """
        used = self._used
        if n != self._count or used == len(self._draws):
            rng = self._rng
            if used < len(self._draws):
                rng.bit_generator.state = self._state
                if used:
                    rng.integers(0, self._highs[:used])
            self._state = rng.bit_generator.state
            self._highs = np.tile(np.array([n, n - 1], dtype=np.int64), self.BLOCK)
            self._draws = rng.integers(0, self._highs).tolist()
            self._count = n
            used = 0
        self._used = used + 2
        return self._draws[used], self._draws[used + 1]


def make_router(name: str, num_replicas: int, seed: int = 0) -> Router:
    """Instantiate a registered router for one fleet run."""
    return ROUTER_REGISTRY.get(name)(num_replicas, seed=seed)
