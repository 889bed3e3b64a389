"""Pure helpers of the benchmark: tail percentiles, digests, output gates."""

import hashlib
import json
import statistics
from typing import Any, Sequence

#: A tail percentile must have at least this many samples beyond it.
TAIL_BEYOND = 10

#: COMET's single-layer and end-to-end speedups as the paper reports them.
PAPER_LAYER_SPEEDUP = 1.96
PAPER_E2E_SPEEDUP = 1.71


def tail(samples: Sequence[float]) -> tuple[float, float]:
    """``(percentile, value)`` of the highest percentile that has at least
    :data:`TAIL_BEYOND` samples beyond it.

    With the nearest-rank definition, percentile ``p`` of ``n`` sorted
    samples is the sample at rank ``ceil(p * n / 100)``, which has
    ``n - rank`` samples beyond it.  The highest ``p`` leaving ten beyond
    is ``100 * (n - 10) / n``: the eleventh-largest sample.  With ten
    samples or fewer no percentile qualifies, and the median is reported
    as percentile 50.
    """
    if not samples:
        raise ValueError("tail() needs at least one sample")
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def paper_gap(simulated: float, paper: float) -> float:
    """Relative distance of a simulated speedup from the paper's."""
    return abs(simulated - paper) / paper


def digest(export: str) -> str:
    """sha256 of an export's text."""
    return hashlib.sha256(export.encode("utf-8")).hexdigest()


def non_finite_values(export: str) -> int:
    """Number of ``NaN``/``Infinity`` literals in a JSON export."""
    found: list[str] = []
    json.loads(export, parse_constant=found.append)
    return len(found)


class MustRepeat:
    """Gate for a value that every iteration of a run must reproduce.

    The first value seen is kept in :attr:`first`; :meth:`check` returns a
    problem description for any later value that differs, else ``None``.
    """

    def __init__(self, label: str):
        self.label = label
        self.first: Any = None

    def check(self, value: Any) -> str | None:
        if self.first is None:
            self.first = value
            return None
        if value != self.first:
            return f"{self.label} {value!r} differs from the run's first {self.first!r}"
        return None
