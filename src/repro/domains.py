"""One declaration per numeric knob: field domains and their validator.

Each ``int`` or ``float`` field of a spec declares the values it accepts
once, on the field, with :func:`knob`: finite, a lower bound and an
optional upper bound (each open or closed), integral or not, and
``None`` exactly when ``None`` is the field's default.  A field that
backs a CLI flag also carries the flag's help line; :mod:`repro.cli`
reads the flag's type, default and help from the field.

:func:`validate` walks one spec's declarations from its
``__post_init__``, which keeps only its cross-field and registry rules
by hand.  Finiteness and the bounds come first
(``max_batch_tokens must be finite and positive, got 0``), then
integrality (``seed must be an integer >= 0, got 2.5``); a bool is
never a number here.

This module imports nothing from :mod:`repro`, so every spec module,
the hardware models included, can use it.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Any

__all__ = ["Domain", "domains", "knob", "validate"]


@dataclass(frozen=True)
class Domain:
    """The values one numeric field accepts.

    ``low`` and ``high`` bound the value (``None``: unbounded on that
    side); ``low_open`` and ``high_open`` exclude the bound itself.
    ``why``, if set, is appended to the bounds in the error message.
    """

    low: float | None = None
    low_open: bool = False
    high: float | None = None
    high_open: bool = False
    integral: bool = False
    optional: bool = False
    help: str | None = None
    why: str | None = None

    @property
    def type(self) -> type:
        """What a textual value parses as: ``int`` or ``float``."""
        return int if self.integral else float

    def describe(self) -> str:
        """The bounds in words: ``positive``, ``>= 0``, ``exceed 1`` or
        ``lie in (0, 1]``; empty when there are none."""
        if self.high is not None:
            left = "(" if self.low_open else "["
            right = ")" if self.high_open else "]"
            return f"lie in {left}{self.low:g}, {self.high:g}{right}"
        if self.low is None:
            return ""
        if self.low_open:
            return "positive" if self.low == 0 else f"exceed {self.low:g}"
        return f">= {self.low:g}"

    def contains(self, value: float) -> bool:
        """Whether ``value`` is finite and within the bounds (NaN never is)."""
        low, high = self.low, self.high
        if low is None:
            above = -math.inf < value
        else:
            above = low < value if self.low_open else low <= value
        if high is None:
            below = value < math.inf
        else:
            below = value < high if self.high_open else value <= high
        return above and below

    def check(self, name: str, value: Any) -> None:
        """Raise ``ValueError`` naming ``name`` unless ``value`` is in
        this domain."""
        if value is None and self.optional:
            return
        if not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a number, got {value!r}")
        if not self.contains(value):
            bounds = self.describe()
            bounds = f" and {bounds}" if bounds else ""
            why = f" ({self.why})" if self.why else ""
            raise ValueError(f"{name} must be finite{bounds}{why}, got {value}")
        if self.integral:
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                least = "" if self.low is None else f" >= {int(self.low) + self.low_open}"
                raise ValueError(f"{name} must be an integer{least}, got {value!r}")
        elif isinstance(value, bool):
            raise ValueError(f"{name} must be a number, got {value!r}")


def knob(
    default: Any = dataclasses.MISSING,
    *,
    gt: float | None = None,
    ge: float | None = None,
    lt: float | None = None,
    le: float | None = None,
    integral: bool = False,
    help: str | None = None,
    why: str | None = None,
) -> Any:
    """A dataclass field with a declared :class:`Domain`.

    ``gt``/``ge`` give an open/closed lower bound and ``lt``/``le`` an
    upper one (an upper bound needs a lower); with neither the value
    need only be finite.  ``None`` is accepted exactly when it is the
    ``default``; with no ``default`` the field is required.
    """
    if (gt is not None and ge is not None) or (lt is not None and le is not None):
        raise TypeError("give at most one lower and one upper bound")
    high = lt if lt is not None else le
    low = gt if gt is not None else ge
    if high is not None and low is None:
        raise TypeError("an upper bound needs a lower bound")
    domain = Domain(
        low=low, low_open=gt is not None, high=high, high_open=lt is not None,
        integral=integral, optional=default is None, help=help, why=why,
    )
    return dataclasses.field(default=default, metadata={"domain": domain})


def domains(cls: type) -> dict[str, Domain]:
    """The declared domain of each of dataclass ``cls``'s knobs, by
    field name in field order."""
    return {
        field.name: field.metadata["domain"]
        for field in dataclasses.fields(cls)
        if "domain" in field.metadata
    }


def validate(spec: Any) -> None:
    """Check each declared field of ``spec`` against its domain."""
    for name, domain in domains(type(spec)).items():
        domain.check(name, getattr(spec, name))
