"""The registered ruleset.

:data:`RULE_REGISTRY` reuses the repo's own :class:`repro.api.registry.Registry`
(ordered, case-insensitive, self-describing errors) so ``repro lint
--rule NAME`` failures list every valid rule the same way ``--model``
failures list every model.
"""

from __future__ import annotations

from repro.api.registry import Registry
from repro.lint.rules.determinism import DeterminismRule
from repro.lint.rules.fingerprint import FingerprintCompletenessRule
from repro.lint.rules.parity import FastSlowParityRule
from repro.lint.rules.spec_hygiene import SpecHygieneRule

__all__ = ["RULE_REGISTRY"]

RULE_REGISTRY = Registry("lint rule")

for _rule_cls in (
    FingerprintCompletenessRule,
    SpecHygieneRule,
    DeterminismRule,
    FastSlowParityRule,
):
    _rule = _rule_cls()
    RULE_REGISTRY.register(_rule.name, _rule)
