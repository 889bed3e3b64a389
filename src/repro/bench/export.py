"""Machine-readable export of benchmark results (JSON).

Every harness result in :mod:`repro.bench.figures` is a plain dataclass
tree; these helpers serialise any of them so downstream users can plot
the regenerated figures with their own tooling.  Tables export as CSV
through :func:`repro.api.results.rows_to_csv`.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Mapping

__all__ = ["result_to_json", "save_json"]


def _plain(value: Any) -> Any:
    """Recursively convert dataclasses / numpy / mappings to JSON types."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _plain(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        return {_key(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            return value.item()  # numpy scalar
        except (AttributeError, ValueError):
            pass
    if hasattr(value, "tolist"):
        return value.tolist()  # numpy array
    return value


def _key(key: Any) -> str:
    """JSON object keys must be strings."""
    if isinstance(key, str):
        return key
    if isinstance(key, (int, float, bool)):
        return str(key)
    if isinstance(key, tuple):
        return "/".join(str(part) for part in key)
    return str(key)


def result_to_json(result: Any, indent: int = 2) -> str:
    """Serialise any harness result dataclass to a JSON string."""
    return json.dumps(_plain(result), indent=indent, sort_keys=True)


def save_json(result: Any, path: str) -> None:
    """Write :func:`result_to_json` output to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(result_to_json(result))

