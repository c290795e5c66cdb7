"""The all-Python canonical JSON emitter that ``rredux.jsonout.canonical``
replaced with faster paths for lists.

It recurses into every value, so it is plainly the definition the faster
emitter must reproduce: sorted keys, six-decimal floats, strings through
``json.dumps(..., ensure_ascii=False)``.  Kept as the differential oracle
for ``tests/test_canonical_oracle.py``.
"""

from __future__ import annotations

import json


def canonical(value) -> str:
    """Serialize ``value`` to canonical JSON text (no trailing newline)."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__format__(value, ".6f")
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
        items = (
            f"{json.dumps(k, ensure_ascii=False)}: {canonical(value[k])}"
            for k in sorted(value)
        )
        return "{" + ", ".join(items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(canonical(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__} to JSON")
