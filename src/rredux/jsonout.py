"""Canonical JSON emission for machine-readable CLI output.

Byte-stable for a given value: single line, keys sorted, every float
rendered with exactly six decimal places, except an ``ExactFloat`` that
six decimals would round.  The fixed float format is the point; the
stdlib encoder's shortest-repr floats would make golden files churn on
any arithmetic reordering.

Everything else already matches the stdlib encoder's default form
(``", "`` and ``": "`` separators, ``ensure_ascii=False``), so a list or
tuple whose elements are all exactly ``str``, ``int``, ``bool`` or
``None`` goes through the C encoder in one call.  The types must match
exactly, not by ``isinstance``: the encoder writes an ``int`` subclass
by the base type's rules, where this module calls the value's own
``str``, so an ``int``-valued ``Enum`` (and, on Python 3.10, an
``IntEnum``) would print differently.  A non-empty list of strings whose
joined text is ``isprintable()`` and holds no ``"`` or ``\\`` -- such as
the object-id lists of a trace's partitions -- is joined without the
encoder: it escapes only those two and U+0000-U+001F, and writes a
``str`` subclass as ``join`` does.  Dicts, and lists holding anything
else, are written element by element.
"""

from __future__ import annotations

import json

_PLAIN = frozenset({str, int, bool, type(None)})
_encode = json.JSONEncoder(ensure_ascii=False).encode


class ExactFloat(float):
    """A float that ``canonical`` writes with six decimals when they read
    back as the same float, and as its ``repr`` otherwise."""


def canonical(value) -> str:
    """Serialize ``value`` to canonical JSON text (no trailing newline)."""
    if isinstance(value, (list, tuple)):
        try:
            text = "".join(value)
        except TypeError:  # not all strings: a text the check below refuses
            text = "\\"
        if value and text.isprintable() and '"' not in text and "\\" not in text:
            return '["' + '", "'.join(value) + '"]'
        if set(map(type, value)) <= _PLAIN:
            return _encode(value)
        return "[" + ", ".join(map(canonical, value)) + "]"
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
        items = (f"{_encode(k)}: {canonical(value[k])}" for k in sorted(value))
        return "{" + ", ".join(items) + "}"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        text = f"{value:.6f}"
        return repr(value) if type(value) is ExactFloat and float(text) != value else text
    if isinstance(value, str):
        return _encode(value)
    raise TypeError(f"cannot serialize {type(value).__name__} to JSON")
