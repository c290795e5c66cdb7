"""Canonical JSON emission for machine-readable CLI output.

Each value is written by its JSON type, as the stdlib encoder writes it
(``", "`` and ``": "`` separators, ``ensure_ascii=False``): a subclass of
``int``, ``float`` or ``str`` is written as its base type, never by its
own ``str``, ``repr`` or ``format``.  The text is also byte-stable: one
line, keys sorted, every float with exactly six decimals (except an
``ExactFloat`` that six decimals would round), so golden files do not
churn on any arithmetic reordering as shortest-repr floats would.

A non-empty list or tuple of strings whose joined text is
``isprintable()`` and holds no ``"`` or ``\\`` -- such as a trace's
object-id lists -- is joined without the encoder, since it escapes only
those two and U+0000-U+001F.  Dicts and every other list are written
element by element.
"""

from __future__ import annotations

import json

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
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__format__(value, ".6f")
        if text.endswith(("nan", "inf")):  # no JSON form; ``json.dumps(allow_nan=False)`` agrees
            raise ValueError(f"float {text} is not JSON compliant")
        exact = isinstance(value, ExactFloat) and float(text) != value
        return float.__repr__(value) if exact else text
    if isinstance(value, str):
        return _encode(value)
    raise TypeError(f"cannot serialize {type(value).__name__} to JSON")
