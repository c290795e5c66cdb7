"""The bytearray loop that ``rredux.table.bitsets`` now runs only for
domains of more than ``_TRANSLATE_MAX`` codes.

One pass over the positions sets bit i of code ``codes[i]``'s bytearray.
Kept as the differential oracle for ``tests/test_popcount_oracle.py``.
"""

from __future__ import annotations

from typing import Sequence


def bitsets(codes: Sequence[int], size: int) -> tuple[int, ...]:
    """For each code below ``size``, the positions holding it in ``codes``
    as the set bits of one int."""
    buffers = [bytearray((len(codes) + 7) >> 3) for _ in range(size)]
    for i, code in enumerate(codes):
        buffers[code][i >> 3] |= 1 << (i & 7)
    return tuple(int.from_bytes(buffer, "little") for buffer in buffers)
