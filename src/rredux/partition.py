"""Indiscernibility partitions over a decision table.

Objects are indiscernible under an attribute set when they agree on every
attribute in it.  Partition blocks are tuples of object indices in row
order, and blocks are listed in order of their earliest member, so the
same table always yields the same block layout.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .table import DecisionTable


def blocks(table: DecisionTable, attrs: Iterable[str]) -> tuple[tuple[int, ...], ...]:
    """Partition of the objects by indiscernibility over ``attrs``.

    ``attrs`` may include the decision attribute.  Raises ``ValueError``
    for an empty attribute set or an unknown name.
    """
    names = list(attrs)
    if not names:
        raise ValueError("partition needs at least one attribute")
    columns = [table.column(a) for a in names]
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, key in enumerate(zip(*columns)):
        groups.setdefault(key, []).append(i)
    return tuple(tuple(g) for g in groups.values())


def relative_blocks(table: DecisionTable, attr: str) -> tuple[tuple[int, ...], ...]:
    """Partition by ``attr`` refined by the decision attribute.

    Two objects share a block only when they agree on both ``attr`` and
    the decision, i.e. the common refinement of the two single-attribute
    partitions.  This is the unit every similarity factor is computed on.
    """
    if attr == table.decision_attr:
        raise ValueError("relative partition is over a condition attribute")
    return blocks(table, [attr, table.decision_attr])


def consistency(table: DecisionTable, attrs: Iterable[str] | None = None) -> float:
    """Fraction of objects whose attribute values determine the decision.

    An object counts as consistent when every object indiscernible from
    it (over ``attrs``, default all condition attributes) carries the
    same decision.  1.0 means the table is consistent; lower values
    measure how much decision information the attribute set loses.
    """
    names: Sequence[str] = tuple(attrs) if attrs is not None else table.condition_attrs
    decision = table.column(table.decision_attr)
    positive = 0
    for block in blocks(table, names):
        if len({decision[i] for i in block}) == 1:
            positive += len(block)
    return positive / table.m
