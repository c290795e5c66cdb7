"""The member-count similarity factor against the block-pair intersection
it replaced, kept in ``similarity_oracle``, on generated partition pairs."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

import similarity_oracle
from rredux import factor

SETTINGS = dict(deadline=None, database=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


def _partition(ids, labels):
    """The blocks of ``ids`` grouped by label, in first-appearance order."""
    blocks = {}
    for x, label in zip(ids, labels):
        blocks.setdefault(label, []).append(x)
    return tuple(tuple(block) for block in blocks.values())


@st.composite
def partitions(draw, ids):
    """A partition of ``ids`` into 1-8 labelled blocks.  Half the draws deal
    the ids round-robin, so most blocks share one size."""
    k = draw(st.integers(1, 8))
    order = draw(st.permutations(ids))
    if draw(st.booleans()):
        labels = [i % k for i in range(len(order))]
    else:
        labels = draw(st.lists(st.integers(0, k - 1), min_size=len(order),
                               max_size=len(order)))
    return _partition(order, labels)


@st.composite
def partition_pairs(draw):
    """Two partitions of one universe of 1-60 arbitrary integer ids."""
    ids = draw(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=60,
                        unique=True))
    return draw(partitions(ids)), draw(partitions(ids))


@settings(max_examples=500, **SETTINGS)
@given(pair=partition_pairs())
def test_member_count_matches_block_pairs(pair):
    source, target = pair
    assert factor(source, target) == similarity_oracle.factor(source, target)
    assert factor(target, source) == similarity_oracle.factor(target, source)


def _without(blocks, x):
    """``blocks`` without member ``x``; a block left empty goes too."""
    return tuple(b for b in (tuple(y for y in block if y != x) for block in blocks) if b)


def _with(blocks, x):
    """``blocks`` with ``x`` added to the first block."""
    return (blocks[0] + (x,),) + blocks[1:]


def _both_raise(source, target):
    with pytest.raises(ValueError, match="universe"):
        factor(source, target)
    with pytest.raises(ValueError):
        similarity_oracle.factor(source, target)


@settings(max_examples=200, **SETTINGS)
@given(pair=partition_pairs(), data=st.data())
def test_both_reject_a_different_universe(pair, data):
    source, target = pair
    universe = sorted(x for block in source for x in block)
    gone = data.draw(st.sampled_from(universe))
    extra = max(universe) + 1
    for side in (0, 1):
        dropped = _without(pair[side], gone)
        changes = [dropped, _with(pair[side], extra)]
        if dropped:  # one id swapped for a new one: same size, other universe
            changes.append(_with(dropped, extra))
        for changed in changes:
            args = (changed, target) if side == 0 else (source, changed)
            _both_raise(*args)


@settings(max_examples=50, **SETTINGS)
@given(pair=partition_pairs())
def test_both_reject_an_empty_side(pair):
    source, target = pair
    _both_raise((), target)
    _both_raise(source, ())
    _both_raise((), ())
