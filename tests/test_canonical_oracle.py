"""Canonical JSON through the stdlib encoder against the all-Python emitter
it replaced, kept in ``canonical_oracle``, on generated nested values."""

import enum
import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st

import canonical_oracle
from rredux.jsonout import canonical


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**70


class Mode(int, enum.Enum):
    """An int mix-in without ``IntEnum``: ``str`` gives ``Mode.FAST``, so
    both emitters write it as the encoder does, by ``int.__repr__``."""

    FAST = 1


class Tag(str):
    pass


class Ratio(float):
    pass


class Color(str, enum.Enum):
    RED = "red"
    QUOTE = 'q"'


class Half(float, enum.Enum):
    HALF = 0.5


class Shown(float):
    def __format__(self, spec):
        return "R!"

    def __repr__(self):
        return "R!"


class Counted(int):
    def __str__(self):
        return "C!"


# the characters JSON escapes, and some it writes as they stand that are
# not ``isprintable()``
ESCAPED = [*map(chr, range(0x20)), '"', "\\"]
UNPRINTABLE = ["\x7f", "\u2028", "\ud800"]


# any code point, lone surrogates included, and the characters JSON escapes
CHARS = st.one_of(
    st.characters(),
    st.integers(0xD800, 0xDFFF).map(chr),
    st.sampled_from('"\\/\x00\x08\x0c\x1f\x7f\u2028\u2029\ufeff\n\r\t'),
)
STRINGS = st.lists(CHARS, max_size=10).map("".join)
# 10**4299 has 4,300 digits, the most ``str`` writes; 10**4300 is over the
# limit (mapped, because hypothesis cannot show such an int in a strategy)
INTS = st.one_of(st.integers(), st.sampled_from([(1, 4299), (-1, 4299), (1, 4300)])
                 .map(lambda sign_digits: sign_digits[0] * 10 ** sign_digits[1]))
FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, 1e300, float("nan"), float("inf")]))
PLAIN = st.one_of(st.none(), st.booleans(), INTS, STRINGS)
SUBCLASSED = st.one_of(st.sampled_from(Level), st.sampled_from(Mode), STRINGS.map(Tag),
                       FLOATS.map(Ratio))
UNSERIALIZABLE = st.one_of(st.sets(st.integers(), max_size=2), st.binary(max_size=3),
                           st.builds(object))
KEYS = st.one_of(STRINGS, STRINGS.map(Tag), st.integers(0, 3), st.none())
SCALARS = st.one_of(PLAIN, FLOATS, st.lists(PLAIN, max_size=6),
                    st.lists(PLAIN, max_size=6).map(tuple))
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(st.one_of(children, SUBCLASSED, UNSERIALIZABLE), max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(STRINGS, children, max_size=4),
        st.dictionaries(KEYS, children, max_size=3),
    ),
    max_leaves=25,
)


def _non_finite(value) -> bool:
    """Whether a float NaN or infinity is anywhere in ``value``."""
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, (list, tuple)):
        return any(map(_non_finite, value))
    return isinstance(value, dict) and any(map(_non_finite, value.values()))


def _outcome(emit, value):
    """The text ``emit`` writes for ``value``, or the type of what it raises."""
    try:
        return emit(value)
    except Exception as exc:  # noqa: BLE001 -- the type is what is compared
        return type(exc)


@settings(max_examples=400, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@example(value=[])
@example(value={"ids": [["x1", "x2"], [], ["x3"]], "n": [1, True, None]})
@example(value=[1, Level.HIGH, Mode.FAST, "a"])
@example(value=[Tag("\ud800"), "q\"uote"])
@example(value=[Ratio(0.5), -0.0, 1e300, float("nan"), float("-inf")])
@example(value={"a": [1], 2: "b"})
@example(value=[[set()], b"x", object()])
@example(value=ESCAPED + UNPRINTABLE)
@example(value=[""])
@example(value=["", ""])
@example(value=("x1", "x2", "\u00e9"))
@example(value=[Tag("x1"), "x2", Tag('t"')])
@example(value=[Color.RED, "x1"])
@example(value=[Color.QUOTE])
@example(value=["x1", 2, "x3"])
@example(value=[f"x{i}" for i in range(1, 2001)])
@given(value=VALUES)
def test_canonical_matches_oracle(value):
    got, want = _outcome(canonical, value), _outcome(canonical_oracle.canonical, value)
    if _non_finite(value):  # the oracle writes ``nan`` and ``inf``, which are not JSON
        assert got is ValueError or got is want is TypeError
    else:
        assert got == want


@pytest.mark.parametrize("char", ESCAPED + UNPRINTABLE + [" ", "\u00a0", "\u00e9", "\U0001f600"])
def test_joined_lists_escape_like_the_oracle(char):
    """One character at the start, inside or at the end of one string
    among clean ones."""
    for value in (["x1", char], ["x1", f"a{char}b", "x3"], (f"{char}a",)):
        assert canonical(value) == canonical_oracle.canonical(value)


def _six(value):
    """``value`` with every float in it rounded to six decimals."""
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, list):
        return list(map(_six, value))
    if isinstance(value, dict):
        return {key: _six(item) for key, item in value.items()}
    return value


def test_number_subclasses_are_written_as_their_base_type():
    """As the stdlib encoder writes them, never by the subclass's own
    ``str``, ``repr`` or ``format``, bare, in a list and as a dict value."""
    for number in (Level.LOW, Level.HIGH, Mode.FAST, Half.HALF, Shown(1 / 3), Counted(7)):
        for value in (number, [number], {"k": number}):
            assert _six(json.loads(canonical(value))) == _six(json.loads(json.dumps(value)))
