import random
from collections import Counter
from pathlib import Path

import pytest

from rredux import DecisionTable, RawColumn, from_columns, parse_columns
from rredux.evaluate import _keys, nb_fold

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def admissions() -> DecisionTable:
    with open(DATA_DIR / "admissions.csv", "rb") as f:
        return from_columns(*parse_columns(f))


def raw_column(name: str, cells) -> RawColumn:
    """The column of ``cells``: their distinct values in first-appearance
    order as the domain, and one code per cell.  Float cells make a
    numeric column."""
    index = {cell: k for k, cell in enumerate(dict.fromkeys(cells))}
    return RawColumn(name, tuple(index), tuple(map(index.__getitem__, cells)))


def domain_of(table: DecisionTable, attr: str) -> tuple:
    """The domain of ``attr`` (a condition attribute or the decision)."""
    return next(c.domain for c in table.condition + (table.decision,) if c.name == attr)


def make_random_table(
    rng: random.Random,
    max_m: int = 12,
    max_attrs: int = 5,
    max_values: int = 3,
    max_classes: int = 3,
    min_attrs: int = 1,
) -> DecisionTable:
    """Small random decision table with dense-coded string labels."""
    m = rng.randint(1, max_m)
    n_attrs = rng.randint(min_attrs, max_attrs)
    columns = []
    for a in range(n_attrs):
        arity = rng.randint(1, max_values)
        cells = tuple(f"v{rng.randrange(arity)}" for _ in range(m))
        columns.append(raw_column(f"a{a}", cells))
    arity = rng.randint(1, max_classes)
    columns.append(
        raw_column("d", tuple(f"c{rng.randrange(arity)}" for _ in range(m)))
    )
    return from_columns(columns, "d")


@pytest.fixture
def random_tables():
    """Seeded stream of random tables: random_tables(n, **kwargs)."""

    def stream(n: int, seed: int = 20240, **kwargs):
        rng = random.Random(seed)
        return [make_random_table(rng, **kwargs) for _ in range(n)]

    return stream


def nb_classes(table: DecisionTable, test) -> list[int]:
    """The classes ``nb_fold`` gives the ``test`` rows, trained on every
    other row, from the counts ``cross_validate`` takes over all rows."""
    decisions = table.column(table.decision_attr)
    nd = len(table.decision.domain)
    totals = [Counter(_keys(col.codes, decisions, nd)) for col in table.condition]
    return nb_fold(table, totals, Counter(decisions), test)


def factor_of(mat, source: str, target: str) -> float:
    """The factor of ``source`` toward ``target``, read from ``mat.values``
    by the two attributes' positions in ``mat.attrs``."""
    return mat.values[mat.attrs.index(source)][mat.attrs.index(target)]


def block_sets(blocks) -> frozenset:
    """Order-insensitive view of a partition for set-equality asserts."""
    return frozenset(frozenset(block) for block in blocks)


@pytest.fixture(name="block_sets")
def block_sets_fixture():
    return block_sets
