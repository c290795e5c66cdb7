"""Single-reduct generation from pairwise attribute similarity.

Three stages over the similarity matrix:

1. For every unordered attribute pair keep the stronger direction, then
   drop every kept element whose factor does not strictly exceed the
   average (``ass_gen``).
2. Merge elements sharing a left attribute into one compound element
   (``comp_sim``).
3. Greedily select the compound element with the largest right-hand side,
   add its left to the reduct, and delete every element whose left sits
   in that right-hand side; repeat until empty (``sin_red_gen``).

Attributes that never entered the compound set are appended to the
reduct: an attribute similar to nothing carries information no selected
attribute can stand in for.  The full run is recorded in a trace dict so
every stage can be audited or serialized.

Each stage takes the :class:`SimilaritySet` the stage before it returns;
``run_pipeline`` chains them.
"""

from __future__ import annotations

from typing import NamedTuple

from . import similarity
from .partition import blocks
from .similarity import SimilarityMatrix
from .table import DecisionTable


class SimilarityElement(NamedTuple):
    """One similarity edge: ``left`` is similar to the attributes in ``right``.

    Selected and filtered elements have a singleton right and carry their
    factor; compound elements may have several rights and no factor.  The
    right side is non-empty, free of repeats and never holds ``left``: only
    the stages below build elements, so the tests assert this on their output.
    """

    left: str
    right: tuple[str, ...]
    factor: float | None = None


class SimilaritySet(NamedTuple):
    """An ordered similarity set; selected and filtered sets keep the average
    factor of the selected elements."""

    elements: tuple[SimilarityElement, ...]
    avg_factor: float | None = None


class ReductResult(NamedTuple):
    """The reduct plus a trace: ``sin_red_gen`` records its iterations, and
    ``run_pipeline`` the complete stage-by-stage record.

    No attribute appears twice in ``reduct``; ``sin_red_gen`` rejects the
    inputs that would repeat one.
    """

    reduct: tuple[str, ...]
    isolated: tuple[str, ...]
    trace: dict


def select_pairs(mat: SimilarityMatrix) -> SimilaritySet:
    """Keep the stronger direction of each unordered attribute pair.

    On a tie the earlier-indexed attribute stays the source.  The
    average of the kept factors is attached for the next stage.
    """
    attrs = mat.attrs
    elements = []
    for i in range(len(attrs)):
        for j in range(i + 1, len(attrs)):
            if mat.values[i][j] >= mat.values[j][i]:
                elements.append(SimilarityElement(attrs[i], (attrs[j],), mat.values[i][j]))
            else:
                elements.append(SimilarityElement(attrs[j], (attrs[i],), mat.values[j][i]))
    ratios = [el.factor.as_integer_ratio() for el in elements]
    avg = similarity.exact_mean(ratios) if ratios else None  # rounded once, so ties stay ties
    return SimilaritySet(tuple(elements), avg)


def _filter_above_average(selected: SimilaritySet) -> SimilaritySet:
    kept = tuple(el for el in selected.elements if el.factor > selected.avg_factor)
    return SimilaritySet(kept, selected.avg_factor)


def ass_gen(mat: SimilarityMatrix) -> SimilaritySet:
    """Build the attribute similarity set: select directions, filter by average.

    Only elements whose factor strictly exceeds the average survive.
    With fewer than two attributes the result is empty.
    """
    return _filter_above_average(select_pairs(mat))


def comp_sim(ass: SimilaritySet) -> SimilaritySet:
    """Merge elements sharing a left into compound elements.

    Lefts keep their first-occurrence order; each merged right-hand side
    is the union of the originals, in first-occurrence order.  Factors
    are dropped.
    """
    rights: dict[str, list[str]] = {}
    for el in ass.elements:
        merged = rights.setdefault(el.left, [])
        for attr in el.right:
            if attr not in merged:
                merged.append(attr)
    elements = tuple(
        SimilarityElement(left, tuple(right)) for left, right in rights.items()
    )
    return SimilaritySet(elements)


def sin_red_gen(ass: SimilaritySet, all_attrs: tuple[str, ...]) -> ReductResult:
    """Greedy single-reduct selection over a compound similarity set.

    Each round selects the element with the largest right-hand side
    (ties go to the left that comes first in ``all_attrs``), admits its
    left to the reduct, and deletes every element whose left appears in
    the selected right-hand side.  Attributes mentioned nowhere in the
    compound set are appended afterwards as isolated attributes.  The
    trace holds the iterations only: their selections and deletions.
    """
    order = {a: k for k, a in enumerate(all_attrs)}
    # either repeat would put an attribute in the reduct twice
    if len(order) != len(all_attrs):
        raise ValueError("attributes repeat")
    if len({el.left for el in ass.elements}) != len(ass.elements):
        raise ValueError("two elements share a left attribute")
    for el in ass.elements:
        for attr in (el.left, *el.right):
            if attr not in order:
                raise ValueError(f"unknown attribute {attr!r}")

    remaining = list(ass.elements)
    reduct: list[str] = []
    iterations = []
    while remaining:
        chosen = max(remaining, key=lambda el: (len(el.right), -order[el.left]))
        reduct.append(chosen.left)
        deleted = [el.left for el in remaining if el is not chosen and el.left in chosen.right]
        remaining = [
            el for el in remaining if el is not chosen and el.left not in chosen.right
        ]
        iterations.append({"selected": chosen.left, "deleted": deleted})

    mentioned = {a for el in ass.elements for a in (el.left, *el.right)}
    isolated = tuple(a for a in all_attrs if a not in mentioned)
    reduct.extend(isolated)

    return ReductResult(tuple(reduct), isolated, {"iterations": iterations})


def _element_json(el: SimilarityElement) -> dict:
    entry = {"left": el.left, "right": list(el.right)}
    if el.factor is not None:
        entry["factor"] = el.factor
    return entry


def _blocks_json(ids: list[str], blks) -> list[list[str]]:
    return [[ids[i] for i in block] for block in blks]


def run_pipeline(table: DecisionTable, trace: bool = False) -> ReductResult:
    """Full run: similarity matrix, selection, compounding, reduction.

    The trace records every pairwise factor in row-major order, each
    similarity-set stage, the per-iteration selections and deletions, and
    the final reduct.  ``trace=True`` adds ``partitions``: the decision
    partition and the plain and decision-refined partition of every
    condition attribute, as object ids ``x1`` .. ``xm``.
    """
    mat = similarity.matrix(table)
    selected = select_pairs(mat)
    filtered = _filter_above_average(selected)
    compound = comp_sim(filtered)
    result = sin_red_gen(compound, table.condition_attrs)

    record = {
        "delta": [
            {"source": a, "target": b, "factor": factor}
            for a, row in zip(mat.attrs, mat.values)
            for b, factor in zip(mat.attrs, row)
            if a != b
        ],
        "ass_selected": [_element_json(el) for el in selected.elements],
        "avg_factor": selected.avg_factor,
        "ass_filtered": [_element_json(el) for el in filtered.elements],
        "ass_compound": [_element_json(el) for el in compound.elements],
        "iterations": result.trace["iterations"],
        "reduct": list(result.reduct),
        "isolated": list(result.isolated),
    }
    if trace:
        ids = [f"x{i + 1}" for i in range(table.m)]
        record["partitions"] = {
            "decision": _blocks_json(ids, blocks(table, [table.decision_attr])),
            "plain": {a: _blocks_json(ids, blocks(table, [a])) for a in mat.attrs},
            "relative": {a: _blocks_json(ids, mat.relative[a]) for a in mat.attrs},
        }
    return result._replace(trace=record)
