"""Programmatic error detection via labeling functions.

Section 7 of the paper: "the paradigm of data programming [34] has been
introduced as a means to allow users to programmatically encode domain
knowledge in inference tasks.  Exploring how data programming and data
cleaning can be unified … is a promising future direction."

This module realises that direction for the *detection* side: users write
small labeling functions voting ``ERROR`` / ``CLEAN`` / ``ABSTAIN`` per
cell; :class:`ProgrammaticDetector` aggregates the votes into the noisy
set ``D_n``.  A few common labeling-function builders are provided.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.dataset.dataset import Cell, Dataset
from repro.detect.base import DetectionResult, ErrorDetector

#: Labeling-function verdicts.
ERROR = 1
CLEAN = 0
ABSTAIN = -1


@dataclass(frozen=True)
class LabelingFunction:
    """A named voter over cells."""

    name: str
    fn: Callable[[Dataset, Cell], int]
    weight: float = 1.0

    def __call__(self, dataset: Dataset, cell: Cell) -> int:
        verdict = self.fn(dataset, cell)
        if verdict not in (ERROR, CLEAN, ABSTAIN):
            raise ValueError(
                f"labeling function {self.name!r} returned {verdict!r}; "
                f"expected ERROR, CLEAN, or ABSTAIN"
            )
        return verdict


class ProgrammaticDetector(ErrorDetector):
    """Weighted-vote aggregation of labeling functions.

    A cell joins ``D_n`` when the weighted ERROR votes exceed the weighted
    CLEAN votes by at least ``margin``.  Abstentions carry no weight, so a
    single confident function can flag a cell nobody else covers.
    """

    def __init__(
        self,
        functions: list[LabelingFunction],
        attributes: list[str] | None = None,
        margin: float = 0.5,
    ):
        if not functions:
            raise ValueError("need at least one labeling function")
        self.functions = list(functions)
        self.attributes = attributes
        self.margin = margin

    def detect(self, dataset: Dataset) -> DetectionResult:
        attrs = self.attributes or dataset.schema.data_attributes
        noisy: set[Cell] = set()
        for tid in dataset.tuple_ids:
            for attr in attrs:
                cell = Cell(tid, attr)
                score = 0.0
                for lf in self.functions:
                    verdict = lf(dataset, cell)
                    if verdict == ERROR:
                        score += lf.weight
                    elif verdict == CLEAN:
                        score -= lf.weight
                if score >= self.margin:
                    noisy.add(cell)
        return DetectionResult(noisy_cells=noisy)


# ---------------------------------------------------------------------------
# Common labeling-function builders
# ---------------------------------------------------------------------------
def lf_null(name: str = "lf_null") -> LabelingFunction:
    """Votes ERROR on NULL cells, abstains otherwise."""

    def fn(dataset: Dataset, cell: Cell) -> int:
        return ERROR if dataset.cell_value(cell) is None else ABSTAIN

    return LabelingFunction(name, fn)


def lf_pattern(
    attribute: str,
    pattern: str,
    *,
    matches_are_clean: bool = True,
    name: str | None = None,
) -> LabelingFunction:
    """Votes by regular expression on one attribute.

    With ``matches_are_clean`` (default) values matching the pattern are
    CLEAN and the rest ERROR (a format check, e.g. ``r"\\d{5}"`` for
    zips); inverted, matches are ERROR (a deny-list).
    """
    compiled = re.compile(pattern)

    def fn(dataset: Dataset, cell: Cell) -> int:
        if cell.attribute != attribute:
            return ABSTAIN
        value = dataset.cell_value(cell)
        if value is None:
            return ABSTAIN
        matched = compiled.fullmatch(value) is not None
        if matches_are_clean:
            return CLEAN if matched else ERROR
        return ERROR if matched else CLEAN

    return LabelingFunction(name or f"lf_pattern_{attribute}", fn)


def lf_allowed_values(
    attribute: str, allowed, *, name: str | None = None
) -> LabelingFunction:
    """Votes ERROR when the value is outside a closed vocabulary."""
    allowed_set = frozenset(allowed)

    def fn(dataset: Dataset, cell: Cell) -> int:
        if cell.attribute != attribute:
            return ABSTAIN
        value = dataset.cell_value(cell)
        if value is None:
            return ABSTAIN
        return CLEAN if value in allowed_set else ERROR

    return LabelingFunction(name or f"lf_allowed_{attribute}", fn)


def lf_rare_value(
    attribute: str, max_count: int = 1, *, name: str | None = None
) -> LabelingFunction:
    """Votes ERROR on values occurring at most ``max_count`` times.

    Counts are per code of the attribute's column and memoised on the code
    array ``dataset.encoded(attribute)`` returns.  A write to a column a
    reader holds copies it first, so a new array means new counts, and the
    memo holds one column, never a dataset.
    """
    memo: list = [None, None]  # [code column, its per-code counts]

    def fn(dataset: Dataset, cell: Cell) -> int:
        if cell.attribute != attribute:
            return ABSTAIN
        codes, table = dataset.encoded(attribute)
        code = codes[cell.tid]
        if code < 0:
            return ABSTAIN
        if memo[0] is not codes:
            memo[:] = [codes, np.bincount(codes[codes >= 0], minlength=len(table))]
        return ERROR if memo[1][code] <= max_count else ABSTAIN

    return LabelingFunction(name or f"lf_rare_{attribute}", fn)
