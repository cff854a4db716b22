"""Repair results: MAP assignments, marginals, and rigorous confidences.

Section 2.2: "each repair proposed by HoloClean is associated with a
marginal probability that carries rigorous semantics … if the proposed
repair has a probability of 0.6 it means that HoloClean is 60% confident
about this repair."  :class:`RepairResult` keeps the full marginal of
every inferred cell so the calibration analysis of Figure 6 (error rate
per probability bucket) can be reproduced.  It keeps them as columns —
:class:`CellInferences`, over the compiled model's variable catalog and
the one marginals buffer — and a :class:`CellInference` is built only
when a reader asks for a cell.
"""

from __future__ import annotations

from collections.abc import ItemsView, Iterator, Mapping, ValuesView
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter

import numpy as np

from repro.core.config import HoloCleanConfig
from repro.dataset.dataset import Cell, Dataset
from repro.engine.ops import expand_ranges
from repro.inference.variables import Marginals, VariableBlock
from repro.obs.report import RunReport


@dataclass
class CellInference:
    """Inference outcome for one noisy cell."""

    cell: Cell
    init_value: str | None
    chosen_value: str
    confidence: float
    domain: list[str]
    marginal: np.ndarray

    @property
    def is_repair(self) -> bool:
        """True when the MAP value differs from the observed one."""
        return self.chosen_value != self.init_value

    def probability_of(self, value: str) -> float:
        try:
            return float(self.marginal[self.domain.index(value)])
        except ValueError:
            return 0.0


class CellInferences(Mapping):
    """The inferences of a repair as a read-only ``Mapping[Cell, CellInference]``.

    Position ``k`` is query variable ``query_ids[k]`` of ``variables``:
    ``choice[k]`` indexes its candidate domain, ``confidence[k]`` is that
    candidate's probability and ``is_repair[k]`` says it differs from the
    observed value.  A ``clamped`` position (in-domain feedback) has a
    one-hot marginal; any other reads its marginal off ``marginals``.
    Out-of-domain feedback is an overlay with confidence 1.0: ``replaced``
    maps a query position to its value, which keeps the cell's place, and
    ``appended`` maps any other cell to its value, after the query cells
    in feedback order.  A lookup builds a :class:`CellInference` view whose
    observed value is read off ``dataset``, and iteration builds the views
    a batch at a time; keys iterate in query-id order and are the catalog's
    pooled ``Cell`` objects.  ``member`` (default: every position) restricts
    the mapping — :attr:`repairs` shares the columns that way.  ``position``
    (variable → ``k``, ``-1`` for none) is derived, so a pickle holds the
    arrays, never a view or a lookup.
    """

    def __init__(
        self,
        variables: VariableBlock,
        query_ids: np.ndarray,
        choice: np.ndarray,
        confidence: np.ndarray,
        is_repair: np.ndarray,
        clamped: np.ndarray,
        marginals: Marginals,
        dataset: Dataset,
        replaced: dict[int, str | None] | None = None,
        appended: dict[Cell, str | None] | None = None,
        member: np.ndarray | None = None,
        *,
        position: np.ndarray | None = None,
    ):
        self.variables, self.query_ids, self.marginals = variables, query_ids, marginals
        self.choice, self.confidence, self.is_repair = choice, confidence, is_repair
        self.clamped, self.dataset, self.member = clamped, dataset, member
        self.replaced = replaced or {}
        self.appended = appended or {}
        self._cells: list[Cell] | None = None  # keys, on first iteration
        self._position = position  # variable → k, on first lookup if not given

    def __reduce__(self):
        return CellInferences, self._columns()

    def _columns(self) -> tuple:
        """The constructor's arguments: all that a pickle holds."""
        return (
            self.variables,
            self.query_ids,
            self.choice,
            self.confidence,
            self.is_repair,
            self.clamped,
            self.marginals,
            self.dataset,
            self.replaced,
            self.appended,
            self.member,
        )

    # -- the mapping ---------------------------------------------------------
    def __len__(self) -> int:
        held = len(self.query_ids) if self.member is None else self.member.sum()
        return int(held) + len(self.appended)

    def __iter__(self) -> Iterator[Cell]:
        return iter(self._keys())

    def __getitem__(self, cell: Cell) -> CellInference:
        if cell in self.appended:
            return self._fixed(cell, self.appended[cell])
        vid = self.variables.row_of(cell)
        if self._position is None:
            self._position = np.full(len(self.variables), -1, dtype=np.int64)
            self._position[self.query_ids] = np.arange(len(self.query_ids))
        k = int(self._position[vid])
        if k < 0 or (self.member is not None and not self.member[k]):
            raise KeyError(cell)
        (view,) = self._views(np.array([k]), [Cell(*cell)])
        return view

    def items(self) -> ItemsView:
        return _Items(self)

    def values(self) -> ValuesView:
        return _Values(self)

    # -- set-at-a-time readers ----------------------------------------------
    @property
    def repairs(self) -> "CellInferences":
        """The same mapping restricted to the cells whose value changes."""
        *columns, _, _ = self._columns()
        member, position = self.is_repair, self._position
        return CellInferences(*columns, self._changed(), member, position=position)

    @property
    def num_repairs(self) -> int:
        return int(np.count_nonzero(self.is_repair)) + len(self._changed())

    def least_confident(self, below: float) -> list[CellInference]:
        """The repairs whose confidence is under ``below``, least confident
        first and ties in key order; only those cells get a view."""
        hits = np.flatnonzero(self.is_repair & (self.confidence < below))
        hits = hits[np.argsort(self.confidence[hits], kind="stable")]
        queue = self._views(hits, self.variables.cells_of(self.query_ids[hits]))
        if below > 1.0:  # an appended cell is certain
            changed = self._changed()
            queue += map(self._fixed, changed, changed.values())
        return sorted(queue, key=attrgetter("confidence"))

    def _changed(self) -> dict[Cell, str | None]:
        """The appended cells whose value differs from the observed one."""
        return {
            cell: value
            for cell, value in self.appended.items()
            if value != self.dataset.cell_value(cell)
        }

    # -- views -------------------------------------------------------------
    def _rows(self) -> np.ndarray:
        if self.member is None:
            return np.arange(len(self.query_ids))
        return np.flatnonzero(self.member)

    def _keys(self) -> list[Cell]:
        if self._cells is None:
            pooled = self.variables.cells_of(self.query_ids[self._rows()])
            self._cells = pooled + list(self.appended)
        return self._cells

    def _pairs(self) -> Iterator[tuple[Cell, CellInference]]:
        cells, rows = self._keys(), self._rows()
        views = self._views(rows, cells[: len(rows)])
        return zip(cells, chain(views, self._appended()))

    def _appended(self) -> Iterator[CellInference]:
        return map(self._fixed, self.appended, self.appended.values())

    def _views(self, rows: np.ndarray, cells: list[Cell]) -> list[CellInference]:
        """The views of positions ``rows``, keyed ``cells``, built a batch at
        a time: one domain decode and one marginal gather for all of them."""
        variables = self.variables
        vids, choice = self.query_ids[rows], self.choice[rows]
        domains = variables.domains_of(vids)
        # Observed values straight off the rows: one schema lookup per attribute.
        column = np.array(list(map(self.dataset.schema.index_of, variables.attributes)))
        tuples = map(self.dataset.row_ref, variables.tids[vids].tolist())
        columns = column[variables.attribute_codes[vids]].tolist()
        views = list(
            map(
                CellInference,
                cells,
                map(list.__getitem__, tuples, columns),
                map(list.__getitem__, domains, choice.tolist()),
                self.confidence[rows].tolist(),
                domains,
                self._marginals(vids, choice, self.clamped[rows]),
            )
        )
        for k, value in self.replaced.items():  # out-of-domain feedback
            for at in np.flatnonzero(rows == k):
                views[at] = self._fixed(cells[at], value)
        return views

    def _marginals(self, vids, choice, clamped) -> list[np.ndarray]:
        """The ``float64`` marginals of ``vids``, gathered into one buffer and
        cut into per-variable views; a clamped variable's is one-hot."""
        indptr = self.variables.domain_indptr
        sizes = indptr[vids + 1] - indptr[vids]
        cuts = np.concatenate(([0], np.cumsum(sizes)))
        flat = np.zeros(cuts[-1])
        free = ~clamped
        starts = self.marginals.offsets[self.marginals.slots(vids[free])]
        gathered = self.marginals.probs[expand_ranges(starts, sizes[free])]
        flat[expand_ranges(cuts[:-1][free], sizes[free])] = gathered
        flat[cuts[:-1][clamped] + choice[clamped]] = 1.0
        bounds = cuts.tolist()
        return list(map(flat.__getitem__, map(slice, bounds, bounds[1:])))

    def _fixed(self, cell: Cell, value: str | None) -> CellInference:
        """A cell set by out-of-domain feedback: certain, a domain of one."""
        return CellInference(
            cell=cell,
            init_value=self.dataset.cell_value(cell),
            chosen_value=value,
            confidence=1.0,
            domain=[value],
            marginal=np.array([1.0]),
        )


class _Items(ItemsView):
    def __iter__(self):
        return self._mapping._pairs()


class _Values(ValuesView):
    def __iter__(self):
        return (inference for _, inference in self._mapping._pairs())


@dataclass
class RepairResult:
    """Everything produced by one HoloClean run.

    ``timings`` reports the paper's three phases (``detect`` /
    ``compile`` / ``repair``); the staged API records finer per-stage
    wall-clock on :attr:`repro.core.stages.RepairContext.timings` and
    folds learn/infer/apply into ``repair`` here.
    """

    repaired: Dataset
    #: A :class:`CellInferences` from the apply stage; any other mapping
    #: (a baseline's or a test's ``dict``) works too.
    inferences: Mapping[Cell, CellInference]
    timings: dict[str, float] = field(default_factory=dict)
    size_report: dict[str, int | str] = field(default_factory=dict)
    training_losses: list[float] = field(default_factory=list)
    config: HoloCleanConfig | None = None
    #: Telemetry: trace tree + metrics + config fingerprint + dataset
    #: shape, attached by :class:`~repro.core.stages.ApplyStage`;
    #: serialize via ``report.to_json()`` (``repro --report out.json``).
    report: RunReport | None = None

    @property
    def repairs(self) -> Mapping[Cell, CellInference]:
        """Cells whose proposed value differs from the observed value."""
        if isinstance(self.inferences, CellInferences):
            return self.inferences.repairs
        return {c: inf for c, inf in self.inferences.items() if inf.is_repair}

    @property
    def num_repairs(self) -> int:
        if isinstance(self.inferences, CellInferences):
            return self.inferences.num_repairs
        return sum(1 for inf in self.inferences.values() if inf.is_repair)

    def least_confident(self, below: float) -> list[CellInference]:
        """Repairs whose confidence is under ``below``, least confident
        first (ties in key order)."""
        if isinstance(self.inferences, CellInferences):
            return self.inferences.least_confident(below)
        queue = [inf for inf in self.repairs.values() if inf.confidence < below]
        return sorted(queue, key=attrgetter("confidence"))

    @property
    def total_runtime(self) -> float:
        return sum(self.timings.values())

    def confidence_of(self, cell: Cell) -> float:
        return self.inferences[cell].confidence

    def summary(self) -> str:
        """One-line human summary used by the examples."""
        t = ", ".join(f"{k}={v:.2f}s" for k, v in self.timings.items())
        return (f"{self.num_repairs} repairs over "
                f"{len(self.inferences)} noisy cells ({t})")
