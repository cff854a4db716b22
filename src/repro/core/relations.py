"""The DDlog relations of Section 4.1, as concrete builders.

HoloClean's compiler first generates the relations ``Tuple``,
``InitValue``, ``Domain``, ``HasFeature``, and (optionally) ``ExtDict`` /
``Matched``; inference rules are then grounded against them.  Our grounding
works directly on these structures; ``InitValue`` and a compiled model's
relation bundle are exposed below for inspection and testing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dataset.dataset import Cell, Dataset
from repro.engine import Engine, engine_for
from repro.external.matcher import MatchedRelation


def init_value_relation(dataset: Dataset, engine: Engine | None = None,
                        cells=None) -> dict[Cell, str | None]:
    """``InitValue(t, a, v)``: every cell's initial observed value.

    Values are decoded column-at-a-time from the columnar store of
    ``engine`` (``None`` builds one over ``dataset``).  ``cells``
    restricts the relation to the given cells (in their iteration order)
    — what the compiler uses to materialise exactly the slice of
    ``InitValue`` its variables ground against; the default is all
    ``|D| × |attrs|`` cells in row-major order.
    """
    store = engine_for(dataset, engine).store
    if cells is None:
        cells = (Cell(tid, a) for tid in dataset.tuple_ids
                 for a in dataset.schema.names)
    columns: dict[str, list[str | None]] = {}
    out: dict[Cell, str | None] = {}
    for cell in cells:
        column = columns.get(cell.attribute)
        if column is None:
            column = store.decoded_column(cell.attribute)
            columns[cell.attribute] = column
        out[cell] = column[cell.tid]
    return out


@dataclass
class CompiledRelations:
    """The materialised relations behind one compiled model.

    ``init_values`` is the materialised ``InitValue`` relation the
    compiler grounded against (column-decoded by the engine); cells
    outside it — attributes the model never touched —
    fall back to a live dataset probe.
    """

    dataset: Dataset
    domain: dict[Cell, list[str]]
    matched: list[MatchedRelation] = field(default_factory=list)
    init_values: dict[Cell, str | None] = field(default_factory=dict)

    @property
    def num_random_variables(self) -> int:
        return len(self.domain)

    def init_value(self, cell: Cell) -> str | None:
        if cell in self.init_values:
            return self.init_values[cell]
        return self.dataset.cell_value(cell)
