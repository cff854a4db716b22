"""The DDlog relations of Section 4.1, as concrete builders.

HoloClean's compiler first generates the relations ``Tuple``,
``InitValue``, ``Domain``, ``HasFeature``, and (optionally) ``ExtDict`` /
``Matched``; inference rules are then grounded against them.  Our grounding
works directly on these structures; ``InitValue`` and a compiled model's
relation bundle are exposed below for inspection and testing.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.dataset.dataset import Cell, Dataset
from repro.engine import Engine, engine_for
from repro.external.matcher import MatchedRelation


def init_value_relation(
    dataset: Dataset, engine: Engine | None = None, cells=None
) -> dict[Cell, str | None]:
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
        cells = (
            Cell(tid, a) for tid in dataset.tuple_ids for a in dataset.schema.names
        )
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

    ``domain`` is columnar (:class:`~repro.inference.variables.DomainRelation`
    in a compiled model) and ``InitValue`` is not stored at all: the dataset
    the model was compiled against answers it.
    """

    dataset: Dataset
    domain: Mapping[Cell, list[str]]
    matched: list[MatchedRelation] = field(default_factory=list)

    @property
    def num_random_variables(self) -> int:
        return len(self.domain)

    @property
    def init_values(self) -> dict[Cell, str | None]:
        """``InitValue`` over the cells of ``domain``, in its key order."""
        return {cell: self.dataset.cell_value(cell) for cell in self.domain}
