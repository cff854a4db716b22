"""The DDlog relations of Section 4.1, as concrete builders.

HoloClean's compiler first generates the relations ``Tuple``,
``InitValue``, ``Domain``, ``HasFeature``, and (optionally) ``ExtDict`` /
``Matched``; inference rules are then grounded against them.  Our grounding
works directly on columnar forms of these structures (the store's coded
columns are ``InitValue``); a compiled model's relation bundle is exposed
below for inspection and testing.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.dataset.dataset import Cell, Dataset
from repro.external.matcher import MatchedRelation


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
