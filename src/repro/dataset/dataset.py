"""The dirty relation ``D``: tuples, cells, and value access.

Terminology follows Section 2.1 of the paper: a dataset is a set of tuples,
each tuple ``t`` is a set of cells ``Cells[t] = {A_i[t]}``, and every cell
``c`` has an observed initial value ``v_c``.  Repairs update cell values;
a ground-truth (clean) copy of the same relation uses the same classes.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from repro.dataset.schema import Schema

#: Canonical representation of a missing value.  Empty strings read from CSV
#: files are normalised to ``NULL`` on load.
NULL: None = None


class Cell(NamedTuple):
    """Identifier of a single cell ``t[a]``: a (tuple id, attribute) pair."""

    tid: int
    attribute: str

    def __repr__(self) -> str:  # compact: t12.City
        return f"t{self.tid}.{self.attribute}"


class Dataset:
    """An in-memory relation with mutable cell values.

    Values are stored row-major as lists aligned with the schema order.
    All values are either strings or :data:`NULL`; callers are expected to
    normalise numbers to strings before loading (HoloClean's model treats
    every domain as categorical).
    """

    def __init__(self, schema: Schema, rows: Iterable[list[str | None]] | None = None,
                 name: str = "dataset"):
        self.schema = schema
        self.name = name
        self._rows: list[list[str | None]] = []
        if rows is not None:
            for row in rows:
                self.append(row)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_dicts(cls, schema: Schema, records: Iterable[dict[str, str | None]],
                   name: str = "dataset") -> "Dataset":
        """Build a dataset from dict records; missing keys become NULL."""
        ds = cls(schema, name=name)
        for rec in records:
            unknown = set(rec) - set(schema.names)
            if unknown:
                raise KeyError(f"record has attributes not in schema: {sorted(unknown)}")
            ds.append([rec.get(a, NULL) for a in schema.names])
        return ds

    def append(self, row: list[str | None]) -> int:
        """Append a row (list aligned to schema order); returns its tuple id."""
        if len(row) != len(self.schema):
            raise ValueError(
                f"row has {len(row)} values, schema has {len(self.schema)}")
        normalised = [self.normalise(v) for v in row]
        self._rows.append(normalised)
        return len(self._rows) - 1

    @staticmethod
    def normalise(value: str | None) -> str | None:
        """The load rule: stringify, strip, and read an empty string as NULL."""
        if value is None:
            return NULL
        if not isinstance(value, str):
            value = str(value)
        stripped = value.strip()
        return stripped if stripped else NULL

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def num_tuples(self) -> int:
        return len(self._rows)

    @property
    def num_cells(self) -> int:
        return len(self._rows) * len(self.schema)

    @property
    def tuple_ids(self) -> range:
        return range(len(self._rows))

    def value(self, tid: int, attribute: str) -> str | None:
        """Current value of cell ``t[a]``."""
        return self._rows[tid][self.schema.index_of(attribute)]

    def cell_value(self, cell: Cell) -> str | None:
        return self.value(cell.tid, cell.attribute)

    def set_value(self, tid: int, attribute: str, value: str | None) -> None:
        self._rows[tid][self.schema.index_of(attribute)] = self.normalise(value)

    def row(self, tid: int) -> list[str | None]:
        """The raw value list of tuple ``tid`` (a copy)."""
        return list(self._rows[tid])

    def row_ref(self, tid: int) -> list[str | None]:
        """The raw value list of tuple ``tid`` without copying.

        Internal fast path for detectors and featurizers; callers must not
        mutate the returned list.
        """
        return self._rows[tid]

    def tuple_dict(self, tid: int) -> dict[str, str | None]:
        """Tuple ``tid`` as an attribute → value mapping."""
        return dict(zip(self.schema.names, self._rows[tid]))

    def cells(self) -> Iterator[Cell]:
        """All cells in row-major order."""
        for tid in range(len(self._rows)):
            for attr in self.schema.names:
                yield Cell(tid, attr)

    def cells_of(self, tid: int) -> list[Cell]:
        return [Cell(tid, a) for a in self.schema.names]

    # ------------------------------------------------------------------
    # Domains and comparison
    # ------------------------------------------------------------------
    def active_domain(self, attribute: str) -> list[str]:
        """Distinct non-NULL values of ``attribute`` in first-seen order.

        This is the classic *active domain* used as the candidate-repair
        space by constraint-based methods [7, 12]; HoloClean prunes it via
        Algorithm 2.
        """
        idx = self.schema.index_of(attribute)
        seen: dict[str, None] = {}
        for row in self._rows:
            v = row[idx]
            if v is not None and v not in seen:
                seen[v] = None
        return list(seen)

    def copy(self, name: str | None = None) -> "Dataset":
        clone = Dataset(self.schema, name=name or self.name)
        clone._rows = [list(r) for r in self._rows]
        return clone

    def diff(self, other: "Dataset") -> list[Cell]:
        """Cells whose values differ between ``self`` and ``other``."""
        if self.schema != other.schema or self.num_tuples != other.num_tuples:
            raise ValueError("can only diff datasets with identical shape")
        out: list[Cell] = []
        for tid in range(self.num_tuples):
            mine, theirs = self._rows[tid], other._rows[tid]
            for i, attr in enumerate(self.schema.names):
                if mine[i] != theirs[i]:
                    out.append(Cell(tid, attr))
        return out

    def __len__(self) -> int:
        return len(self._rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.schema == other.schema and self._rows == other._rows

    def __repr__(self) -> str:
        return (f"Dataset(name={self.name!r}, tuples={self.num_tuples}, "
                f"attributes={len(self.schema)})")
