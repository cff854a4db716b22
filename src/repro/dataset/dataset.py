"""The dirty relation ``D``: tuples, cells, and value access.

Terminology follows Section 2.1 of the paper: a dataset is a set of tuples,
each tuple ``t`` is a set of cells ``Cells[t] = {A_i[t]}``, and every cell
``c`` has an observed initial value ``v_c``.  Repairs update cell values;
a ground-truth (clean) copy of the same relation uses the same classes.

Storage is columnar — the layout of the paper's ``Value(t, a, v)``
relation inside a DBMS: per attribute one ``int32`` code column over the
tuple ids (``-1`` encodes NULL) and a value table, ``table[code]`` being
the value.  The engine's :class:`~repro.engine.store.ColumnStore` is a
view of these arrays.  Row accessors (:meth:`Dataset.row_ref`,
:meth:`Dataset.tuple_dict`, :meth:`Dataset.value`) decode on demand for
baselines, generators, CSV output and the naive oracles.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.dataset.schema import Schema

#: Canonical representation of a missing value.  Empty strings read from CSV
#: files are normalised to ``NULL`` on load.
NULL: None = None

#: Code of :data:`NULL` in every code column.
NULL_CODE: int = -1


class Cell(NamedTuple):
    """Identifier of a single cell ``t[a]``: a (tuple id, attribute) pair."""

    tid: int
    attribute: str

    def __repr__(self) -> str:  # compact: t12.City
        return f"t{self.tid}.{self.attribute}"


def _encode(column: Sequence) -> tuple[np.ndarray, list[str]]:
    """One attribute's raw values as normalised codes and a first-seen table.

    Python work is per *distinct* value: the column is deduplicated and
    mapped to codes by C-level ``dict`` and ``map`` passes.  A column
    holding anything but strings and ``None`` (numbers, whose hashes may
    collide across types, or unhashable values) is normalised value by
    value first.
    """
    try:
        distinct = dict.fromkeys(column)
    except TypeError:  # an unhashable value, which normalise stringifies
        distinct = None
    if distinct is None or not all(v is None or type(v) is str for v in distinct):
        column = list(map(Dataset.normalise, column))
        distinct = dict.fromkeys(column)
    code_of: dict[str, int] = {}
    for raw in distinct:
        value = Dataset.normalise(raw)
        distinct[raw] = (
            NULL_CODE if value is None else code_of.setdefault(value, len(code_of))
        )
    codes = np.fromiter(map(distinct.__getitem__, column), np.int32, len(column))
    return codes, list(code_of)


class Dataset:
    """An in-memory relation with mutable cell values, stored as columns.

    Every value is a string or :data:`NULL`; anything else is stringified
    and stripped on the way in (HoloClean's model treats every domain as
    categorical).  Per attribute the dataset holds an ``int32`` code
    column and a value table.  A freshly built column is *canonical*: its
    table lists the values in first-seen row order, each used at least
    once — the order the engine and the naive oracles encounter them in.
    :meth:`set_value` and :meth:`write` extend a table and leave the
    column non-canonical; :meth:`encoded` restores the canonical form, so
    content, not history, decides codes, equality and fingerprints.
    """

    def __init__(
        self,
        schema: Schema,
        rows: Iterable[Sequence[str | None]] | None = None,
        name: str = "dataset",
    ):
        self.schema = schema
        self.name = name
        rows = list(rows) if rows is not None else []
        width = len(schema)
        ragged = set(map(len, rows)) - {width}
        if ragged:
            raise ValueError(f"row has {min(ragged)} values, schema has {width}")
        columns = list(zip(*rows)) if rows else [()] * width
        encoded = [_encode(column) for column in columns]
        self._n = len(rows)
        self._codes: list[np.ndarray] = [codes for codes, _ in encoded]
        self._tables: list[list[str]] = [table for _, table in encoded]
        self._canonical = [True] * width
        self._reset_caches()

    def _reset_caches(self) -> None:
        """Derived state, never pickled or copied."""
        #: Per attribute, value → code (built by the first write).
        self._lookup: list[dict[str, int] | None] = [None] * len(self.schema)
        #: Columns handed out by :meth:`encoded`: copied before a write.
        self._shared: set[int] = set()
        #: The rows decoded, for the row accessors (built on first use).
        self._row_cache: list[list[str | None]] | None = None

    def __getstate__(self) -> dict:
        return {
            "schema": self.schema,
            "name": self.name,
            "_n": self._n,
            "_codes": self._codes,
            "_tables": self._tables,
            "_canonical": self._canonical,
        }

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._reset_caches()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_dicts(
        cls,
        schema: Schema,
        records: Iterable[dict[str, str | None]],
        name: str = "dataset",
    ) -> "Dataset":
        """Build a dataset from dict records; missing keys become NULL."""
        names = schema.names
        known = set(names)
        rows = []
        for rec in records:
            unknown = set(rec) - known
            if unknown:
                raise KeyError(
                    f"record has attributes not in schema: {sorted(unknown)}"
                )
            rows.append([rec.get(a, NULL) for a in names])
        return cls(schema, rows, name=name)

    def append(self, row: Sequence[str | None]) -> int:
        """Append one row (aligned to schema order); returns its tuple id.

        Copies every column: build a dataset from all its rows at once
        (the constructor) rather than row by row.
        """
        if len(row) != len(self.schema):
            raise ValueError(
                f"row has {len(row)} values, schema has {len(self.schema)}"
            )
        values = [self.normalise(v) for v in row]
        for i, value in enumerate(values):
            # A row at the end keeps a column's first-seen order.
            canonical = self._canonical[i]
            column = self._writable(i)
            code = NULL_CODE if value is None else self._code_for(i, value)
            self._codes[i] = np.append(column, np.int32(code))
            self._canonical[i] = canonical
        if self._row_cache is not None:
            self._row_cache.append(values)
        self._n += 1
        return self._n - 1

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
    # Columns
    # ------------------------------------------------------------------
    def encoded(self, attribute: str) -> tuple[np.ndarray, list[str]]:
        """The ``int32`` code column and value table of ``attribute``.

        Canonical: codes in first-seen row order, every table value used
        — what a fresh encode of the current values gives.  These are the
        dataset's own arrays, not copies; callers must not modify them
        (the dataset copies a column before its next write instead).
        """
        i = self.schema.index_of(attribute)
        if not self._canonical[i]:
            self._canonicalize(i)
        self._shared.add(i)
        return self._codes[i], self._tables[i]

    def _canonicalize(self, i: int) -> None:
        codes, table = self._codes[i], self._tables[i]
        used, first = np.unique(codes[codes >= 0], return_index=True)
        order = used[np.argsort(first)]  # old codes in first-seen order
        # One slot past the table keeps NULL at NULL: remap[-1] == -1.
        remap = np.full(len(table) + 1, NULL_CODE, dtype=np.int32)
        remap[order] = np.arange(len(order), dtype=np.int32)
        self._codes[i] = remap[codes]
        self._tables[i] = list(map(table.__getitem__, order.tolist()))
        self._canonical[i] = True
        self._lookup[i] = None
        self._shared.discard(i)

    def _writable(self, i: int) -> np.ndarray:
        """Column ``i``, copied first if a reader holds it; marks it
        non-canonical, since the write may break first-seen order."""
        if i in self._shared:
            self._codes[i] = self._codes[i].copy()
            self._tables[i] = list(self._tables[i])
            self._shared.discard(i)
        self._canonical[i] = False
        return self._codes[i]

    def _code_for(self, i: int, value: str) -> int:
        """The code of ``value`` in column ``i``, extending its table."""
        lookup = self._lookup[i]
        if lookup is None:
            table = self._tables[i]
            lookup = self._lookup[i] = dict(zip(table, range(len(table))))
        code = lookup.get(value)
        if code is None:
            table = self._tables[i]
            code = lookup[value] = len(table)
            table.append(value)
        return code

    def write(self, attribute: str, tids, codes, table: Sequence[str | None]) -> None:
        """Set cell ``(tids[k], attribute)`` to ``table[codes[k]]`` for every
        ``k`` (a negative code writes NULL): one indexed array write, with
        one table lookup per distinct code."""
        i = self.schema.index_of(attribute)
        codes = np.asarray(codes, dtype=np.int64)
        used, at = np.unique(codes, return_inverse=True)
        column = self._writable(i)
        values = [self.normalise(table[c]) if c >= 0 else NULL for c in used.tolist()]
        mine = [NULL_CODE if v is None else self._code_for(i, v) for v in values]
        column[np.asarray(tids, dtype=np.int64)] = np.asarray(mine, np.int32)[at]
        self._row_cache = None

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def num_tuples(self) -> int:
        return self._n

    @property
    def num_cells(self) -> int:
        return self._n * len(self.schema)

    @property
    def tuple_ids(self) -> range:
        return range(self._n)

    def value(self, tid: int, attribute: str) -> str | None:
        """Current value of cell ``t[a]``."""
        i = self.schema.index_of(attribute)
        if self._row_cache is not None:
            return self._row_cache[tid][i]
        code = self._codes[i][tid]
        return None if code < 0 else self._tables[i][code]

    def cell_value(self, cell: Cell) -> str | None:
        return self.value(cell.tid, cell.attribute)

    def _decoder(self, i: int) -> np.ndarray:
        """Column ``i``'s table as an object array, NULL in its last slot
        so that the NULL code ``-1`` decodes to it."""
        return np.array([*self._tables[i], NULL], dtype=object)

    def decoded(self, attribute: str) -> list[str | None]:
        """Every value of ``attribute``, in tuple order."""
        i = self.schema.index_of(attribute)
        return self._decoder(i)[self._codes[i]].tolist()

    def cell_values(self, tids, positions) -> list[str | None]:
        """The values of cells ``(tids[k], schema.names[positions[k]])``,
        decoded a column at a time."""
        tids = np.asarray(tids, dtype=np.int64)
        positions = np.asarray(positions, dtype=np.int64)
        out = np.empty(len(tids), dtype=object)
        for i in np.flatnonzero(np.bincount(positions)).tolist():
            at = positions == i
            out[at] = self._decoder(i)[self._codes[i][tids[at]]]
        return out.tolist()

    def set_value(self, tid: int, attribute: str, value: str | None) -> None:
        i = self.schema.index_of(attribute)
        value = self.normalise(value)
        column = self._writable(i)
        column[tid] = NULL_CODE if value is None else self._code_for(i, value)
        if self._row_cache is not None:
            self._row_cache[tid][i] = value

    def _rows(self) -> list[list[str | None]]:
        """Every row decoded, built once and kept in step by
        :meth:`set_value` (a bulk :meth:`write` drops it)."""
        if self._row_cache is None:
            columns = map(self.decoded, self.schema.names)
            self._row_cache = list(map(list, zip(*columns)))
        return self._row_cache

    def row(self, tid: int) -> list[str | None]:
        """The raw value list of tuple ``tid`` (a copy)."""
        return list(self._rows()[tid])

    def row_ref(self, tid: int) -> list[str | None]:
        """The raw value list of tuple ``tid`` without copying.

        Decoded once for every row on first use, for the row-at-a-time
        readers (baselines, generators, oracles); callers must not mutate
        the returned list.
        """
        return self._rows()[tid]

    def tuple_dict(self, tid: int) -> dict[str, str | None]:
        """Tuple ``tid`` as an attribute → value mapping."""
        return dict(zip(self.schema.names, self._rows()[tid]))

    def cells(self) -> Iterator[Cell]:
        """All cells in row-major order."""
        for tid in range(self._n):
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
        return list(self.encoded(attribute)[1])

    def copy(self, name: str | None = None) -> "Dataset":
        clone = Dataset.__new__(Dataset)
        clone.__setstate__(
            {
                "schema": self.schema,
                "name": name or self.name,
                "_n": self._n,
                "_codes": [codes.copy() for codes in self._codes],
                "_tables": [list(table) for table in self._tables],
                "_canonical": list(self._canonical),
            }
        )
        return clone

    def diff(self, other: "Dataset") -> list[Cell]:
        """Cells whose values differ between ``self`` and ``other``, in
        row-major order."""
        if self.schema != other.schema or self.num_tuples != other.num_tuples:
            raise ValueError("can only diff datasets with identical shape")
        names = self.schema.names
        changed = np.zeros((self._n, len(names)), dtype=bool)
        for i, attribute in enumerate(names):
            mine, table = self.encoded(attribute)
            theirs, values = other.encoded(attribute)
            # Their codes in our code space; a value we lack matches nothing.
            code_of = dict(zip(table, range(len(table))))
            lut = np.array([code_of.get(v, -2) for v in values] + [NULL_CODE])
            changed[:, i] = mine != lut[theirs]
        tids, positions = np.nonzero(changed)
        attributes = map(names.__getitem__, positions.tolist())
        return list(map(Cell._make, zip(tids.tolist(), attributes)))

    def __len__(self) -> int:
        return self._n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        if self.schema != other.schema or self._n != other._n:
            return False
        for attribute in self.schema.names:
            mine, table = self.encoded(attribute)
            theirs, values = other.encoded(attribute)
            if table != values or not np.array_equal(mine, theirs):
                return False
        return True

    def __repr__(self) -> str:
        return (
            f"Dataset(name={self.name!r}, tuples={self.num_tuples}, "
            f"attributes={len(self.schema)})"
        )
