"""Random variables of the grounded model, held as columns.

Each cell ``t[a]`` becomes one categorical variable ``T_c`` over a pruned
candidate domain (Section 2.2).  Evidence variables (clean cells) are fixed
to their observed value and drive weight learning; query variables (noisy
cells) are inferred.

The paper's compiler materialises ``Domain(t, a, d)`` as a relation
(Section 4.1); here that is :class:`CellColumns` — tuple ids, attribute codes
and a CSR of candidate codes over per-attribute value tables — so a compiled
model and its marginals pickle as a handful of arrays.  :class:`VariableInfo`
objects are views, built when a caller asks for one.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from repro.dataset.dataset import Cell
from repro.engine.ops import expand_ranges, take_csr
from repro.inference.numerics import segment_argmax


@dataclass
class VariableInfo:
    """One grounded random variable, materialised from its block's columns."""

    vid: int
    cell: Cell
    domain: list[str]
    init_index: int  # position of the observed initial value, -1 if absent
    is_evidence: bool

    @property
    def observed_index(self) -> int:
        """Training label for evidence variables (their observed value)."""
        if not self.is_evidence:
            raise ValueError(f"variable {self.vid} is not evidence")
        if self.init_index < 0:
            raise ValueError(
                f"evidence variable {self.vid} lacks its observed value in its domain"
            )
        return self.init_index

    @property
    def domain_size(self) -> int:
        return len(self.domain)

    def candidate_index(self, value: str) -> int | None:
        try:
            return self.domain.index(value)
        except ValueError:
            return None


class CellColumns:
    """Cells in insertion order with their candidate domains, as columns.

    Row ``i`` is the cell ``(tids[i], attributes[attribute_codes[i]])``; its
    candidates are ``domain_codes[domain_indptr[i] : domain_indptr[i + 1]]``,
    codes into ``tables[attribute_codes[i]]``.  ``value_tables`` seeds
    ``attributes`` and ``tables`` — given a ``ColumnStore``'s dictionaries, a
    value present in the data keeps the store's code — and any other value
    or attribute extends them, so decoding needs no engine.  A pickle holds
    the arrays and the tables; the cell lookup is rebuilt on demand.
    Appending copies the columns: register rows a block at a time.
    """

    def __init__(self, value_tables: Mapping[str, list[str]] | None = None):
        self.attributes: list[str] = list(value_tables or ())
        self.tables = [list(value_tables[a]) for a in self.attributes]  # code → value
        self.tids = np.empty(0, dtype=np.int64)
        self.attribute_codes = np.empty(0, dtype=np.int32)
        self.domain_indptr = np.zeros(1, dtype=np.int64)
        self.domain_codes = np.empty(0, dtype=np.int32)

    #: Caches, built on first use and never pickled.  Class attributes, so
    #: an instance unpickled from a state without them starts them empty.
    _cells: list[Cell] | None = None  # row → Cell: the one pool of Cells
    _search: tuple | None = None  # the sorted keys :meth:`rows_of` searches

    def __getstate__(self) -> dict:
        return {**vars(self), "_cells": None, "_search": None}

    def append(self, tids, attribute_codes, indptr, codes, **columns) -> range:
        """Append cells ``(tids[k], attributes[attribute_codes[k]])`` with
        candidates ``codes[indptr[k] : indptr[k + 1]]`` (``columns``: a
        subclass's per-row arrays) and return their ids."""
        rows = range(len(self), len(self) + len(tids))
        columns.update(
            tids=np.asarray(tids, dtype=np.int64),
            attribute_codes=np.asarray(attribute_codes, dtype=np.int32),
            domain_indptr=self.domain_indptr[-1] + np.asarray(indptr[1:], np.int64),
            domain_codes=np.asarray(codes, dtype=np.int32),
        )
        for name, block in columns.items():
            setattr(self, name, np.concatenate((getattr(self, name), block)))
        self._cells = self._search = None
        return rows

    def take(self, rows=None) -> tuple[np.ndarray, ...]:
        """``rows`` (default: all, the columns themselves) as :meth:`append`
        takes them."""
        csr = self.domain_indptr, self.domain_codes
        if rows is None:
            return self.tids, self.attribute_codes, *csr
        return self.tids[rows], self.attribute_codes[rows], *take_csr(*csr, rows)

    def encode(self, cells, domains) -> tuple[np.ndarray, ...]:
        """``cells`` and their candidate lists as :meth:`append` takes them.

        An attribute or a value the tables lack extends them.
        """
        names = [cell.attribute for cell in cells]
        for name in dict.fromkeys(names):
            if name not in self.attributes:
                self.attributes.append(name)
                self.tables.append([])
        code_of = {name: code for code, name in enumerate(self.attributes)}
        attrs = np.fromiter(map(code_of.get, names), np.int32, len(names))
        sizes = np.fromiter(map(len, domains), np.int64, len(domains))
        flat = np.array(list(chain.from_iterable(domains)), dtype=object)
        owner = np.repeat(attrs, sizes)
        codes = np.empty(len(flat), dtype=np.int32)
        for attr in np.flatnonzero(np.bincount(attrs)).tolist():
            table = self.tables[attr]
            book = {value: code for code, value in enumerate(table)}
            where = np.flatnonzero(owner == attr)
            codes[where] = [book.setdefault(v, len(book)) for v in flat[where].tolist()]
            table.extend(islice(book, len(table), None))  # values first seen here
        tids = np.fromiter((cell.tid for cell in cells), np.int64, len(cells))
        return tids, attrs, np.concatenate(([0], np.cumsum(sizes))), codes

    def _pool(self) -> list[Cell]:
        """Row → ``Cell``, built once: every reader shares these objects."""
        if self._cells is None:
            names = map(self.attributes.__getitem__, self.attribute_codes.tolist())
            self._cells = list(map(Cell._make, zip(self.tids.tolist(), names)))
        return self._cells

    def rows_of(self, cells) -> np.ndarray:
        """The row of each of ``cells`` — ``(tid, attribute)`` pairs — or
        ``-1`` for a cell without one, by binary search over the sorted
        ``(tid, attribute code)`` keys: the cell lookup of every reader."""
        width = max(len(self.attributes), 1)
        if self._search is None or self._search[0] != width:
            keys = self.tids * width + self.attribute_codes
            order = np.argsort(keys, kind="stable")
            code_of = {name: code for code, name in enumerate(self.attributes)}
            self._search = width, order, keys[order], code_of
        _, order, keys, code_of = self._search
        pairs = [(tid, code_of.get(attribute, -1)) for tid, attribute in cells]
        tids, codes = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        if not len(keys):
            return np.full(len(codes), -1, dtype=np.int64)
        wanted = tids * width + codes
        at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        return np.where((codes >= 0) & (keys[at] == wanted), order[at], -1)

    def row_of(self, cell) -> int:
        """The row of one cell; ``KeyError`` if it has none or is no cell."""
        try:
            (row,) = self.rows_of([cell]).tolist()
        except (TypeError, ValueError):
            row = -1
        if row < 0:
            raise KeyError(cell)
        return row

    def __len__(self) -> int:
        return len(self.tids)

    def attribute_code(self, attribute: str) -> int:
        """The code ``attribute_codes`` holds for ``attribute`` (``-1``: unknown)."""
        return self.attributes.index(attribute) if attribute in self.attributes else -1

    def cells_of(self, rows=None) -> list[Cell]:
        """The cells of ``rows`` (default: all), in that order."""
        cells = self._pool()
        if rows is None:
            return list(cells)
        return list(map(cells.__getitem__, np.asarray(rows, dtype=np.int64).tolist()))

    def domain_of(self, row: int) -> list[str]:
        """The decoded candidate list of one row."""
        table = self.tables[self.attribute_codes[row]]
        lo, hi = self.domain_indptr[row : row + 2]
        return [table[code] for code in self.domain_codes[lo:hi].tolist()]

    def domains_of(self, rows=None) -> list[list[str]]:
        """Decoded candidate lists of ``rows`` (default: all).

        One gather through the concatenated value tables, then one slice
        per row — every list is fresh, so callers may keep it.
        """
        rows = np.arange(len(self)) if rows is None else np.asarray(rows, np.int64)
        sizes = self.domain_indptr[rows + 1] - self.domain_indptr[rows]
        first = np.cumsum([0, *map(len, self.tables)])[self.attribute_codes[rows]]
        table = np.array(list(chain.from_iterable(self.tables)), dtype=object)
        entries = expand_ranges(self.domain_indptr[rows], sizes)
        flat = table[np.repeat(first, sizes) + self.domain_codes[entries]].tolist()
        cuts = np.concatenate(([0], np.cumsum(sizes))).tolist()
        return [flat[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


class DomainRelation(CellColumns, Mapping):
    """``Domain(t, a, d)`` as a read-only ``Mapping[Cell, list[str]]``.

    Keys iterate in row order — the order of the mapping it was built from,
    then of the rows appended; a lookup decodes that cell's candidates.
    """

    def __init__(self, value_tables, domains: Mapping[Cell, list[str]] | None = None):
        super().__init__(value_tables)
        if domains:
            self.append(*self.encode(list(domains), list(domains.values())))

    def __getitem__(self, cell: Cell) -> list[str]:
        return self.domain_of(self.row_of(cell))

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells_of())


def as_columns(domains, store) -> CellColumns:
    """Candidate domains as a catalog over ``store``'s dictionaries: its
    attributes and value tables start with the store's, so a value in the
    data keeps its store code.  A :class:`CellColumns` seeded that way is
    returned as it is; any other, a ``Mapping[Cell, list[str]]`` or
    ``(cell, domain)`` pairs are encoded once."""
    tables = {attribute: store.values(attribute) for attribute in store.attributes}
    if isinstance(domains, CellColumns):
        seeded = domains.attributes[: len(tables)] == list(tables) and all(
            table[: len(values)] == values
            for table, values in zip(domains.tables, tables.values())
        )
        if seeded:
            return domains
        domains = zip(domains.cells_of(), domains.domains_of())
    return DomainRelation(tables, dict(domains))


class VariableBlock(CellColumns):
    """The variables of a grounded model: variable ``vid`` is row ``vid``.

    Adds ``init_index`` and ``is_evidence`` per variable.  ``block[vid]``,
    iteration and :meth:`by_cell` build :class:`VariableInfo` views;
    set-at-a-time readers take the arrays.
    """

    def __init__(self, value_tables: Mapping[str, list[str]] | None = None):
        super().__init__(value_tables)
        self.init_index = np.empty(0, dtype=np.int64)
        self.is_evidence = np.empty(0, dtype=bool)

    def add(
        self, cell: Cell, domain: list[str], init_index: int, is_evidence: bool
    ) -> VariableInfo:
        (vid,) = self.add_block([cell], [domain], [init_index], is_evidence)
        return VariableInfo(vid, cell, domain, init_index, is_evidence)

    def add_block(
        self,
        cells: list[Cell],
        domains: list[list[str]],
        init_indices: list[int],
        is_evidence: bool,
    ) -> range:
        """Register a block of variables; returns their ids, assigned in
        order.  The cell pool keeps the caller's ``Cell`` objects."""
        if not len(cells) == len(domains) == len(init_indices):
            raise ValueError("add_block arguments must align")
        pool = self._pool()
        vids = self.append(*self.encode(cells, domains), init_indices, is_evidence)
        self._cells = pool + list(cells)
        return vids

    def append(
        self, tids, attribute_codes, indptr, codes, init_index, is_evidence: bool
    ) -> range:
        """Register a block of variables given in codes (see
        :meth:`CellColumns.append`); a cell that already has one is refused."""
        width = max(len(self.attributes), 1)
        attrs = np.concatenate((self.attribute_codes, attribute_codes))
        keys, counts = np.unique(
            np.concatenate((self.tids, tids)) * width + attrs, return_counts=True
        )
        if (counts > 1).any():
            tid, code = divmod(int(keys[counts > 1][0]), width)
            cell = Cell(tid, self.attributes[code])
            raise ValueError(f"duplicate variable for cell {cell}")
        flags = np.full(len(tids), is_evidence, dtype=bool)
        init_index = np.asarray(init_index, dtype=np.int64)
        columns = dict(init_index=init_index, is_evidence=flags)
        return super().append(tids, attribute_codes, indptr, codes, **columns)

    def __getitem__(self, vid: int) -> VariableInfo:
        vid = range(len(self))[vid]
        cell = Cell(int(self.tids[vid]), self.attributes[self.attribute_codes[vid]])
        init, evidence = int(self.init_index[vid]), bool(self.is_evidence[vid])
        return VariableInfo(vid, cell, self.domain_of(vid), init, evidence)

    def __iter__(self) -> Iterator[VariableInfo]:
        columns = (self.init_index.tolist(), self.is_evidence.tolist())
        rows = zip(range(len(self)), self.cells_of(), self.domains_of(), *columns)
        return (VariableInfo(*row) for row in rows)

    def by_cell(self, cell: Cell) -> VariableInfo | None:
        try:
            return self[self.row_of(cell)]
        except KeyError:
            return None

    def evidence_ids(self) -> list[int]:
        return np.flatnonzero(self.is_evidence).tolist()

    def query_ids(self) -> list[int]:
        return np.flatnonzero(~self.is_evidence).tolist()


class Marginals(Mapping):
    """Per-variable marginals over one buffer, as a ``Mapping[int, ndarray]``.

    ``probs[offsets[k] : offsets[k + 1]]`` is the distribution of variable
    ``var_ids[k]``; lookups hand out views of ``probs``, keys iterate in
    ``var_ids`` order, and a pickle holds the three arrays.
    """

    def __init__(self, var_ids: np.ndarray, offsets: np.ndarray, probs: np.ndarray):
        self.var_ids, self.offsets, self.probs = var_ids, offsets, probs
        self._position: dict[int, int] | None = None  # variable → k, on first read

    def __reduce__(self):
        return Marginals, (self.var_ids, self.offsets, self.probs)

    def __len__(self) -> int:
        return len(self.var_ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self.var_ids.tolist())

    def __getitem__(self, vid: int) -> np.ndarray:
        if self._position is None:
            self._position = dict(zip(self.var_ids.tolist(), range(len(self))))
            self._cuts = self.offsets.tolist()
        k = self._position[vid]
        return self.probs[self._cuts[k] : self._cuts[k + 1]]

    def slots(self, vids) -> np.ndarray:
        """The position ``k`` of each of ``vids``; ``KeyError`` for a
        variable without a marginal."""
        vids = np.asarray(vids, dtype=np.int64)
        if not len(vids):
            return np.empty(0, dtype=np.int64)
        slot = np.full(max(self.var_ids.max(initial=-1), vids.max()) + 1, -1)
        slot[self.var_ids] = np.arange(len(self.var_ids))
        k = slot[vids]
        if (k < 0).any():
            raise KeyError(int(vids[k < 0][0]))
        return k

    def argmax(self, vids) -> tuple[np.ndarray, np.ndarray]:
        """Per variable of ``vids``, the index of its most probable value and
        that probability as ``float64``, in one pass over the buffer.

        Ties and NaNs follow :func:`~repro.inference.numerics.segment_argmax`
        (``np.argmax``'s rule); a variable without a marginal raises
        ``KeyError``, an empty marginal ``ValueError``.
        """
        k = self.slots(vids)
        starts = self.offsets[k]
        sizes = self.offsets[k + 1] - starts
        values = self.probs[expand_ranges(starts, sizes)]
        cuts = np.concatenate(([0], np.cumsum(sizes)))
        index = segment_argmax(values, cuts)
        return index, values[cuts[:-1] + index].astype(np.float64)
