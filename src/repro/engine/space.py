"""Code spaces: the one place values of several columns get comparable codes.

A predicate over two attributes (``t1.A = t2.B``), or a candidate value
against a stored one, needs both sides coded over one dictionary, a
:class:`CodeSpace`.  A space is *store-level* (the data's values, cached
by :meth:`ColumnStore.space <repro.engine.store.ColumnStore.space>`) or
*catalog-bound* (plus a catalog's candidate values absent from the data,
and its candidate index; cached by :class:`CodeSpaces`).  A
single-attribute space is the store's own code space; only a
cross-attribute one merges value tables, in first-seen order: the
store's tables, then the catalog's extensions.
"""

from __future__ import annotations

from itertools import compress, repeat

import numpy as np

from repro.constraints.predicates import CodedValues
from repro.dataset.dataset import NULL_CODE


class CodeSpace(CodedValues):
    """One codebook over the sorted ``attributes`` a predicate compares.

    As :class:`~repro.constraints.predicates.CodedValues`: the code →
    value list and its lazy order keys.  Per attribute: :meth:`fixed`;
    ``luts`` (its own codes — the catalog's, which start with the store's
    — to space codes), except in a store-level single-attribute space;
    and, catalog-bound, the candidate index :meth:`csr`.
    """

    def __init__(self, store, attributes, catalog=None):
        attrs = tuple(sorted(set(attributes)))
        self.attributes = attrs
        if len(attrs) == 1:
            (attr,) = attrs
            values, self.luts = store.values(attr), {}
            if catalog is not None:  # its table, read through the identity
                values = catalog.tables[catalog.attribute_code(attr)]
                self.luts[attr] = np.arange(len(values), dtype=np.int64)
            self._fixed = {attr: store.codes(attr)}
        else:
            tables = [store.values(a) for a in attrs]
            if catalog is not None:
                tables += [
                    catalog.tables[catalog.attribute_code(a)][len(table) :]
                    for a, table in zip(attrs, tables)
                ]
            values, luts = _union(tables)
            width = len(attrs)
            self.luts = {a: np.concatenate(luts[k::width]) for k, a in enumerate(attrs)}
            self._fixed = {a: _recode(store.codes(a), self.luts[a]) for a in attrs}
        # A store-level space keeps no reference to the store that caches it.
        self._source = None if catalog is None else (store, catalog)
        self._csr: dict = {}
        super().__init__(values)

    def fixed(self, attribute: str) -> np.ndarray:
        """The stored column of ``attribute`` in this space's codes."""
        return self._fixed[attribute]

    def csr(self, attribute: str):
        """The catalog's candidates per tuple for ``attribute`` in space
        codes (:meth:`ColumnStore.candidate_index
        <repro.engine.store.ColumnStore.candidate_index>`)."""
        index = self._csr.get(attribute)
        if index is None:
            if self._source is None:
                raise ValueError("a store-level code space has no candidates")
            store, catalog = self._source
            rows = catalog.attribute_codes == catalog.attribute_code(attribute)
            tids, _, indptr, codes = catalog.take(np.flatnonzero(rows))
            index = store.candidate_index(
                attribute, tids, indptr, codes, self.luts[attribute]
            )
            self._csr[attribute] = index
        return index


class CodeSpaces:
    """The catalog-bound code spaces of one catalog, built on first use and
    cached per sorted attribute tuple."""

    def __init__(self, store, catalog):
        self._store, self._catalog = store, catalog
        self._spaces: dict[tuple[str, ...], CodeSpace] = {}

    def __call__(self, *attributes: str) -> CodeSpace:
        key = tuple(sorted(set(attributes)))
        space = self._spaces.get(key)
        if space is None:
            space = self._spaces[key] = CodeSpace(self._store, key, self._catalog)
        return space


def _union(tables: list[list[str]]) -> tuple[list[str], list[np.ndarray]]:
    """The first-seen union of value tables (each free of repeats), and per
    table the lookup table from its positions to union codes."""
    values: list[str] = []
    book: dict[str, int] = {}
    luts = []
    for table in tables:
        lut = np.fromiter(map(book.get, table, repeat(-1)), np.int64, len(table))
        new = lut < 0
        lut[new] = len(values) + np.arange(int(new.sum()))
        added = list(compress(table, new.tolist()))
        book.update(zip(added, range(len(values), len(values) + len(added))))
        values += added
        luts.append(lut)
    return values, luts


def _recode(column: np.ndarray, lut: np.ndarray) -> np.ndarray:
    """``column``'s codes through ``lut``; NULL stays ``-1``."""
    out = np.full(len(column), NULL_CODE, dtype=np.int64)
    valid = column >= 0
    out[valid] = lut[column[valid]]
    return out
