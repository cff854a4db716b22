"""Columnar relation store: integer-coded NumPy columns with value dictionaries.

HoloClean's original system grounds its model inside a DBMS, where every
relational operator works over columns, not Python objects.  The
:class:`ColumnStore` is the equivalent substrate here: a view of a
:class:`~repro.dataset.dataset.Dataset`'s own storage, one ``int32``
NumPy column per attribute (``-1`` encodes NULL) plus its value table, so
that joins, group-bys and frequency counts are array operations on small
integers and building a store encodes nothing.

Codes are in first-seen row order (the dataset's canonical form),
matching the order in which ``Dataset.active_domain`` and the oracle's
row-scan counters encounter values — this keeps engine-produced
artifacts byte-compatible with the naive oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dataset.dataset import Cell, Dataset
from repro.engine.ops import expand_ranges
from repro.engine.space import CodeSpace


@dataclass(frozen=True)
class DomainCodeIndex:
    """CSR candidate-code lists per tuple for one attribute.

    ``codes[indptr[t]:indptr[t + 1]]`` are the codes of the values cell
    ``(t, attribute)`` may take under a set of pruned candidate domains —
    the join-feasibility side of Algorithm 1's grounding query.  Built by
    :meth:`ColumnStore.candidate_index` from a catalog's CSR of candidate
    codes in a code space's codes (:meth:`CodeSpace.csr
    <repro.engine.space.CodeSpace.csr>`), or from string-keyed domains in
    the attribute's own codes by :meth:`ColumnStore.domain_code_index`.
    """

    indptr: np.ndarray
    codes: np.ndarray


class ColumnStore:
    """Dictionary-encoded columnar view of one :class:`Dataset`.

    The dataset stores its attributes as code columns and value tables
    already; the store holds those arrays, in their canonical form
    (:meth:`Dataset.encoded`), so building one encodes nothing.  It is a
    snapshot: a later write to the dataset copies the column it changes
    first, so the store keeps the values it was built over.  Callers that
    mutate the dataset must build a fresh store (see
    :meth:`Engine.refresh <repro.engine.Engine.refresh>`).
    """

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        self.attributes: list[str] = list(dataset.schema.names)
        self._num_rows = dataset.num_tuples
        self._codes: dict[str, np.ndarray] = {}
        self._values: dict[str, list[str]] = {}
        for attribute in self.attributes:
            codes, values = dataset.encoded(attribute)
            self._codes[attribute], self._values[attribute] = codes, values
        self._spaces: dict[tuple[str, ...], CodeSpace] = {}

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return self._num_rows

    def codes(self, attribute: str) -> np.ndarray:
        """The encoded column of ``attribute`` (``-1`` = NULL)."""
        return self._codes[attribute]

    def values(self, attribute: str) -> list[str]:
        """The value dictionary: ``values[code]`` is the decoded string."""
        return self._values[attribute]

    def cardinality(self, attribute: str) -> int:
        """Number of distinct non-NULL values of ``attribute``."""
        return len(self._values[attribute])

    def decode(self, attribute: str, code: int) -> str | None:
        return None if code < 0 else self._values[attribute][code]

    def decoded_column(self, attribute: str) -> list[str | None]:
        """The whole column decoded back to Python values."""
        decoder = np.array([*self._values[attribute], None], dtype=object)
        return decoder[self._codes[attribute]].tolist()

    # ------------------------------------------------------------------
    # Comparable codes
    # ------------------------------------------------------------------
    def space(self, *attributes: str) -> CodeSpace:
        """The store-level :class:`~repro.engine.space.CodeSpace` of
        ``attributes``: one codebook over their values, in which equal
        strings get equal codes and NULL stays ``-1``.  Cached per sorted
        attribute tuple, so both argument orders give the same space."""
        key = tuple(sorted(set(attributes)))
        space = self._spaces.get(key)
        if space is None:
            space = self._spaces[key] = CodeSpace(self, key)
        return space

    # ------------------------------------------------------------------
    # Candidate-domain indexing (DC-factor grounding)
    # ------------------------------------------------------------------
    def candidate_index(
        self,
        attribute: str,
        tids: np.ndarray,
        indptr: np.ndarray,
        codes: np.ndarray,
        lut: np.ndarray,
    ) -> DomainCodeIndex:
        """The cell→domain-codes index for one attribute, from a CSR of cells.

        Row ``t`` lists the candidates of cell ``(t, attribute)``:
        ``codes[indptr[k] : indptr[k + 1]]`` for the ``k`` with ``tids[k] ==
        t`` (the pruned domain of a query cell, in domain order), else the
        stored value (an evidence cell's initial value; nothing when NULL) —
        the naive enumerator's per-cell candidate scan.  ``codes`` index this
        attribute's dictionary, extended past it for candidates outside the
        data, and ``lut`` maps that extended dictionary into the code space
        of the index: one gather per side, no per-cell step.
        """
        column = self._codes[attribute]
        sizes = np.diff(indptr)
        stored = column >= 0
        counts = stored.astype(np.int64)
        counts[tids] = sizes
        stored[tids] = False
        out_indptr = np.concatenate(([0], np.cumsum(counts)))
        out = np.empty(int(out_indptr[-1]), dtype=np.int64)
        out[out_indptr[:-1][stored]] = lut[column[stored]]
        out[expand_ranges(out_indptr[tids], sizes)] = lut[codes]
        return DomainCodeIndex(indptr=out_indptr, codes=out)

    def domain_code_index(
        self, attribute: str, domains: dict[Cell, list[str]]
    ) -> DomainCodeIndex:
        """:meth:`candidate_index` over the cells of ``attribute`` in ``domains``.

        The string-keyed entry point: each candidate list is encoded once
        into the attribute's dictionary, extended past it for candidate
        values absent from the data.
        """
        values = self._values[attribute]
        book = dict(zip(values, range(len(values))))
        mine = [(c.tid, d) for c, d in domains.items() if c.attribute == attribute]
        flat = [book.setdefault(v, len(book)) for _, d in mine for v in d]
        return self.candidate_index(
            attribute,
            np.array([tid for tid, _ in mine], dtype=np.int64),
            np.cumsum([0, *(len(d) for _, d in mine)], dtype=np.int64),
            np.array(flat, dtype=np.int64),
            np.arange(len(book), dtype=np.int64),
        )

    def __repr__(self) -> str:
        return f"ColumnStore(rows={self.num_rows}, attributes={len(self.attributes)})"
