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

from repro.dataset.dataset import NULL_CODE, Cell, Dataset
from repro.engine.ops import expand_ranges


@dataclass(frozen=True)
class DomainCodeIndex:
    """CSR candidate-code lists per tuple for one attribute.

    ``codes[indptr[t]:indptr[t + 1]]`` are the codes of the values cell
    ``(t, attribute)`` may take under a set of pruned candidate domains —
    the join-feasibility side of Algorithm 1's grounding query.  Built by
    :meth:`ColumnStore.candidate_index` from a catalog's CSR of candidate
    codes (:class:`~repro.core.factor_tables.CodeSpace`), or from
    string-keyed domains by :meth:`ColumnStore.domain_code_index`.
    """

    indptr: np.ndarray
    codes: np.ndarray

    @property
    def num_rows(self) -> int:
        return len(self.indptr) - 1

    def row(self, tid: int) -> np.ndarray:
        return self.codes[self.indptr[tid] : self.indptr[tid + 1]]


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
        self._code_of: dict[str, dict[str, int]] = {}
        self._shared: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}

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

    def _codebook(self, attribute: str) -> dict[str, int]:
        """Value → code of ``attribute``, built on first use."""
        book = self._code_of.get(attribute)
        if book is None:
            values = self._values[attribute]
            book = self._code_of[attribute] = dict(zip(values, range(len(values))))
        return book

    def code_of(self, attribute: str, value: str) -> int:
        """The code of ``value`` in ``attribute`` (``-1`` if absent)."""
        return self._codebook(attribute).get(value, NULL_CODE)

    def decode(self, attribute: str, code: int) -> str | None:
        return None if code < 0 else self._values[attribute][code]

    def decoded_column(self, attribute: str) -> list[str | None]:
        """The whole column decoded back to Python values."""
        decoder = np.array([*self._values[attribute], None], dtype=object)
        return decoder[self._codes[attribute]].tolist()

    # ------------------------------------------------------------------
    # Cross-attribute comparison
    # ------------------------------------------------------------------
    def shared_codes(self, attr_a: str, attr_b: str) -> tuple[np.ndarray, np.ndarray]:
        """Both columns re-coded over one shared dictionary.

        Per-attribute codes are only comparable within their own column;
        predicates like ``t1.A = t2.B`` need codes drawn from a dictionary
        covering ``values(A) ∪ values(B)``.  Equal strings map to equal
        shared codes; NULL stays ``-1``.  Results are cached per pair.
        """
        if attr_a == attr_b:
            col = self._codes[attr_a]
            return col, col
        key = (attr_a, attr_b) if attr_a <= attr_b else (attr_b, attr_a)
        cached = self._shared.get(key)
        if cached is None:
            union: dict[str, int] = {}
            luts = []
            for attr in key:
                lut = np.empty(len(self._values[attr]), dtype=np.int64)
                for code, value in enumerate(self._values[attr]):
                    shared = union.setdefault(value, len(union))
                    lut[code] = shared
                luts.append(lut)
            cols = []
            for attr, lut in zip(key, luts):
                codes = self._codes[attr]
                out = np.full(len(codes), NULL_CODE, dtype=np.int64)
                valid = codes >= 0
                out[valid] = lut[codes[valid]]
                cols.append(out)
            cached = (cols[0], cols[1])
            self._shared[key] = cached
        if (attr_a, attr_b) == key:
            return cached
        return cached[1], cached[0]

    # ------------------------------------------------------------------
    # Candidate-domain indexing (DC-factor grounding)
    # ------------------------------------------------------------------
    def union_codebook(self, *attributes: str) -> dict[str, int]:
        """A value→code dictionary covering several attributes' values.

        Codes follow the first attribute's dictionary order, then each
        later attribute's yet-unseen values; equal strings always map to
        equal codes, which is what cross-attribute join predicates
        (``t1.A = t2.B``) need.
        """
        book: dict[str, int] = {}
        for attr in attributes:
            for value in self._values[attr]:
                book.setdefault(value, len(book))
        return book

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
        self,
        attribute: str,
        domains: dict[Cell, list[str]],
        codebook: dict[str, int] | None = None,
    ) -> DomainCodeIndex:
        """:meth:`candidate_index` over the cells of ``attribute`` in ``domains``.

        The string-keyed entry point: each candidate list is encoded once
        into the attribute's dictionary.  Codes are drawn from ``codebook``
        (default: this attribute's own dictionary); candidate values absent
        from it extend it *in place*, so two indexes built over one shared
        codebook — e.g. via :meth:`union_codebook` for a cross-attribute join
        — stay in one code space.
        """
        if codebook is None:
            codebook = dict(self._codebook(attribute))
        extended = dict(self._codebook(attribute))
        mine = [
            (cell.tid, domain)
            for cell, domain in domains.items()
            if cell.attribute == attribute
        ]
        flat = [extended.setdefault(v, len(extended)) for _, d in mine for v in d]
        lut = [codebook.setdefault(value, len(codebook)) for value in extended]
        return self.candidate_index(
            attribute,
            np.array([tid for tid, _ in mine], dtype=np.int64),
            np.cumsum([0, *(len(d) for _, d in mine)], dtype=np.int64),
            np.array(flat, dtype=np.int64),
            np.array(lut, dtype=np.int64),
        )

    def __repr__(self) -> str:
        return f"ColumnStore(rows={self.num_rows}, attributes={len(self.attributes)})"
