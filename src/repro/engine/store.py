"""Columnar relation store: integer-coded NumPy columns with value dictionaries.

HoloClean's original system grounds its model inside a DBMS, where every
relational operator works over columns, not Python objects.  The
:class:`ColumnStore` is the equivalent substrate here: each attribute of a
:class:`~repro.dataset.dataset.Dataset` is dictionary-encoded once into an
``int32`` NumPy column (``-1`` encodes NULL) so that joins, group-bys and
frequency counts become array operations on small integers.

Codes are assigned in first-seen row order, matching the order in which
the naive code paths (``Dataset.active_domain``, ``Statistics.counts``)
encounter values — this keeps engine-produced artifacts byte-compatible
with the naive oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dataset.dataset import Cell, Dataset

#: Code reserved for NULL in every encoded column.
NULL_CODE: int = -1


@dataclass(frozen=True)
class DomainCodeIndex:
    """CSR candidate-code lists per tuple for one attribute.

    ``codes[indptr[t]:indptr[t + 1]]`` are the codes of the values cell
    ``(t, attribute)`` may take under a set of pruned candidate domains —
    the join-feasibility side of Algorithm 1's grounding query.  Built by
    :meth:`ColumnStore.domain_code_index`.
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

    The store is a snapshot: it is built once from the dataset's current
    values and does not observe later mutations.  Callers that mutate the
    dataset must build a fresh store (see :meth:`Engine.refresh
    <repro.engine.Engine.refresh>`).
    """

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        self.attributes: list[str] = list(dataset.schema.names)
        self._codes: dict[str, np.ndarray] = {}
        self._values: dict[str, list[str]] = {}
        self._code_of: dict[str, dict[str, int]] = {}
        self._shared: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}
        self._encode(dataset)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _encode(self, dataset: Dataset) -> None:
        n = dataset.num_tuples
        columns = {a: np.full(n, NULL_CODE, dtype=np.int32) for a in self.attributes}
        dictionaries: dict[str, dict[str, int]] = {a: {} for a in self.attributes}
        names = self.attributes
        for tid in range(n):
            row = dataset.row_ref(tid)
            for i, attr in enumerate(names):
                value = row[i]
                if value is None:
                    continue
                mapping = dictionaries[attr]
                code = mapping.get(value)
                if code is None:
                    code = len(mapping)
                    mapping[value] = code
                columns[attr][tid] = code
        self._codes = columns
        self._code_of = dictionaries
        self._values = {a: list(d) for a, d in dictionaries.items()}

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return self.dataset.num_tuples

    def codes(self, attribute: str) -> np.ndarray:
        """The encoded column of ``attribute`` (``-1`` = NULL)."""
        return self._codes[attribute]

    def values(self, attribute: str) -> list[str]:
        """The value dictionary: ``values[code]`` is the decoded string."""
        return self._values[attribute]

    def cardinality(self, attribute: str) -> int:
        """Number of distinct non-NULL values of ``attribute``."""
        return len(self._values[attribute])

    def code_of(self, attribute: str, value: str) -> int:
        """The code of ``value`` in ``attribute`` (``-1`` if absent)."""
        return self._code_of[attribute].get(value, NULL_CODE)

    def decode(self, attribute: str, code: int) -> str | None:
        return None if code < 0 else self._values[attribute][code]

    def decoded_column(self, attribute: str) -> list[str | None]:
        """The whole column decoded back to Python values."""
        values = self._values[attribute]
        return [None if c < 0 else values[c] for c in self._codes[attribute].tolist()]

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

    def recoded_column(self, attribute: str, codebook: dict[str, int]) -> np.ndarray:
        """The whole column re-coded into ``codebook`` (NULL stays ``-1``).

        Values absent from ``codebook`` extend it in place, the same
        convention as :meth:`domain_code_index` — so fixed-context codes
        and candidate-domain codes drawn from one codebook stay
        comparable.  Used by the vectorized factor-table builder for the
        cells a denial constraint reads at their observed values.
        """
        lut = np.empty(max(len(self._values[attribute]), 1), dtype=np.int64)
        for code, value in enumerate(self._values[attribute]):
            lut[code] = codebook.setdefault(value, len(codebook))
        column = self._codes[attribute]
        out = np.full(len(column), NULL_CODE, dtype=np.int64)
        valid = column >= 0
        out[valid] = lut[column[valid]]
        return out

    def domain_code_index(
        self,
        attribute: str,
        domains: dict[Cell, list[str]],
        codebook: dict[str, int] | None = None,
    ) -> DomainCodeIndex:
        """The cell→domain-codes index for one attribute.

        Row ``t`` lists the codes of the candidate values of cell
        ``(t, attribute)``: the pruned candidate domain for query cells in
        ``domains`` (in domain order), the initial value for evidence
        cells, and nothing for NULL evidence cells — mirroring the naive
        enumerator's per-cell candidate scan exactly.

        Codes are drawn from ``codebook`` (default: this attribute's own
        dictionary); candidate values absent from it extend it *in place*,
        so two indexes built over one shared codebook — e.g. via
        :meth:`union_codebook` for a cross-attribute join — stay in one
        code space.
        """
        if codebook is None:
            codebook = dict(self._code_of[attribute])
        lut = np.empty(max(len(self._values[attribute]), 1), dtype=np.int64)
        for code, value in enumerate(self._values[attribute]):
            lut[code] = codebook.setdefault(value, len(codebook))

        overrides: dict[int, list[int]] = {}
        for cell, domain in domains.items():
            if cell.attribute == attribute:
                overrides[cell.tid] = [
                    codebook.setdefault(v, len(codebook)) for v in domain
                ]

        column = self._codes[attribute]
        counts = (column >= 0).astype(np.int64)
        for tid, domain_codes in overrides.items():
            counts[tid] = len(domain_codes)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        codes = np.empty(int(indptr[-1]), dtype=np.int64)

        evidence = column >= 0
        if overrides:
            tids = np.fromiter(overrides, dtype=np.int64, count=len(overrides))
            evidence[tids] = False
        codes[indptr[:-1][evidence]] = lut[column[evidence]]
        for tid, domain_codes in overrides.items():
            codes[indptr[tid] : indptr[tid + 1]] = domain_codes
        return DomainCodeIndex(indptr=indptr, codes=codes)

    def __repr__(self) -> str:
        return f"ColumnStore(rows={self.num_rows}, attributes={len(self.attributes)})"
