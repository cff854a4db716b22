"""Tied weights and sparse per-candidate feature storage.

DeepDive's inference rules carry *parameterised weights* — e.g.
``weight = w(d, f)`` ties one learnable scalar to every distinct
``(candidate value, feature)`` combination.  :class:`FeatureSpace` maps
arbitrary hashable weight keys to dense indices; :class:`FeatureMatrix`
stores, for every (variable, candidate) row, the sparse vector of feature
values that ground the unary rules of Section 4.2.

A weight is named by its key; its index is storage.  The one ordering
decision lives in :meth:`FeatureMatrixBuilder.build`: a row holds its
entries in the order they were handed to the builder.  The entries are
laid out by a counting sort — per-row counts, one cumulative sum, one
scatter per handed-in chunk — so no sort runs over the entry set.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.engine.ops import bucket_extents, expand_ranges


class FeatureSpace:
    """Bidirectional mapping between weight keys and dense indices.

    Some weights are *fixed constants* rather than learnable parameters —
    the minimality prior ("weight w is a positive constant indicating the
    strength of this prior", Section 4.2) and Algorithm 1's constant DC
    factor weight.  :meth:`set_fixed` pins such weights; trainers must
    initialise them to the pinned value and exclude them from updates.

    Indices are handed out in the order keys first reach :meth:`index`.
    The production featurizer allocates them in emission order: indices
    follow :class:`~repro.core.vector_featurize.VectorFeaturizer`'s family
    order, then the family's emission order, then the batch's key list; a
    key with no non-zero entry gets no index.  The order is otherwise an
    internal detail — two models are equal when they agree after
    relabelling indices through their keys — and :meth:`freeze` fixes it
    once the matrix is built.
    """

    def __init__(self):
        self._index: dict[Hashable, int] = {}
        self._keys: list[Hashable] = []
        self._fixed: dict[int, float] = {}
        self._frozen = False

    def index(self, key: Hashable) -> int:
        """Index for ``key``, allocating a new one unless frozen."""
        idx = self._index.get(key)
        if idx is None:
            if self._frozen:
                raise KeyError(f"feature space is frozen; unknown key {key!r}")
            idx = len(self._keys)
            self._index[key] = idx
            self._keys.append(key)
        return idx

    def get(self, key: Hashable) -> int | None:
        return self._index.get(key)

    def key(self, idx: int) -> Hashable:
        return self._keys[idx]

    def set_fixed(self, key: Hashable, value: float) -> int:
        """Pin ``key``'s weight to a constant; returns its index."""
        idx = self.index(key)
        self._fixed[idx] = float(value)
        return idx

    @property
    def fixed_weights(self) -> dict[int, float]:
        """Index → pinned value for all constant weights."""
        return dict(self._fixed)

    def freeze(self) -> None:
        """Disallow new keys (the compiler does, once the matrix is built)."""
        self._frozen = True

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._index


class FeatureMatrix:
    """Immutable CSR-ish storage of per-(variable, candidate) features.

    Attributes
    ----------
    var_row_start:
        ``int64[num_vars + 1]`` — rows of variable ``v`` are
        ``var_row_start[v] : var_row_start[v+1]``; row order follows
        candidate order.
    indices / values / row_ptr:
        Flat sparse entries: row ``r`` owns entries
        ``row_ptr[r] : row_ptr[r+1]``.

    Three rules bound what a matrix holds.  (1) A tied weight multiplies
    the *sum* of its values on a row, so the production featurizers emit
    one entry per (row, weight key); a repeated pair stays legal and
    means the sum (older checkpoints hold some).  (2) A variable with one
    candidate keeps its row and carries no entries: its softmax is
    ``[1.0]`` whatever the score.  (3) Nothing entry-sized is stored
    beside ``indices`` and ``values``; row ids derive from ``row_ptr``.
    """

    def __init__(
        self,
        var_row_start: np.ndarray,
        indices: np.ndarray,
        values: np.ndarray,
        row_ptr: np.ndarray,
        num_features: int,
    ):
        self.var_row_start = var_row_start
        self.indices = indices
        self.values = values
        self.row_ptr = row_ptr
        self.num_features = num_features

    @property
    def num_vars(self) -> int:
        return len(self.var_row_start) - 1

    @property
    def num_rows(self) -> int:
        return len(self.row_ptr) - 1

    @property
    def num_entries(self) -> int:
        return len(self.indices)

    def entry_row_ids(self) -> np.ndarray:
        """Row id of every sparse entry (computed on each call)."""
        return np.repeat(
            np.arange(self.num_rows, dtype=np.int64), np.diff(self.row_ptr)
        )

    def entries_of(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Storage positions of the given rows' entries, row after row in
        the given order, and each entry's position in ``rows``."""
        counts = self.row_ptr[rows + 1] - self.row_ptr[rows]
        return (
            expand_ranges(self.row_ptr[rows], counts),
            np.repeat(np.arange(len(rows), dtype=np.int64), counts),
        )

    def scores(self, weights: np.ndarray) -> np.ndarray:
        """θ·x per row: the unary potential of every candidate."""
        return self.scores_for_rows(np.arange(self.num_rows), weights)

    def scores_for_rows(self, rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """θ·x for the given rows only, in the given row order.

        Gathers just those rows' sparse entries instead of scoring the
        whole matrix — the marginal-inference fast path when only a few
        query variables are requested.  Per-row entries are summed in
        storage order, whichever rows are asked for.
        """
        if len(weights) != self.num_features:
            raise ValueError(
                f"weight vector has {len(weights)} entries, "
                f"feature space has {self.num_features}"
            )
        source, compact_ids = self.entries_of(np.asarray(rows, dtype=np.int64))
        contributions = weights[self.indices[source]] * self.values[source]
        # ``astype`` matters without entries only: bincount then counts ints.
        return np.bincount(
            compact_ids, weights=contributions, minlength=len(rows)
        ).astype(np.float64, copy=False)


class FeatureMatrixBuilder:
    """Incremental builder used during grounding.

    Usage::

        builder = FeatureMatrixBuilder(space)
        v = builder.start_variable(num_candidates)
        builder.add(v, candidate_index, key, value)
        matrix = builder.build()

    Row ``var_row_start[v] + c`` is candidate ``c`` of variable ``v``.
    Entries are stored as chunks ``(rows, key indices, values)`` in
    hand-in order: :meth:`add_rows` takes a chunk as it stands (the
    vectorized featurizer's path), and :meth:`add` buffers one entry at a
    time until the next chunk or :meth:`build`.  :meth:`build` is a counting
    sort: each row holds its entries in the order they were handed in.
    """

    def __init__(self, space: FeatureSpace):
        self.space = space
        self._var_sizes: list[int] = []
        self._row_start: np.ndarray | None = None
        #: Entry chunks ``(rows, key indices, values)`` in hand-in order.
        self._chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        #: Per-entry :meth:`add` calls not yet turned into a chunk.
        self._pending: list[tuple[int, int, int, float]] = []

    def start_variable(self, num_candidates: int) -> int:
        """Register a variable with the given domain size; returns its id."""
        return self.start_variables([num_candidates])

    def start_variables(self, sizes: list[int]) -> int:
        """Register a block of variables at once; returns the first id.

        Ids are contiguous from the returned first id, letting the
        compiler lay out a whole query / evidence block without one
        Python call per variable.
        """
        sizes = [int(size) for size in sizes]
        if any(size <= 0 for size in sizes):
            raise ValueError("variables need at least one candidate")
        first = len(self._var_sizes)
        self._var_sizes.extend(sizes)
        self._row_start = None
        return first

    @property
    def var_row_start(self) -> np.ndarray:
        """``int64[num_vars + 1]``: the first row of every variable."""
        if self._row_start is None:
            start = np.zeros(len(self._var_sizes) + 1, dtype=np.int64)
            np.cumsum(self._var_sizes, out=start[1:])
            self._row_start = start
        return self._row_start

    def add(self, var: int, candidate: int, key, value: float) -> None:
        """Attach ``feature(key) = value`` to one candidate of a variable."""
        if not 0 <= candidate < self._var_sizes[var]:
            raise IndexError(
                f"candidate {candidate} out of range for variable {var} "
                f"(domain size {self._var_sizes[var]})"
            )
        self._pending.append((var, candidate, self.space.index(key), float(value)))

    def _flush_pending(self) -> None:
        """Turn the :meth:`add` calls so far into one chunk."""
        if self._pending:
            var, cand, key_idx, values = zip(*self._pending)
            rows = self.var_row_start[np.asarray(var, dtype=np.int64)]
            self._chunks.append(
                (
                    rows + np.asarray(cand, dtype=np.int64),
                    np.asarray(key_idx, dtype=np.int64),
                    np.asarray(values, dtype=np.float64),
                )
            )
            self._pending = []

    def add_rows(
        self, rows: np.ndarray, key_idx: np.ndarray, values: np.ndarray
    ) -> None:
        """Attach one chunk of entries by matrix row (the vectorized path).

        ``key_idx`` holds feature-space indices the caller allocated.  The
        arrays are kept, not copied; a chunk whose rows ascend is laid out
        without a sort, any other gets one stable sort of its own at
        :meth:`build`.  Entries keep their chunk order inside each row,
        after everything handed in before this call.
        """
        rows = np.asarray(rows, dtype=np.int64)
        key_idx = np.asarray(key_idx, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if not (len(rows) == len(key_idx) == len(values)):
            raise ValueError("add_rows arrays must align")
        if not len(rows):
            return
        if int(rows.min()) < 0 or int(rows.max()) >= self.var_row_start[-1]:
            raise IndexError("a row is outside the matrix")
        if int(key_idx.min()) < 0 or int(key_idx.max()) >= len(self.space):
            raise IndexError("feature index outside the feature space")
        self._flush_pending()
        self._chunks.append((rows, key_idx, values))

    @property
    def num_vars(self) -> int:
        return len(self._var_sizes)

    def build(self) -> FeatureMatrix:
        """Lay the chunks out as CSR by a counting sort.

        Each chunk's run heads give its per-row counts, one cumulative sum
        gives ``row_ptr``, and each chunk scatters at a per-row cursor into
        the preallocated ``indices`` / ``values`` — the layout a stable
        sort of every entry by row would give, without that sort.
        """
        self._flush_pending()
        var_row_start = self.var_row_start
        num_rows = int(var_row_start[-1])
        chunks = [_row_sorted(*chunk) for chunk in self._chunks]
        runs = [bucket_extents(rows) for rows, _, _ in chunks]
        counts = np.zeros(num_rows, dtype=np.int64)
        for (rows, _, _), (heads, run_sizes) in zip(chunks, runs):
            counts[rows[heads]] += run_sizes  # a chunk's run rows are distinct
        row_ptr = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=row_ptr[1:])
        indices = np.empty(int(row_ptr[-1]), dtype=np.int64)
        values = np.empty(len(indices), dtype=np.float64)
        cursor = row_ptr[:-1].copy()
        for (rows, key_idx, vals), (heads, run_sizes) in zip(chunks, runs):
            run_rows = rows[heads]
            dest = np.repeat(cursor[run_rows] - heads, run_sizes)
            dest += np.arange(len(rows), dtype=np.int64)
            indices[dest] = key_idx
            values[dest] = vals
            cursor[run_rows] += run_sizes
        return FeatureMatrix(
            var_row_start, indices, values, row_ptr, num_features=len(self.space)
        )


def _row_sorted(
    rows: np.ndarray, key_idx: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The chunk as it stands when its rows ascend, else stable-sorted by row."""
    if np.any(rows[1:] < rows[:-1]):
        order = np.argsort(rows, kind="stable")
        return rows[order], key_idx[order], values[order]
    return rows, key_idx, values
