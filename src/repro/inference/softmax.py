"""Weight learning by empirical risk minimisation (Section 2.2).

HoloClean "uses empirical risk minimization (ERM) over the likelihood
log P(T) to compute the parameters of its probabilistic model.  Variables
that correspond to clean cells in D_c are treated as evidence … efficient
methods such as stochastic gradient descent are used to optimize over that
objective."

With the Section 5.2 relaxation the variables are independent, so the
likelihood factorises into one softmax per variable over its candidate
rows, and the objective is convex (as the paper notes).  The trainer below
performs full-batch Adam over the evidence variables — full-batch gradients
of a convex objective converge faster and deterministically at these model
sizes, while remaining a faithful ERM/SGD-family optimiser.

Marginal inference for independent variables is exact: the per-variable
softmax itself (Gibbs sampling over independent variables converges to the
same distribution; we skip the sampling noise).

Layout.  An epoch reads the training rows twice — ``X·θ`` per row, then
``Xᵀ·r`` per feature — and takes one softmax per variable in between, so
:meth:`SoftmaxTrainer.train` packs them once per call
(:meth:`SoftmaxTrainer.pack` → :class:`PackedRows`) and relabels the rows
*candidate-major* (:class:`CandidateMajorRows`): with the training
variables ranked by descending candidate count, candidate ``j`` of every
variable that has one is one contiguous slice, and the softmax is a few
elementwise passes per slice — at most ``max_domain`` slices — instead of
two ``reduceat``s over one segment of 2-6 rows per variable (on a
1,000-row Hospital ``train()`` went from 150 to 104 ms, best of 7 on 2
vCPUs).  The relabel moves row numbers only; blocks, remainder and entry
order are the pack's.  The caller may
say which variables share their feature columns (``groups``; the staged
API passes the cell's attribute).  Per group, every feature column that
has entries on at least a quarter of the group's rows (``DENSE_FILL``)
goes into one row-major ``float64`` block, and the two passes over it are
one BLAS ``gemv`` each; every other entry stays in the sparse triple the
gather / ``bincount`` kernel walks, which the same epoch body always runs
over the (usually empty) remainder.  Without groups everything is
remainder.  The quarter rule is the memory bound: a dense column holds at
least rows / 4 entries, so a block has at most 4 slots per entry packed
into it — 8-byte slots against the 24 bytes per entry of the gathered
triple they replace — and the pack gathers, fills and releases one group
at a time, so no training-set-sized temporary is ever alive.  Grouped by
attribute, a Hospital block uses 21-23 of 373 columns at ~70 % fill and a
Flights block 43-46 of 66 at ~45 %; ``("src", s)`` columns, value-tied
co-occurrence keys or an unknown featurizer's per-value keys fall under
the quarter and cost what they always did.

Numerical agreement.  The packed layout is not bit-identical to the sparse
one and nothing may promise that: BLAS sums a row in another order than
``bincount``.  What holds: one call of ``scores`` / ``gradient`` agrees
with the all-sparse layout to ~1e-13 of the result's largest magnitude
(absolute — a gradient coordinate that cancels to ≈ 0 has no meaningful
relative error); end to end, losses agree to 4e-11 and marginals to
1.3e-14 on the Hospital, Flights and DC-factor workloads, repairs exactly.
Raw weights agree to 1.4e-14 on Hospital, but on Flights four
``("dc", name)`` weights of |w| ≈ 0.003 differ by up to 7e-5: their
gradient coordinate is near-null, and Adam's ``m1 / sqrt(m2)`` turns the
rounding noise on it into full-size steps — in the sparse kernel as much
as in this one.  Equivalence is therefore stated (and tested, in
``tests/inference/test_softmax_pack.py``) on the kernel, on losses and
marginals, and on repairs, never on raw weights.  ``groups=None`` runs the
remainder kernel alone, in storage order, bit for bit what the trainer
computed before there were blocks.  The candidate-major relabel changes no
bit of any of this for variables of at most 8 candidates (see
:meth:`CandidateMajorRows.softmax`), so weights and losses are the
var-major loop's (``tests/inference/test_candidate_major.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.ops import expand_ranges, sorted_unique
from repro.inference.features import FeatureMatrix
from repro.inference.numerics import segment_softmax
from repro.inference.variables import Marginals
from repro.obs.trace import deep_span

#: A feature column joins its group's dense block when it has entries on
#: at least this share of the group's rows; dense slots are therefore at
#: most ``1 / DENSE_FILL`` times the entries packed into them.
DENSE_FILL = 0.25


@dataclass
class TrainingResult:
    """Learned weights, the per-epoch training loss trace, and what the
    training rows were packed into (see :class:`PackedRows`)."""

    weights: np.ndarray
    losses: list[float] = field(default_factory=list)
    blocks: int = 0
    dense_entries: int = 0
    sparse_entries: int = 0
    dense_slots: int = 0

    @property
    def epochs_run(self) -> int:
        return len(self.losses)

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


def _sum_into(slots: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """``out[slots[k]] += values[k]`` over ``float64`` zeros of ``size``."""
    # ``astype`` matters without entries only: bincount then counts ints.
    return np.bincount(slots, values, size).astype(np.float64, copy=False)


class PackedRows:
    """The training rows in the layout one epoch reads twice.

    ``var_starts`` is the compacted row layout (training variable ``k``
    owns rows ``var_starts[k] : var_starts[k + 1]``).  Each block is
    ``(rows, cols, dense)``: ``dense[i, j]`` is the summed value of
    feature ``cols[j]`` on compacted row ``rows[i]``, row-major
    ``float64``.  ``indices`` / ``values`` / ``rows`` are the remainder —
    every entry no block holds — as the sparse triple the gather / bincount
    kernel reads.  A (row, feature) pair lives in exactly one of the two.
    """

    def __init__(
        self,
        var_starts: np.ndarray,
        num_features: int,
        blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
        dense_entries: int,
        indices: np.ndarray,
        values: np.ndarray,
        rows: np.ndarray,
    ):
        self.var_starts = var_starts
        self.num_features = num_features
        self.blocks = blocks
        #: Matrix entries the blocks were filled from (repeats counted).
        self.dense_entries = dense_entries
        self.indices = indices
        self.values = values
        self.rows = rows

    @property
    def num_rows(self) -> int:
        return int(self.var_starts[-1])

    @property
    def sparse_entries(self) -> int:
        return len(self.indices)

    @property
    def dense_slots(self) -> int:
        return sum(dense.size for _, _, dense in self.blocks)

    def scores(self, weights: np.ndarray) -> np.ndarray:
        """``X·θ``: one score per compacted row."""
        contributions = weights[self.indices] * self.values
        out = _sum_into(self.rows, contributions, self.num_rows)
        # One gemv per block: O(attributes) iterations, never per row.
        for rows, cols, dense in self.blocks:
            out[rows] += dense @ weights[cols]
        return out

    def gradient(self, residual: np.ndarray) -> np.ndarray:
        """``Xᵀ·r``: one sum per feature, ``residual`` per compacted row."""
        weighted = self.values * residual[self.rows]
        grad = _sum_into(self.indices, weighted, self.num_features)
        # One gemv per block: O(attributes) iterations, never per row.
        for rows, cols, dense in self.blocks:
            grad[cols] += residual[rows] @ dense
        return grad


class CandidateMajorRows(PackedRows):
    """:class:`PackedRows` relabelled candidate-major: the epoch loop's layout.

    The training variables are ranked by descending candidate count
    (stable), and candidate ``j`` of the variable of rank ``r`` is row
    ``cand_starts[j] + r``.  So candidate ``j`` of every variable with more
    than ``j`` candidates is the one contiguous slice ``cand_starts[j] :
    cand_starts[j + 1]``, and :meth:`softmax` is a handful of passes per
    slice — at most ``max_domain`` slices — instead of one ``reduceat``
    segment per variable.  Blocks, remainder and entry order are
    ``packed``'s; only the row numbers move, once.  ``var_starts`` keeps
    each variable's candidate count; its rows are no longer contiguous.
    """

    def __init__(self, packed: PackedRows):
        sizes = np.diff(packed.var_starts)
        rank = np.empty(len(sizes), dtype=np.int64)
        rank[np.argsort(-sizes, kind="stable")] = np.arange(len(sizes))
        # Variables with more than j candidates, for j = 0 .. max - 1.
        reach = len(sizes) - np.cumsum(np.bincount(sizes))[:-1]
        cand_starts = np.zeros(len(reach) + 1, dtype=np.int64)
        np.cumsum(reach, out=cand_starts[1:])
        local = np.arange(packed.num_rows) - np.repeat(packed.var_starts[:-1], sizes)
        relabel = cand_starts[local] + np.repeat(rank, sizes)
        super().__init__(
            packed.var_starts,
            packed.num_features,
            [(relabel[rows], cols, dense) for rows, cols, dense in packed.blocks],
            packed.dense_entries,
            packed.indices,
            packed.values,
            relabel[packed.rows],
        )
        self.cand_starts = cand_starts
        self.rank = rank
        bounds = cand_starts.tolist()
        self._slices = list(zip(bounds[:-1], bounds[1:]))

    def label_rows(self, labels: np.ndarray) -> np.ndarray:
        """The row of candidate ``labels[k]`` of training variable ``k``."""
        return self.cand_starts[labels] + self.rank

    def softmax(self, scores: np.ndarray) -> np.ndarray:
        """The softmax of each training variable over its candidate rows.

        ``segment_softmax`` over the var-major layout, bit for bit on every
        variable of at most 8 candidates: the max, the shift, the exp and
        the divide are elementwise, and the sum runs in ``reduceat``'s order
        ``a0 + (((a1 + a2) + a3) …)``.  From 9 candidates ``reduceat``
        switches to pairwise summation, so those agree to rounding.
        """
        slices = self._slices
        if not slices:
            return np.empty(0, dtype=np.float64)
        everyone = slices[0][1]
        top = scores[:everyone].copy()
        # Passes per candidate position (<= max_domain), never per row.
        for start, stop in slices[1:]:
            reach = top[: stop - start]
            np.maximum(reach, scores[start:stop], out=reach)
        probs = np.empty_like(scores)
        for start, stop in slices:
            np.subtract(scores[start:stop], top[: stop - start], out=probs[start:stop])
        np.exp(probs, out=probs)
        total = np.zeros(everyone)
        for start, stop in slices[1:]:
            total[: stop - start] += probs[start:stop]
        total += probs[:everyone]
        for start, stop in slices:
            probs[start:stop] /= total[: stop - start]
        return probs


class SoftmaxTrainer:
    """Full-batch Adam over the evidence-variable log-likelihood.

    Parameters
    ----------
    matrix:
        The grounded unary feature matrix (all variables).
    epochs, learning_rate, l2:
        Optimiser knobs; ``l2`` is the coefficient of the ½‖θ‖² penalty.
    tolerance:
        Meant as: stop once the relative improvement on the best loss seen
        stays below this for 15 epochs.  What runs: ``best_loss`` starts at
        ``inf`` and ``inf - loss > tolerance * inf`` is never true, so it
        is never assigned, every epoch counts as a stall, and training
        stops at ``max(15, int(epochs * (1 - average_tail)))`` epochs — 45
        of the default plan's 60, on a loss still falling — whatever this
        is set to.  Known defect, pinned by ``tests/inference/
        test_softmax.py`` and listed in ROADMAP "Carried over": the fix
        moves every learned weight and needs a quality re-baseline.
    max_training_vars:
        Optional cap on evidence variables (uniform subsample) — the same
        lever the reference implementation uses to bound learning cost on
        multi-million-cell datasets.
    seed:
        Seed for the subsampling RNG.
    fixed_weights:
        Feature index → constant value for pinned weights (the minimality
        prior and other constant-weight rules); these are initialised to
        their pinned value and never updated.
    """

    def __init__(
        self,
        matrix: FeatureMatrix,
        epochs: int = 40,
        learning_rate: float = 0.1,
        l2: float = 1e-4,
        tolerance: float = 1e-6,
        max_training_vars: int | None = None,
        seed: int = 0,
        fixed_weights: dict[int, float] | None = None,
        lr_decay: float = 0.02,
        average_tail: float = 0.25,
    ):
        self.matrix = matrix
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.l2 = l2
        self.tolerance = tolerance
        self.max_training_vars = max_training_vars
        self.seed = seed
        self.fixed_weights = dict(fixed_weights or {})
        #: Per-epoch learning-rate decay: lr_t = lr / (1 + lr_decay · t).
        self.lr_decay = lr_decay
        #: Polyak averaging over the trailing fraction of epochs, damping
        #: Adam's oscillation on flat objectives.  With the stop rule as it
        #: stands (see ``tolerance``) the tail is one iterate long.
        self.average_tail = average_tail

    # ------------------------------------------------------------------
    def train(
        self,
        train_vars: list[int],
        labels: list[int],
        groups: list[int] | None = None,
    ) -> TrainingResult:
        """Learn weights from evidence variables.

        Parameters
        ----------
        train_vars:
            Variable ids to train on (evidence variables).
        labels:
            For each training variable, the *local candidate index* of its
            observed value.
        groups:
            Optionally, for each training variable, a non-negative integer
            naming the set of variables it shares its feature columns with
            (the cell's attribute); :meth:`pack` builds one dense block
            per group.  A hint about layout only: any grouping, or none,
            trains the same model to rounding.

        Each variable id may be listed once (``ValueError`` otherwise).
        The matrix is read under :class:`FeatureMatrix`'s three rules — a
        repeated (row, key) entry counts as its sum, a one-candidate
        variable has gradient 0 with or without entries.  Without
        ``groups`` the training rows' entries are gathered by row range in
        storage order, so every sum runs in that order whatever the order
        of ``train_vars``.
        """
        if len(train_vars) != len(labels):
            raise ValueError("train_vars and labels must align")
        if groups is not None:
            groups = np.asarray(groups)
            if groups.shape != (len(train_vars),) or (
                len(groups) and (groups.dtype.kind not in "iu" or groups.min() < 0)
            ):
                raise ValueError(
                    "groups must be one non-negative integer per training variable"
                )
        m = self.matrix
        weights = np.zeros(m.num_features, dtype=np.float64)
        trainable = np.ones(m.num_features, dtype=np.float64)
        for idx, value in self.fixed_weights.items():
            weights[idx] = value
            trainable[idx] = 0.0
        if not len(train_vars):
            return TrainingResult(weights=weights)

        train_vars = np.asarray(train_vars, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        if len(sorted_unique(train_vars)) != len(train_vars):
            raise ValueError("a training variable is listed more than once")
        cap = self.max_training_vars
        if cap is not None and len(train_vars) > cap:
            rng = np.random.default_rng(self.seed)
            pick = rng.choice(len(train_vars), size=cap, replace=False)
            train_vars, labels = train_vars[pick], labels[pick]
            if groups is not None:
                groups = groups[pick]

        sizes = np.diff(m.var_row_start)[train_vars]
        if np.any(labels < 0) or np.any(labels >= sizes):
            raise ValueError("a label is outside its variable's domain")
        with deep_span("learn.pack") as sp:
            packed = CandidateMajorRows(self.pack(train_vars, groups))
            if sp is not None:
                sp.attributes.update(
                    blocks=len(packed.blocks),
                    dense_entries=packed.dense_entries,
                    sparse_entries=packed.sparse_entries,
                    slots=packed.dense_slots,
                )
        label_positions = packed.label_rows(labels)

        n = float(len(train_vars))
        y = np.zeros(packed.num_rows, dtype=np.float64)
        y[label_positions] = 1.0

        # Adam state.
        m1 = np.zeros_like(weights)
        m2 = np.zeros_like(weights)
        beta1, beta2, eps = 0.9, 0.999, 1e-8

        losses: list[float] = []
        best_loss = float("inf")
        stall = 0
        tail_start = max(1, int(self.epochs * (1.0 - self.average_tail)))
        tail_sum = np.zeros_like(weights)
        tail_count = 0
        for epoch in range(1, self.epochs + 1):
            with deep_span("learn.epoch", epoch=epoch) as sp:
                probs = packed.softmax(packed.scores(weights))
                loss = (
                    -np.log(probs[label_positions] + 1e-300).sum() / n
                    + 0.5 * self.l2 * float(weights @ weights)
                )
                losses.append(float(loss))
                if sp is not None:
                    sp.attributes["loss"] = float(loss)

                grad = packed.gradient(probs - y)
                # Pinned weights stay at their constant.
                grad = (grad / n + self.l2 * weights) * trainable

                m1 = beta1 * m1 + (1 - beta1) * grad
                m2 = beta2 * m2 + (1 - beta2) * grad * grad
                m1_hat = m1 / (1 - beta1**epoch)
                m2_hat = m2 / (1 - beta2**epoch)
                lr = self.learning_rate / (1.0 + self.lr_decay * epoch)
                weights -= lr * m1_hat / (np.sqrt(m2_hat) + eps)

                if epoch >= tail_start:
                    tail_sum += weights
                    tail_count += 1

            # Early stopping with patience — which as written never
            # assigns ``best_loss`` and breaks at ``tail_start``: see
            # ``tolerance`` in the class docstring.
            if best_loss - loss > self.tolerance * max(1.0, abs(best_loss)):
                best_loss = loss
                stall = 0
            else:
                stall += 1
                if stall >= 15 and epoch >= tail_start:
                    break
        if tail_count > 0:
            weights = tail_sum / tail_count
            for idx, value in self.fixed_weights.items():
                weights[idx] = value
        return TrainingResult(
            weights=weights,
            losses=losses,
            blocks=len(packed.blocks),
            dense_entries=packed.dense_entries,
            sparse_entries=packed.sparse_entries,
            dense_slots=packed.dense_slots,
        )

    def pack(
        self, train_vars: np.ndarray, groups: np.ndarray | None = None
    ) -> PackedRows:
        """Lay the training variables' rows out for the epoch loop.

        Per group, every feature column with entries on at least a quarter
        of the group's rows (:data:`DENSE_FILL`) goes into one dense block;
        every other entry — and, without ``groups``, every entry, in
        storage order — stays in the sparse remainder.  Each group is
        gathered, packed and released on its own, so the transient is one
        group's entries, never the training set's.
        """
        m = self.matrix
        train_vars = np.asarray(train_vars, dtype=np.int64)
        sizes = np.diff(m.var_row_start)[train_vars]
        var_starts = np.zeros(len(train_vars) + 1, dtype=np.int64)
        np.cumsum(sizes, out=var_starts[1:])
        train_rows = expand_ranges(m.var_row_start[train_vars], sizes)
        if groups is None:
            return PackedRows(
                var_starts, m.num_features, [], 0, *self._gather(train_rows)
            )

        groups = np.asarray(groups)
        by_group = np.argsort(groups, kind="stable")
        cuts = np.flatnonzero(np.diff(groups[by_group])) + 1
        blocks = []
        dense_entries = 0
        sparse = []
        # Per group (the attributes of the schema), never per row.
        for members in np.split(by_group, cuts):
            rows = expand_ranges(var_starts[members], sizes[members])
            cols, dense, packed, rest = self._pack_group(train_rows[rows])
            if len(cols):
                blocks.append((rows, cols, dense))
                dense_entries += packed
            indices, values, position = rest
            sparse.append((indices, values, rows[position]))
        return PackedRows(
            var_starts,
            m.num_features,
            blocks,
            dense_entries,
            *(np.concatenate(column) for column in zip(*sparse)),
        )

    def _pack_group(self, group_rows: np.ndarray):
        """One group's block and what it leaves to the remainder.

        Returns the block's columns, ``dense[i, j]`` = the summed value of
        ``cols[j]`` on ``group_rows[i]``, the number of entries it was
        filled from, and the other entries as ``(indices, values, position
        in group_rows)``.  A function of its own so that a group's gathered
        entries are released before the next group's are gathered.
        """
        m = self.matrix
        indices, values, position = self._gather(group_rows)
        counts = np.bincount(indices, minlength=m.num_features)
        cols = np.flatnonzero(counts >= max(1.0, DENSE_FILL * len(group_rows)))
        slot_of = np.full(m.num_features, -1, dtype=np.int64)
        slot_of[cols] = np.arange(len(cols))
        slot = slot_of[indices]
        in_block = slot >= 0
        # bincount lands a repeated (row, key) pair as its sum.
        flat = position[in_block] * len(cols) + slot[in_block]
        dense = np.bincount(flat, values[in_block], len(group_rows) * len(cols))
        rest = ~in_block
        return (
            cols,
            dense.reshape(len(group_rows), len(cols)),
            len(flat),
            (indices[rest], values[rest], position[rest]),
        )

    def _gather(self, train_rows: np.ndarray):
        """The training rows' entries — feature indices, values and each
        entry's position in ``train_rows`` — in storage order."""
        m = self.matrix
        by_row = np.argsort(train_rows, kind="stable")
        source, position = m.entries_of(train_rows[by_row])
        return m.indices[source], m.values[source], by_row[position]

    # ------------------------------------------------------------------
    def marginals(self, weights: np.ndarray, var_ids: list[int]) -> Marginals:
        """Exact per-variable softmax marginals for the given variables.

        Only the requested variables' candidate rows are scored — asking
        for a handful of query variables no longer pays for a θ·x pass
        over the whole matrix.
        """
        m = self.matrix
        starts = m.var_row_start
        var_arr = np.asarray(var_ids, dtype=np.int64)
        sizes = starts[var_arr + 1] - starts[var_arr]
        comp_starts = np.zeros(len(var_arr) + 1, dtype=np.int64)
        np.cumsum(sizes, out=comp_starts[1:])
        rows = expand_ranges(starts[var_arr], sizes)
        scores = m.scores_for_rows(rows, weights)
        # One segmented pass over the var-major rows; the mapping
        # hands out disjoint views of the normalised score buffer.
        return Marginals(var_arr, comp_starts, segment_softmax(scores, comp_starts))
