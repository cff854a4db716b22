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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.ops import expand_ranges
from repro.inference.features import FeatureMatrix
from repro.inference.numerics import segment_softmax
from repro.obs.trace import deep_span


@dataclass
class TrainingResult:
    """Learned weights plus the per-epoch training loss trace."""

    weights: np.ndarray
    losses: list[float] = field(default_factory=list)

    @property
    def epochs_run(self) -> int:
        return len(self.losses)

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


class SoftmaxTrainer:
    """Full-batch Adam over the evidence-variable log-likelihood.

    Parameters
    ----------
    matrix:
        The grounded unary feature matrix (all variables).
    epochs, learning_rate, l2:
        Optimiser knobs; ``l2`` is the coefficient of the ½‖θ‖² penalty.
    tolerance:
        Stop early once the relative loss improvement drops below this.
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
        #: Adam's oscillation on flat objectives.
        self.average_tail = average_tail

    # ------------------------------------------------------------------
    def train(self, train_vars: list[int], labels: list[int]) -> TrainingResult:
        """Learn weights from evidence variables.

        Parameters
        ----------
        train_vars:
            Variable ids to train on (evidence variables).
        labels:
            For each training variable, the *local candidate index* of its
            observed value.

        Each variable id may be listed once (``ValueError`` otherwise).
        The matrix is read under :class:`FeatureMatrix`'s three rules — a
        repeated (row, key) entry counts as its sum, a one-candidate
        variable has gradient 0 with or without entries — and the training
        rows' entries are gathered by row range in storage order, so every
        sum runs in that order whatever the order of ``train_vars``.
        """
        if len(train_vars) != len(labels):
            raise ValueError("train_vars and labels must align")
        m = self.matrix
        weights = np.zeros(m.num_features, dtype=np.float64)
        trainable = np.ones(m.num_features, dtype=np.float64)
        for idx, value in self.fixed_weights.items():
            weights[idx] = value
            trainable[idx] = 0.0
        if not train_vars:
            return TrainingResult(weights=weights)

        train_vars = np.asarray(train_vars, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        if len(np.unique(train_vars)) != len(train_vars):
            raise ValueError("a training variable is listed more than once")
        cap = self.max_training_vars
        if cap is not None and len(train_vars) > cap:
            rng = np.random.default_rng(self.seed)
            pick = rng.choice(len(train_vars), size=cap, replace=False)
            train_vars, labels = train_vars[pick], labels[pick]

        # Compacted row layout for the training variables.
        sizes = np.diff(m.var_row_start)[train_vars]
        comp_starts = np.zeros(len(train_vars) + 1, dtype=np.int64)
        np.cumsum(sizes, out=comp_starts[1:])
        train_rows = expand_ranges(m.var_row_start[train_vars], sizes)
        label_positions = comp_starts[:-1] + labels
        if np.any(labels < 0) or np.any(labels >= sizes):
            raise ValueError("a label is outside its variable's domain")

        tr_indices, tr_values, tr_entry_comp = self._gather(train_rows)

        n = float(len(train_vars))
        y = np.zeros(len(train_rows), dtype=np.float64)
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
                contributions = weights[tr_indices] * tr_values
                comp_scores = np.bincount(tr_entry_comp, contributions, len(train_rows))
                probs = segment_softmax(comp_scores, comp_starts)
                loss = (
                    -np.log(probs[label_positions] + 1e-300).sum() / n
                    + 0.5 * self.l2 * float(weights @ weights)
                )
                losses.append(float(loss))
                if sp is not None:
                    sp.attributes["loss"] = float(loss)

                residual = probs - y
                weighted = tr_values * residual[tr_entry_comp]
                grad = np.bincount(tr_indices, weighted, m.num_features)
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

            # Early stopping with patience: Adam's warmup can raise the
            # loss for a few epochs, so compare against the best seen and
            # stop only after sustained stagnation.
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
        return TrainingResult(weights=weights, losses=losses)

    def _gather(self, train_rows: np.ndarray):
        """The training rows' entries — feature indices, values and each
        entry's position in ``train_rows`` — in storage order."""
        m = self.matrix
        by_row = np.argsort(train_rows, kind="stable")
        source, position = m.entries_of(train_rows[by_row])
        return m.indices[source], m.values[source], by_row[position]

    # ------------------------------------------------------------------
    def marginals(
        self, weights: np.ndarray, var_ids: list[int]
    ) -> dict[int, np.ndarray]:
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
        # One segmented pass shared with the training loop — the slices
        # below are disjoint views of the normalised score buffer.
        probs = segment_softmax(scores, comp_starts)
        bounds = comp_starts.tolist()
        out: dict[int, np.ndarray] = {}
        # repro: allow-loop one dict slot (a view) per requested variable, no arithmetic
        for k, v in enumerate(var_arr.tolist()):
            out[v] = probs[bounds[k] : bounds[k + 1]]
        return out
