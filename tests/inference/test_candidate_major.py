"""The trainer's candidate-major rows against the var-major layout.

``CandidateMajorRows`` relabels the rows ``SoftmaxTrainer.pack`` builds so
that candidate ``j`` of every variable with more than ``j`` candidates is
one contiguous slice.  Its softmax runs a few passes per slice and sums in
``reduceat``'s order, so on variables of at most 8 candidates it is
``segment_softmax`` over the var-major rows bit for bit, and so is
everything trained on it.  From 9 candidates ``reduceat`` sums pairwise,
so those segments agree to rounding only.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stages import (
    CompileStage,
    DetectStage,
    RepairContext,
    RepairPlan,
    attribute_groups,
)
from repro.data import generate_flights, generate_hospital
from repro.eval.harness import holoclean_config_for
from repro.inference.numerics import segment_softmax
from repro.inference.softmax import CandidateMajorRows, PackedRows, SoftmaxTrainer

EMPTY = np.empty(0, dtype=np.int64)

#: Scores with NaN, infinities and magnitudes whose exp under- or overflows.
SCORES = st.one_of(
    st.floats(-40.0, 40.0),
    st.sampled_from([np.nan, np.inf, -np.inf, 1e300, -1e300, 745.0, -745.0]),
)


def relabelled(sizes):
    """Rows-only candidate-major layout of variables of ``sizes``
    candidates, and each var-major row's candidate-major position."""
    sizes = np.asarray(sizes, dtype=np.int64)
    var_starts = np.concatenate(([0], np.cumsum(sizes)))
    rows = CandidateMajorRows(
        PackedRows(var_starts, 0, [], 0, EMPTY, np.empty(0), EMPTY)
    )
    var = np.repeat(np.arange(len(sizes)), sizes)
    cand = np.arange(var_starts[-1]) - var_starts[var]
    return rows, var_starts, rows.cand_starts[cand] + rows.rank[var]


def candidate_major_softmax(sizes, scores):
    """``CandidateMajorRows.softmax`` read back in var-major order, and
    ``segment_softmax`` over the same var-major scores."""
    rows, var_starts, position = relabelled(sizes)
    scores = np.asarray(scores, dtype=np.float64)
    moved = np.empty_like(scores)
    moved[position] = scores
    # inf - inf in the shift: both kernels make the same NaN.
    with np.errstate(invalid="ignore"):
        return rows.softmax(moved)[position], segment_softmax(scores, var_starts)


@st.composite
def segments(draw, smallest, largest):
    """Candidate counts — one-candidate variables and at least one of
    ``smallest..largest`` — and one score per candidate row."""
    sizes = draw(st.lists(st.integers(1, largest), min_size=1, max_size=30))
    sizes.append(draw(st.integers(smallest, largest)))
    sizes = draw(st.permutations(sizes))
    scores = draw(st.lists(SCORES, min_size=sum(sizes), max_size=sum(sizes)))
    return sizes, scores


class TestKernel:
    def test_layout(self):
        rows, _, position = relabelled([2, 3, 1, 3])
        # Ranks by descending size, stable: variables 1, 3, 0, 2.
        assert rows.rank.tolist() == [2, 0, 3, 1]
        assert rows.cand_starts.tolist() == [0, 4, 7, 9]
        assert position.tolist() == [2, 6, 0, 4, 7, 3, 1, 5, 8]
        assert rows.label_rows(np.array([1, 2, 0, 0])).tolist() == [6, 7, 3, 1]

    @settings(max_examples=300, deadline=None)
    @given(segments(1, 8))
    def test_bit_identical_up_to_eight_candidates(self, case):
        got, want = candidate_major_softmax(*case)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))

    @settings(max_examples=300, deadline=None)
    @given(segments(9, 24))
    def test_rounding_from_nine_candidates(self, case):
        got, want = candidate_major_softmax(*case)
        # atol: one step of the subnormal grid a quotient may round to.
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=5e-324)

    def test_no_variables(self):
        rows, _, _ = relabelled([])
        assert rows.cand_starts.tolist() == [0] and rows.num_rows == 0
        assert rows.softmax(np.empty(0)).shape == (0,)

    def test_block_and_remainder_rows_are_relabelled_once(self):
        model = compiled(generate_hospital(num_rows=60))
        ids = np.asarray(model.evidence_ids)
        matrix = model.graph.matrix
        packed = SoftmaxTrainer(matrix).pack(ids, attribute_groups(model, ids))
        moved = CandidateMajorRows(packed)
        _, _, position = relabelled(np.diff(packed.var_starts))
        assert len(moved.blocks) == len(packed.blocks) > 0
        for (rows, cols, dense), (old, old_cols, old_dense) in zip(
            moved.blocks, packed.blocks
        ):
            assert rows.tolist() == position[old].tolist()
            assert cols is old_cols and dense is old_dense
        assert moved.rows.tolist() == position[packed.rows].tolist()
        assert moved.indices is packed.indices and moved.values is packed.values
        # Both products are the var-major ones, bit for bit, rows moved.
        rng = np.random.default_rng(0)
        theta = rng.normal(size=matrix.num_features)
        residual = rng.normal(size=packed.num_rows)
        scores, moved_residual = np.empty(packed.num_rows), np.empty(packed.num_rows)
        scores[position] = packed.scores(theta)
        moved_residual[position] = residual
        assert np.array_equal(moved.scores(theta), scores)
        assert np.array_equal(moved.gradient(moved_residual), packed.gradient(residual))


def compiled(generated):
    ctx = RepairContext(
        dataset=generated.dirty,
        constraints=generated.constraints,
        config=holoclean_config_for(generated),
    )
    return RepairPlan([DetectStage(), CompileStage()]).run(ctx).model


def var_major_train(trainer, train_vars, labels, groups=None):
    """``SoftmaxTrainer.train`` as it ran on var-major rows: the same pack,
    the same Adam loop, the softmax one ``segment_softmax`` per epoch."""
    t = trainer
    weights = np.zeros(t.matrix.num_features)
    trainable = np.ones(t.matrix.num_features)
    for idx, value in t.fixed_weights.items():
        weights[idx] = value
        trainable[idx] = 0.0
    train_vars, labels = np.asarray(train_vars), np.asarray(labels)
    cap = t.max_training_vars
    if cap is not None and len(train_vars) > cap:
        pick = np.random.default_rng(t.seed).choice(len(train_vars), cap, False)
        train_vars, labels = train_vars[pick], labels[pick]
        if groups is not None:
            groups = np.asarray(groups)[pick]
    packed = t.pack(train_vars, groups)
    starts = packed.var_starts
    label_positions = starts[:-1] + labels
    n = float(len(train_vars))
    y = np.zeros(packed.num_rows)
    y[label_positions] = 1.0
    m1, m2 = np.zeros_like(weights), np.zeros_like(weights)
    losses = []
    best_loss = float("inf")
    stall = 0
    tail_start = max(1, int(t.epochs * (1.0 - t.average_tail)))
    tail_sum, tail_count = np.zeros_like(weights), 0
    for epoch in range(1, t.epochs + 1):
        probs = segment_softmax(packed.scores(weights), starts)
        loss = (
            -np.log(probs[label_positions] + 1e-300).sum() / n
            + 0.5 * t.l2 * float(weights @ weights)
        )
        losses.append(float(loss))
        grad = packed.gradient(probs - y)
        grad = (grad / n + t.l2 * weights) * trainable
        m1 = 0.9 * m1 + (1 - 0.9) * grad
        m2 = 0.999 * m2 + (1 - 0.999) * grad * grad
        m1_hat = m1 / (1 - 0.9**epoch)
        m2_hat = m2 / (1 - 0.999**epoch)
        lr = t.learning_rate / (1.0 + t.lr_decay * epoch)
        weights -= lr * m1_hat / (np.sqrt(m2_hat) + 1e-8)
        if epoch >= tail_start:
            tail_sum += weights
            tail_count += 1
        if best_loss - loss > t.tolerance * max(1.0, abs(best_loss)):
            best_loss = loss
            stall = 0
        else:
            stall += 1
            if stall >= 15 and epoch >= tail_start:
                break
    weights = tail_sum / tail_count
    for idx, value in t.fixed_weights.items():
        weights[idx] = value
    return weights, losses


@pytest.fixture(
    scope="module",
    params=[
        lambda: generate_hospital(num_rows=300),
        lambda: generate_flights(num_flights=20),
    ],
    ids=["hospital-300", "flights-20"],
)
def model(request):
    return compiled(request.param())


class TestTrainer:
    @pytest.mark.parametrize("grouped", [True, False], ids=["groups", "no-groups"])
    @pytest.mark.parametrize("cap", [None, 700], ids=["all", "subsample"])
    def test_weights_and_losses_equal_the_var_major_loop(self, model, grouped, cap):
        ids = np.asarray(model.evidence_ids)
        labels = np.asarray(model.evidence_labels)
        sizes = np.diff(model.graph.matrix.var_row_start)[ids]
        assert sizes.max() <= 8 and len(ids) > 700
        groups = attribute_groups(model, ids) if grouped else None
        # The model's pinned weights, and one more on its fullest column.
        fixed = model.graph.space.fixed_weights
        fixed[int(np.argmax(np.bincount(model.graph.matrix.indices)))] = 0.3
        trainer = SoftmaxTrainer(
            model.graph.matrix,
            epochs=24,
            max_training_vars=cap,
            seed=5,
            fixed_weights=fixed,
        )
        got = trainer.train(ids, labels, groups=groups)
        weights, losses = var_major_train(trainer, ids, labels, groups)
        assert got.losses == losses
        assert np.array_equal(got.weights, weights)
        assert (got.blocks > 0) == grouped
