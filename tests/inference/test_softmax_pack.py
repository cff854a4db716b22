"""The trainer's packed row layout against its all-sparse layout.

``SoftmaxTrainer.pack(train_vars, groups)`` puts each group's well-filled
feature columns into one dense block and leaves the rest to the gather /
bincount kernel; ``groups=None`` leaves everything there.  Both layouts
hold the same matrix, so their two products — ``X·θ`` per row and
``Xᵀ·r`` per feature — agree to rounding, and so does everything trained
on them.  BLAS sums a row in another order than ``bincount``, hence
tolerances and not equality: the kernel to ``1e-12`` of the largest
component (a gradient coordinate that cancels to ≈ 0 has no meaningful
relative error), losses and marginals to ``1e-9``.  Raw weights are not
compared: under Adam a weight on a near-null gradient coordinate is set
by rounding noise (see the module docstring of ``inference/softmax.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import HoloClean
from repro.data import generate_flights, generate_hospital
from repro.eval.harness import holoclean_config_for
from repro.inference.features import FeatureMatrixBuilder, FeatureSpace
from repro.inference.softmax import SoftmaxTrainer

#: Column fills the random groups draw from, on both sides of the rule.
FILLS = (0.02, 0.2, 0.3, 0.7, 1.0)


def build(num_features, sizes, entries):
    """A matrix over ``num_features`` keys from ``(var, cand, key, value)``
    entry arrays, handed to the builder as one batch."""
    space = FeatureSpace()
    for k in range(num_features):
        space.index(("k", k))
    builder = FeatureMatrixBuilder(space)
    builder.start_variables(list(sizes))
    var, cand, key, value = entries
    rows = builder.var_row_start[np.asarray(var, dtype=np.int64)] + cand
    builder.add_rows(rows, key, value)
    return builder.build()


def random_case(seed, num_groups, vars_per_group):
    """Variables of ``num_groups`` groups, interleaved, 1-4 candidates each.

    A group owns six columns with fills from ``FILLS`` and shares four
    columns (fill 0.1) with every other group; one-candidate variables
    carry no entries; a tenth of the entries is repeated with another
    value; labels are random; the first group's fullest column is pinned.
    Returns ``(matrix, ids, labels, groups, fixed_weights)`` with the ids
    in shuffled order.
    """
    rng = np.random.default_rng(seed)
    num_vars = num_groups * vars_per_group
    groups = rng.permutation(np.repeat(np.arange(num_groups), vars_per_group))
    sizes = rng.integers(1, 5, size=num_vars)
    num_features = 6 * num_groups + 4
    fills = rng.choice(FILLS, size=(num_groups, 6))
    fills[0, 0] = 1.0
    fill = np.zeros((num_groups, num_features))
    fill[:, -4:] = 0.1
    own = 6 * np.arange(num_groups)[:, None] + np.arange(6)
    fill[np.arange(num_groups)[:, None], own] = fills

    row_var = np.repeat(np.arange(num_vars), sizes)
    row_cand = np.arange(len(row_var)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    present = rng.random((len(row_var), num_features)) < fill[groups[row_var]]
    present[sizes[row_var] == 1] = False
    row, key = np.nonzero(present)
    repeat = rng.random(len(row)) < 0.1
    row, key = np.concatenate([row, row[repeat]]), np.concatenate([key, key[repeat]])
    values = rng.normal(size=len(row))
    matrix = build(num_features, sizes, (row_var[row], row_cand[row], key, values))

    order = rng.permutation(num_vars)
    labels = rng.integers(0, sizes)
    return matrix, order, labels[order], groups[order], {0: 0.7}


def assert_kernels_agree(trainer, ids, groups, seed=0):
    """Both products of the two layouts, and the packed layout's bounds."""
    sparse, packed = trainer.pack(ids), trainer.pack(ids, groups)
    assert not sparse.blocks
    assert packed.dense_entries + packed.sparse_entries == sparse.sparse_entries
    assert packed.dense_slots <= 4 * packed.dense_entries
    rng = np.random.default_rng(seed)
    theta = rng.normal(size=trainer.matrix.num_features)
    residual = rng.normal(size=sparse.num_rows)
    for got, want in (
        (packed.scores(theta), sparse.scores(theta)),
        (packed.gradient(residual), sparse.gradient(residual)),
    ):
        assert got.shape == want.shape and got.dtype == np.float64
        assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1.0)
    return packed


def assert_training_agrees(trainer, ids, labels, groups):
    """Every loss and every marginal, with and without the groups."""
    a = trainer.train(ids, labels)
    b = trainer.train(ids, labels, groups=groups)
    assert (a.blocks, a.dense_entries, a.dense_slots) == (0, 0, 0)
    assert a.epochs_run == b.epochs_run
    assert np.abs(np.subtract(a.losses, b.losses)).max() <= 1e-9
    every = list(range(trainer.matrix.num_vars))
    ma, mb = trainer.marginals(a.weights, every), trainer.marginals(b.weights, every)
    assert max(np.abs(ma[v] - mb[v]).max() for v in every) <= 1e-9
    for idx, value in trainer.fixed_weights.items():
        assert a.weights[idx] == b.weights[idx] == value
    return b


class TestRandomMatrices:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_groups=st.integers(1, 4),
        vars_per_group=st.integers(1, 40),
    )
    def test_packed_equals_sparse(self, seed, num_groups, vars_per_group):
        matrix, ids, labels, groups, fixed = random_case(
            seed, num_groups, vars_per_group
        )
        trainer = SoftmaxTrainer(matrix, epochs=20, fixed_weights=fixed)
        assert_kernels_agree(trainer, ids, groups, seed)
        assert_training_agrees(trainer, ids, labels, groups)

    @pytest.mark.parametrize("seed", range(4))
    def test_pinned_weight_inside_a_block_never_moves(self, seed):
        matrix, ids, labels, groups, fixed = random_case(seed, 3, 30)
        trainer = SoftmaxTrainer(matrix, epochs=20, fixed_weights=fixed)
        packed = assert_kernels_agree(trainer, ids, groups)
        assert any(0 in cols for _, cols, _ in packed.blocks)
        result = assert_training_agrees(trainer, ids, labels, groups)
        assert result.blocks == len(packed.blocks) > 0
        assert result.weights[0] == 0.7
        trainable = np.delete(result.weights, 0)
        assert np.abs(trainable).max() > 0

    def test_any_grouping_trains_the_same_model(self):
        # ``groups`` is a layout hint: one group for everything, the real
        # grouping and one group per variable all agree with none.
        matrix, ids, labels, groups, fixed = random_case(11, 3, 25)
        trainer = SoftmaxTrainer(matrix, epochs=20, fixed_weights=fixed)
        for hint in (np.zeros_like(groups), groups, np.arange(len(ids))):
            assert_kernels_agree(trainer, ids, hint)
            assert_training_agrees(trainer, ids, labels, hint)

    def test_empty_training_set(self):
        matrix, _, _, _, fixed = random_case(3, 2, 10)
        result = SoftmaxTrainer(matrix, fixed_weights=fixed).train([], [], groups=[])
        assert result.epochs_run == 0 and result.weights[0] == 0.7
        assert (result.blocks, result.dense_entries, result.sparse_entries) == (0, 0, 0)
        nothing = np.empty(0, dtype=np.int64)
        packed = SoftmaxTrainer(matrix).pack(nothing, nothing)
        assert packed.blocks == [] and packed.num_rows == 0
        assert packed.scores(np.zeros(matrix.num_features)).shape == (0,)


class TestFixedCases:
    def test_repeated_pair_lands_as_its_sum(self):
        # Two variables of two candidates; key 0 twice on row 0.
        values = [0.5, 0.25, 1.0, 2.0, 3.0]
        entries = ([0, 0, 0, 1, 1], [0, 0, 1, 0, 1], [0] * 5, values)
        trainer = SoftmaxTrainer(build(1, [2, 2], entries))
        packed = assert_kernels_agree(trainer, np.array([0, 1]), np.array([0, 0]))
        ((rows, cols, dense),) = packed.blocks
        assert rows.tolist() == [0, 1, 2, 3] and cols.tolist() == [0]
        assert dense.tolist() == [[0.75], [1.0], [2.0], [3.0]]
        assert (packed.dense_entries, packed.dense_slots) == (5, 4)

    def test_column_on_one_row_in_a_thousand_stays_sparse(self):
        # 500 variables x 2 candidates: key 0 on every row, key 1 on one.
        var, cand = np.repeat(np.arange(500), 2), np.tile([0, 1], 500)
        rng = np.random.default_rng(0)
        entries = (
            np.append(var, 123),
            np.append(cand, 1),
            np.append(np.zeros(1000, dtype=np.int64), 1),
            rng.normal(size=1001),
        )
        trainer = SoftmaxTrainer(build(2, [2] * 500, entries), epochs=10)
        ids, groups = np.arange(500), np.zeros(500, dtype=np.int64)
        packed = assert_kernels_agree(trainer, ids, groups)
        ((_, cols, dense),) = packed.blocks
        assert cols.tolist() == [0] and dense.shape == (1000, 1)
        assert packed.indices.tolist() == [1] and packed.rows.tolist() == [247]
        assert_training_agrees(trainer, ids, rng.integers(0, 2, size=500), groups)

    def test_the_quarter_rule_is_inclusive(self):
        # Eight rows: key 0 on two of them (a quarter), key 1 on one.
        entries = ([0, 1, 2], [0, 0, 1], [0, 0, 1], [1.0, 2.0, 3.0])
        trainer = SoftmaxTrainer(build(2, [2, 2, 2, 2], entries))
        packed = assert_kernels_agree(trainer, np.arange(4), np.zeros(4, dtype=int))
        ((_, cols, _),) = packed.blocks
        assert cols.tolist() == [0]
        assert packed.indices.tolist() == [1]

    def test_group_with_only_sparse_columns_gets_no_block(self):
        # Group 0: forty rows, each with its own key.  Group 1: one key on
        # every row.  Variables alternate between the groups.
        sizes = [2] * 40
        groups = np.tile([0, 1], 20)
        var = np.repeat(np.arange(40), 2)
        cand = np.tile([0, 1], 40)
        own = np.cumsum(groups[var] == 0) - 1
        key = np.where(groups[var] == 0, own, 40)
        rng = np.random.default_rng(1)
        matrix = build(41, sizes, (var, cand, key, rng.normal(size=80)))
        trainer = SoftmaxTrainer(matrix, epochs=10)
        ids = np.arange(40)
        packed = assert_kernels_agree(trainer, ids, groups)
        ((rows, cols, dense),) = packed.blocks
        assert cols.tolist() == [40] and dense.shape == (40, 1)
        assert sorted(packed.indices.tolist()) == list(range(40))
        assert not set(rows.tolist()) & set(packed.rows.tolist())
        assert_training_agrees(trainer, ids, rng.integers(0, 2, size=40), groups)
        # Alone, group 0 packs nothing at all.
        alone = trainer.pack(ids[groups == 0], groups[groups == 0])
        assert alone.blocks == [] and alone.sparse_entries == 40

    def test_one_candidate_variables_without_entries(self):
        # Variables 0 and 2 have one candidate and no entries; they dilute
        # their group's fill and change nothing else.
        values = [1.0, -1.0, 0.5, 2.0, -2.0]
        entries = ([1, 1, 3, 3, 3], [0, 1, 0, 1, 2], [0] * 5, values)
        trainer = SoftmaxTrainer(build(1, [1, 2, 1, 3], entries), epochs=10)
        ids, groups = np.array([3, 0, 1, 2]), np.zeros(4, dtype=np.int64)
        packed = assert_kernels_agree(trainer, ids, groups)
        ((rows, _, dense),) = packed.blocks
        assert rows.tolist() == list(range(7))
        assert dense.ravel().tolist() == [0.5, 2.0, -2.0, 0.0, 1.0, -1.0, 0.0]
        result = assert_training_agrees(trainer, ids, [1, 0, 0, 0], groups)
        marginals = trainer.marginals(result.weights, [0, 2])
        assert marginals[0].tolist() == marginals[2].tolist() == [1.0]


@pytest.mark.parametrize(
    "generate",
    [lambda: generate_hospital(num_rows=300), lambda: generate_flights(num_flights=20)],
    ids=["hospital-300", "flights-20"],
)
def test_repair_equals_the_plan_with_groups_withheld(generate, monkeypatch):
    generated = generate()
    config = holoclean_config_for(generated)
    packed = HoloClean(config).repair(generated.dirty, generated.constraints)
    # There is no switch to flip: the stage always hands the groups over.
    monkeypatch.setattr("repro.core.stages.attribute_groups", lambda model, ids: None)
    sparse = HoloClean(config).repair(generated.dirty, generated.constraints)

    gauges = packed.report.metrics["gauges"]
    assert gauges["learn.blocks"] > 0
    assert gauges["learn.dense_slots"] <= 4 * gauges["learn.dense_entries"]
    assert gauges["learn.dense_entries"] > 10 * gauges["learn.sparse_entries"]
    assert sparse.report.metrics["gauges"]["learn.dense_entries"] == 0

    assert packed.num_repairs > 0
    assert {c: i.chosen_value for c, i in packed.repairs.items()} == {
        c: i.chosen_value for c, i in sparse.repairs.items()
    }
    assert len(packed.training_losses) == len(sparse.training_losses)
    losses = np.subtract(packed.training_losses, sparse.training_losses)
    assert np.abs(losses).max() <= 1e-9
    assert set(packed.inferences) == set(sparse.inferences)
    for cell, inference in packed.inferences.items():
        other = sparse.inferences[cell]
        assert inference.domain == other.domain
        assert np.abs(inference.marginal - other.marginal).max() <= 1e-9
