"""Tests for the ERM softmax trainer."""

import numpy as np
import pytest

from repro.engine.ops import expand_ranges
from repro.inference.features import FeatureMatrixBuilder, FeatureSpace
from repro.inference.softmax import SoftmaxTrainer


def build_separable(num_vars=30):
    """Variables with 2 candidates; feature 'good' marks the label."""
    space = FeatureSpace()
    builder = FeatureMatrixBuilder(space)
    labels = []
    for i in range(num_vars):
        v = builder.start_variable(2)
        label = i % 2
        builder.add(v, label, ("good",), 1.0)
        builder.add(v, 1 - label, ("bad",), 1.0)
        labels.append(label)
    return builder.build(), space, labels


class TestTraining:
    def test_learns_separable_problem(self):
        matrix, space, labels = build_separable()
        trainer = SoftmaxTrainer(matrix, epochs=60, learning_rate=0.3)
        result = trainer.train(list(range(matrix.num_vars)), labels)
        good = result.weights[space.index(("good",))]
        bad = result.weights[space.index(("bad",))]
        assert good > bad
        assert result.losses[-1] < result.losses[0]

    def test_fixed_weights_not_updated(self):
        matrix, space, labels = build_separable()
        idx = space.index(("bad",))
        trainer = SoftmaxTrainer(matrix, epochs=30, fixed_weights={idx: 0.7})
        result = trainer.train(list(range(matrix.num_vars)), labels)
        assert result.weights[idx] == pytest.approx(0.7)

    def test_l2_shrinks_weights(self):
        matrix, _, labels = build_separable()
        ids = list(range(matrix.num_vars))
        small = SoftmaxTrainer(matrix, epochs=60, l2=0.0).train(ids, labels)
        large = SoftmaxTrainer(matrix, epochs=60, l2=1.0).train(ids, labels)
        assert np.abs(large.weights).max() < np.abs(small.weights).max()

    def test_empty_training_returns_fixed(self):
        matrix, space, _ = build_separable()
        idx = space.index(("good",))
        trainer = SoftmaxTrainer(matrix, fixed_weights={idx: 2.0})
        result = trainer.train([], [])
        assert result.weights[idx] == 2.0
        assert result.epochs_run == 0

    def test_label_out_of_domain_rejected(self):
        matrix, _, labels = build_separable()
        trainer = SoftmaxTrainer(matrix)
        with pytest.raises(ValueError, match="outside"):
            trainer.train([0], [5])

    def test_mismatched_lengths_rejected(self):
        matrix, _, _ = build_separable()
        with pytest.raises(ValueError, match="align"):
            SoftmaxTrainer(matrix).train([0, 1], [0])

    def test_repeated_variable_rejected(self):
        # A second label for a variable is the caller's decision
        # (LearnStage.train: the verified label replaces the weak one),
        # never a second copy that silently loses its entries.
        matrix, _, _ = build_separable()
        with pytest.raises(ValueError, match="more than once"):
            SoftmaxTrainer(matrix).train([0, 1, 0], [0, 1, 1])

    @pytest.mark.parametrize(
        "groups",
        [
            [0, 1],  # one short
            [[0, 1, 0]],  # not one per variable
            [0, -1, 0],
            [0.0, 1.0, 0.0],
            ["a", "b", "a"],
        ],
    )
    def test_malformed_groups_rejected(self, groups):
        matrix, _, _ = build_separable()
        with pytest.raises(ValueError, match="one non-negative integer per"):
            SoftmaxTrainer(matrix).train([0, 1, 2], [0, 1, 0], groups=groups)

    def test_subsample_keeps_each_variable_its_group(self):
        # Variables 0-19 in group 0, 20-39 in group 1: a pick that left
        # ``groups`` in input order would pack the wrong rows together.
        matrix, _, labels = build_separable(num_vars=40)
        ids, labels = np.arange(40), np.asarray(labels)
        groups = np.repeat([0, 1], 20)
        capped = SoftmaxTrainer(matrix, epochs=8, max_training_vars=10, seed=5)
        pick = np.random.default_rng(5).choice(40, size=10, replace=False)
        assert len(set(groups[pick])) == 2
        got = capped.train(ids, labels, groups=groups)
        want = SoftmaxTrainer(matrix, epochs=8).train(
            ids[pick], labels[pick], groups=groups[pick]
        )
        assert np.array_equal(got.weights, want.weights)
        assert got.losses == want.losses
        assert (got.blocks, got.dense_slots) == (want.blocks, want.dense_slots)

    def test_stop_rule_never_fires_before_the_tail(self):
        """Documents a defect; it does not endorse it.

        ``best_loss`` starts at ``inf``, so ``best_loss - loss >
        tolerance * max(1, best_loss)`` reads ``inf > inf``: False on
        every epoch.  ``best_loss`` is never assigned, ``stall`` counts
        every epoch, and every run breaks at ``int(0.75 * epochs)`` — on
        a loss that is still falling — with a "tail average" over exactly
        one iterate.  The fix (seed ``best_loss`` from the first epoch)
        moves every learned weight, so it waits for a quality re-baseline;
        see ROADMAP "Carried over".
        """
        matrix, _, labels = build_separable()
        ids = list(range(matrix.num_vars))
        result = SoftmaxTrainer(matrix, epochs=60).train(ids, labels)
        assert result.epochs_run == int(0.75 * 60)
        falling = -np.diff(result.losses)
        assert np.all(falling[-5:] > 1e-6 * max(1.0, result.losses[-1]))
        # 45 epochs with the tail average switched off end on the same
        # weights: the average above covered the last iterate alone.
        last = SoftmaxTrainer(matrix, epochs=45, average_tail=0.0).train(ids, labels)
        assert last.epochs_run == 45
        assert np.array_equal(result.weights, last.weights)

    def test_subsampling_cap(self):
        matrix, _, labels = build_separable(num_vars=40)
        trainer = SoftmaxTrainer(matrix, epochs=5, max_training_vars=10)
        result = trainer.train(list(range(40)), labels)
        assert np.isfinite(result.final_loss)

    def test_deterministic_given_seed(self):
        matrix, _, labels = build_separable(num_vars=40)
        runs = []
        for _ in range(2):
            trainer = SoftmaxTrainer(matrix, epochs=10, max_training_vars=10, seed=3)
            runs.append(trainer.train(list(range(40)), labels).weights)
        assert np.array_equal(runs[0], runs[1])


def build_random(seed, strip_singletons=False, coalesce=False):
    """A matrix of 60 variables with 1-4 candidates over 12 keys.

    Every row draws up to 5 (key, value) entries, repeats allowed, values
    in eighths so a repeat's sum is exact.  ``strip_singletons`` leaves
    the one-candidate variables without entries; ``coalesce`` lands one
    summed entry per (row, key) in first-appearance order.  Both twins
    share the key space of the plain build.
    """
    rng = np.random.default_rng(seed)
    space = FeatureSpace()
    for k in range(12):
        space.index(("k", k))
    builder = FeatureMatrixBuilder(space)
    sizes = rng.integers(1, 5, size=60).tolist()
    labels = []
    for size in sizes:
        v = builder.start_variable(size)
        labels.append(int(rng.integers(size)))
        for cand in range(size):
            keys = rng.integers(12, size=int(rng.integers(6))).tolist()
            values = (rng.integers(1, 9, size=len(keys)) / 8.0).tolist()
            if size == 1 and strip_singletons:
                continue
            if coalesce:
                summed: dict[int, float] = {}
                for k, value in zip(keys, values):
                    summed[k] = summed.get(k, 0.0) + value
                keys, values = list(summed), list(summed.values())
            for k, value in zip(keys, values):
                builder.add(v, cand, ("k", k), value)
    return builder.build(), sizes, labels


def mask_gather(matrix, train_rows):
    """The whole-matrix gather the trainer used before the row-range one."""
    entry_rows = matrix.entry_row_ids()
    in_train = np.zeros(matrix.num_rows, dtype=bool)
    in_train[train_rows] = True
    keep = in_train[entry_rows]
    global_to_comp = np.full(matrix.num_rows, -1, dtype=np.int64)
    global_to_comp[train_rows] = np.arange(len(train_rows))
    return matrix.indices[keep], matrix.values[keep], global_to_comp[entry_rows[keep]]


class TestMatrixRules:
    """What the trainer may assume about a matrix, and what it may not."""

    @pytest.mark.parametrize("seed", range(5))
    def test_entries_on_one_candidate_variables_are_never_read(self, seed):
        full, sizes, labels = build_random(seed)
        lean, _, _ = build_random(seed, strip_singletons=True)
        assert 1 in sizes and lean.num_entries < full.num_entries
        multi = [v for v, size in enumerate(sizes) if size > 1]
        for ids in (list(range(len(sizes))), multi):  # singletons trained on or not
            picked = [labels[v] for v in ids]
            a = SoftmaxTrainer(full, epochs=25).train(ids, picked)
            b = SoftmaxTrainer(lean, epochs=25).train(ids, picked)
            assert np.array_equal(a.weights, b.weights)
            assert a.losses == b.losses

    @pytest.mark.parametrize("seed", range(5))
    def test_repeated_row_key_entries_mean_their_sum(self, seed):
        repeated, sizes, labels = build_random(seed)
        coalesced, _, _ = build_random(seed, coalesce=True)
        assert coalesced.num_entries < repeated.num_entries
        ids = list(range(len(sizes)))
        a = SoftmaxTrainer(repeated, epochs=25)
        b = SoftmaxTrainer(coalesced, epochs=25)
        wa, wb = a.train(ids, labels).weights, b.train(ids, labels).weights
        assert np.abs(wa - wb).max() < 1e-12
        ma, mb = a.marginals(wa, ids), b.marginals(wb, ids)
        assert all(np.abs(ma[v] - mb[v]).max() < 1e-12 for v in ids)

    @pytest.mark.parametrize("seed", range(5))
    def test_row_range_gather_equals_the_mask_gather(self, seed):
        matrix, sizes, _ = build_random(seed)
        rng = np.random.default_rng(seed)
        n = len(sizes)
        id_lists = {
            "ascending": np.arange(n),
            "shuffled": rng.permutation(n),
            "subsampled": rng.choice(n, size=n // 3, replace=False),
            "interleaved": np.arange(n).reshape(2, -1).T.ravel(),
        }
        trainer = SoftmaxTrainer(matrix)
        for name, ids in id_lists.items():
            starts = matrix.var_row_start
            rows = expand_ranges(starts[ids], starts[ids + 1] - starts[ids])
            for got, want in zip(trainer._gather(rows), mask_gather(matrix, rows)):
                assert np.array_equal(got, want), name


class TestMarginals:
    def test_sum_to_one(self):
        matrix, _, labels = build_separable()
        trainer = SoftmaxTrainer(matrix, epochs=30)
        result = trainer.train(list(range(matrix.num_vars)), labels)
        marginals = trainer.marginals(result.weights, [0, 1, 2])
        for m in marginals.values():
            assert m.sum() == pytest.approx(1.0)

    def test_favor_learned_candidate(self):
        matrix, _, labels = build_separable()
        trainer = SoftmaxTrainer(matrix, epochs=60, learning_rate=0.3)
        result = trainer.train(list(range(matrix.num_vars)), labels)
        marginals = trainer.marginals(result.weights, [0])
        assert marginals[0][labels[0]] > 0.5

    def test_entryless_variables_are_certain(self):
        # All requested variables have one candidate and so no entries.
        builder = FeatureMatrixBuilder(FeatureSpace())
        builder.start_variables([1, 1])
        marginals = SoftmaxTrainer(builder.build()).marginals(np.zeros(0), [1, 0])
        assert [marginals[v].tolist() for v in (0, 1)] == [[1.0], [1.0]]


class TestRestrictedMarginals:
    def test_subset_matches_full_scores(self):
        """Scoring only the requested rows reproduces the full pass bit
        for bit (same entries, same summation order)."""
        matrix, _, labels = build_separable()
        trainer = SoftmaxTrainer(matrix, epochs=20)
        weights = trainer.train(list(range(matrix.num_vars)), labels).weights
        scores = matrix.scores(weights)
        for var_ids in ([2], [0, 3], list(range(matrix.num_vars))):
            marginals = trainer.marginals(weights, var_ids)
            assert sorted(marginals) == sorted(var_ids)
            for v in var_ids:
                lo = int(matrix.var_row_start[v])
                hi = int(matrix.var_row_start[v + 1])
                s = scores[lo:hi]
                e = np.exp(s - s.max())
                assert np.array_equal(marginals[v], e / e.sum())

    def test_empty_request(self):
        matrix, _, _ = build_separable()
        trainer = SoftmaxTrainer(matrix)
        assert trainer.marginals(np.zeros(matrix.num_features), []) == {}
