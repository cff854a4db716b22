"""Fixture self-tests: the hot-path purity checker."""

from __future__ import annotations

from repro.analysis.purity import PurityChecker
from repro.analysis.runner import run_checkers

VECTORIZED = "src/repro/core/partition.py"


def check(make_ctx, module):
    return PurityChecker().check(make_ctx(module))


def test_range_len_loop_flagged(make_module, make_ctx):
    bad = make_module(
        VECTORIZED,
        """
        def walk(rows):
            out = []
            for i in range(len(rows)):
                out.append(rows[i])
            return out
        """,
    )
    findings = check(make_ctx, bad)
    assert [f.rule for f in findings] == ["loop"]
    assert findings[0].path == VECTORIZED


def test_shape_extent_and_tolist_flagged(make_module, make_ctx):
    bad = make_module(
        VECTORIZED,
        """
        def walk(arr):
            for i in range(arr.shape[0]):
                pass
            for v in arr.tolist():
                pass
            for i, v in enumerate(arr.tolist()):
                pass
        """,
    )
    assert [f.rule for f in check(make_ctx, bad)] == ["loop"] * 3


def test_comprehension_flagged(make_module, make_ctx):
    bad = make_module(
        VECTORIZED,
        """
        def walk(arr):
            return [v + 1 for v in arr.tolist()]
        """,
    )
    assert [f.rule for f in check(make_ctx, bad)] == ["loop"]


def test_column_and_group_loops_clean(make_module, make_ctx):
    good = make_module(
        VECTORIZED,
        """
        def per_column(schema, columns):
            for attr, col in zip(schema, columns):
                yield attr, col.sum()

        def per_constraint(constraints):
            for dc in constraints:
                yield dc
        """,
    )
    assert check(make_ctx, good) == []


def test_non_vectorized_module_ignored(make_module, make_ctx):
    elsewhere = make_module(
        "src/repro/core/stages.py",
        """
        def walk(rows):
            for i in range(len(rows)):
                pass
        """,
    )
    assert check(make_ctx, elsewhere) == []


GIBBS = "src/repro/inference/gibbs.py"


def test_gibbs_per_variable_loop_flagged(make_module, make_ctx):
    # The single-site sampler's shape: one conditional + one draw per
    # variable per sweep.  It must not come back unnoticed.
    bad = make_module(
        GIBBS,
        """
        def sweep(order, state, rng):
            for vid in order.tolist():
                state[vid] = rng.choice(2)
            for i in range(len(order)):
                state[order[i]] = 0
        """,
    )
    findings = check(make_ctx, bad)
    assert [(f.rule, f.path) for f in findings] == [("loop", GIBBS)] * 2


def test_gibbs_sweep_and_colour_loops_clean(make_module, make_ctx):
    good = make_module(
        GIBBS,
        """
        def run(classes, rng, burn_in, sweeps, num_colours):
            for sweep in range(burn_in + sweeps):
                for c in rng.permutation(num_colours):
                    classes[c].step()
            for cls in classes:
                cls.finish()
        """,
    )
    assert check(make_ctx, good) == []


def test_real_gibbs_module_has_one_audited_loop(repo_ctx):
    # Before pragma suppression: the sequential greedy colouring (a setup
    # pass over free variables, pragma-audited) and nothing else.
    assert GIBBS in PurityChecker.modules
    raw = [f for f in PurityChecker().check(repo_ctx) if f.path == GIBBS]
    assert len(raw) == 1


SOFTMAX = "src/repro/inference/softmax.py"
FEATURES = "src/repro/inference/features.py"


def test_learner_per_variable_and_per_row_loops_flagged(make_module, make_ctx):
    # The shapes the learner and the matrix must not grow back unnoticed:
    # a Python step per requested variable, a dot product per matrix row.
    per_variable = make_module(
        SOFTMAX,
        """
        def marginals(probs, var_ids, bounds):
            return {v: probs[bounds[k] : bounds[k + 1]]
                    for k, v in enumerate(var_ids.tolist())}
        """,
    )
    per_row = make_module(
        FEATURES,
        """
        def scores(self, weights):
            out = []
            for r in range(self.num_rows):
                lo, hi = self.row_ptr[r], self.row_ptr[r + 1]
                out.append(weights[self.indices[lo:hi]] @ self.values[lo:hi])
            return out
        """,
    )
    assert [f.path for f in check(make_ctx, per_variable)] == [SOFTMAX]
    assert [f.path for f in check(make_ctx, per_row)] == [FEATURES]


def test_learner_epoch_and_pinned_weight_loops_clean(make_module, make_ctx):
    good = make_module(
        SOFTMAX,
        """
        def train(self, step):
            for epoch in range(1, self.epochs + 1):
                step(epoch)
            for idx, value in self.fixed_weights.items():
                step(idx)
        """,
    )
    assert check(make_ctx, good) == []


def test_real_learner_modules_have_no_per_row_loop(repo_ctx):
    # Before pragma suppression: nothing in the learner (marginals() hands
    # back one buffer behind a Mapping, not a dict built per variable) and
    # nothing in the matrix.
    assert {SOFTMAX, FEATURES} <= PurityChecker.modules
    raw = [f.path for f in PurityChecker().check(repo_ctx)]
    assert raw.count(SOFTMAX) == 0 and raw.count(FEATURES) == 0


FACTOR_GRAPH = "src/repro/inference/factor_graph.py"
FACTOR_TABLES = "src/repro/core/factor_tables.py"


def test_real_factor_modules_have_no_per_factor_loop(repo_ctx):
    # Before pragma suppression: nothing in the columnar factor store, and
    # in the table builder only the per-shape-group walk; the per-factor
    # object construction loop it used to carry is gone.
    assert {FACTOR_GRAPH, FACTOR_TABLES} <= PurityChecker.modules
    raw = [f.path for f in PurityChecker().check(repo_ctx)]
    assert raw.count(FACTOR_GRAPH) == 0 and raw.count(FACTOR_TABLES) == 1


RESULT = "src/repro/core/repair.py"


def test_real_result_module_has_no_per_cell_loop(repo_ctx):
    # Before pragma suppression: the repair result holds columns and builds
    # a ``CellInference`` only when a reader asks for one.
    assert RESULT in PurityChecker.modules
    raw = [f.path for f in PurityChecker().check(repo_ctx)]
    assert raw.count(RESULT) == 0


VIOLATIONS = "src/repro/detect/violations.py"


def test_real_detection_module_has_no_unsuppressed_loop(repo_ctx):
    # Residual and single-tuple predicates are masks over codes and every
    # two-tuple join streams through the engine in chunks: no pair loop is
    # left, and no pragma with it.
    assert VIOLATIONS in PurityChecker.modules
    raw = [f for f in PurityChecker().check(repo_ctx) if f.path == VIOLATIONS]
    findings, _ = run_checkers(repo_ctx, [PurityChecker()])
    assert len(raw) == 0
    assert [f for f in findings if f.path == VIOLATIONS] == []
