"""Tests for the Gibbs sampler."""

import itertools

import numpy as np
import pytest

from repro.dataset.dataset import Cell
from repro.inference.factor_graph import FactorGraph
from repro.inference.features import FeatureMatrixBuilder, FeatureSpace
from repro.inference.gibbs import GibbsSampler
from repro.inference.variables import VariableBlock


def independent_graph(bias=1.5):
    """Two independent query variables, candidate 0 favored by ``bias``."""
    space = FeatureSpace()
    builder = FeatureMatrixBuilder(space)
    block = VariableBlock()
    for i in range(2):
        block.add(Cell(i, "A"), ["x", "y"], 0, is_evidence=False)
        v = builder.start_variable(2)
        builder.add(v, 0, ("bias",), bias)
    graph = FactorGraph(block, builder.build(), space)
    weights = np.ones(len(space))
    return graph, weights


def coupled_graph():
    """Evidence variable fixed to candidate 1, hard factor pulls the query."""
    space = FeatureSpace()
    builder = FeatureMatrixBuilder(space)
    block = VariableBlock()
    block.add(Cell(0, "A"), ["x", "y"], 1, is_evidence=True)
    builder.start_variable(2)
    block.add(Cell(1, "A"), ["x", "y"], 0, is_evidence=False)
    builder.start_variable(2)
    graph = FactorGraph(block, builder.build(), space)
    agree = np.array([[1, -1], [-1, 1]], dtype=np.int8)
    graph.add_factor((0, 1), agree, weight=4.0)
    return graph, np.zeros(len(space))


class TestGibbsSampler:
    def test_initial_state_uses_evidence_and_init(self):
        graph, weights = coupled_graph()
        sampler = GibbsSampler(graph, weights)
        state = sampler.initial_state()
        assert state[0] == 1  # evidence observed value
        assert state[1] == 0  # query init value

    def test_initial_state_of_pruned_init_is_unary_map(self):
        space = FeatureSpace()
        builder = FeatureMatrixBuilder(space)
        block = VariableBlock()
        block.add(Cell(0, "A"), ["x", "y"], 1, is_evidence=False)
        builder.start_variable(2)
        block.add(Cell(1, "A"), ["x", "y", "z"], -1, is_evidence=False)
        v = builder.start_variable(3)
        builder.add(v, 1, ("bias",), 2.0)
        builder.add(v, 2, ("bias",), 2.0)
        graph = FactorGraph(block, builder.build(), space)
        state = GibbsSampler(graph, np.ones(len(space))).initial_state()
        assert state.tolist() == [1, 1]  # first maximum wins the tie

    def test_evidence_without_observed_value_rejected(self):
        graph, weights = coupled_graph()
        graph.variables.init_index[0] = -1  # the column is the storage
        with pytest.raises(ValueError, match="observed value"):
            GibbsSampler(graph, weights)

    def test_independent_marginals_are_the_exact_softmax(self):
        # No free neighbour: every conditional is the softmax itself, so
        # the averaged conditionals carry no sampling noise at all.
        graph, weights = independent_graph(bias=1.0)
        expected = np.exp(1.0) / (np.exp(1.0) + 1.0)
        for sweeps in (0, 7):
            result = GibbsSampler(graph, weights, seed=1).run(burn_in=3, sweeps=sweeps)
            for vid in (0, 1):
                assert result.marginals[vid] == pytest.approx([expected, 1 - expected])

    def test_hard_factor_pulls_query_to_evidence(self):
        graph, weights = coupled_graph()
        sampler = GibbsSampler(graph, weights, seed=2)
        result = sampler.run(burn_in=20, sweeps=200)
        # Factor weight 4.0 strongly favors agreeing with evidence (=1).
        assert result.map_index(1) == 1
        assert result.marginals[1][1] > 0.9

    def test_zero_sweeps_returns_conditional_at_final_state(self):
        graph, weights = coupled_graph()
        result = GibbsSampler(graph, weights).run(burn_in=0, sweeps=0)
        agree = np.exp(4.0) / (np.exp(4.0) + np.exp(-4.0))
        assert result.marginals[1] == pytest.approx([1 - agree, agree])
        assert (result.sweeps, result.samples, result.moves) == (0, 0, 0)

    def test_marginals_only_for_query_vars(self):
        graph, weights = coupled_graph()
        result = GibbsSampler(graph, weights).run(burn_in=2, sweeps=5)
        assert set(result.marginals) == {1}

    @pytest.mark.parametrize("burn_in, sweeps", [(0, -3), (-5, 2), (-1, -1)])
    def test_negative_counts_rejected(self, burn_in, sweeps):
        graph, weights = coupled_graph()
        with pytest.raises(ValueError, match=">= 0"):
            GibbsSampler(graph, weights).run(burn_in=burn_in, sweeps=sweeps)


# ---------------------------------------------------------------------------
# Exactness: sampled marginals vs brute-force joint enumeration
# ---------------------------------------------------------------------------
def factor_list(graph):
    """Every factor as ``(var_ids, table, weight, name)``."""
    return [graph.factor(i) for i in range(len(graph.factors))]


def unary_scores(graph, weights):
    """Per-variable views of the graph's flat unary score vector."""
    return np.split(graph.matrix.scores(weights), graph.matrix.var_row_start[1:-1])


def exact_marginals(graph, weights):
    """Query marginals by enumerating the full joint distribution.

    ``p(x) ∝ exp(Σ_v unary_v[x_v] + Σ_f w_f · table_f[x])`` with evidence
    variables pinned to their observed values — the distribution the
    sampler's colour-class steps must leave invariant.
    """
    unary = unary_scores(graph, weights)
    query = graph.variables.query_ids()
    state = np.zeros(len(graph.variables), dtype=np.int64)
    for var in graph.variables:
        if var.is_evidence:
            state[var.vid] = var.observed_index
    factors = factor_list(graph)
    marginals = {v: np.zeros(graph.variables[v].domain_size) for v in query}
    domains = [range(graph.variables[v].domain_size) for v in query]
    for assignment in itertools.product(*domains):
        for v, value in zip(query, assignment):
            state[v] = value
        log_p = sum(float(unary[v][state[v]]) for v in query)
        for var_ids, table, weight, _ in factors:
            log_p += weight * float(table[tuple(state[u] for u in var_ids)])
        weight = np.exp(log_p)
        for v, value in zip(query, assignment):
            marginals[v][value] += weight
    total = sum(marginals[query[0]]) if query else 1.0
    return {v: m / total for v, m in marginals.items()}


def three_variable_graph():
    """One evidence + two query variables, chained by soft factors.

    Small enough to enumerate (2 × 3 × 2 states) yet genuinely coupled:
    an agree-factor ties the evidence to query 1 and a mixed-sign factor
    ties query 1 to query 2, so no variable's marginal is a bare softmax.
    """
    space = FeatureSpace()
    builder = FeatureMatrixBuilder(space)
    block = VariableBlock()
    block.add(Cell(0, "A"), ["x", "y"], 1, is_evidence=True)
    builder.start_variable(2)
    block.add(Cell(1, "A"), ["x", "y", "z"], 0, is_evidence=False)
    v1 = builder.start_variable(3)
    builder.add(v1, 0, ("bias",), 0.7)
    builder.add(v1, 2, ("bias",), 0.3)
    block.add(Cell(2, "A"), ["x", "y"], 0, is_evidence=False)
    v2 = builder.start_variable(2)
    builder.add(v2, 1, ("bias",), 0.5)
    graph = FactorGraph(block, builder.build(), space)
    table01 = np.array([[1, -1, 1], [-1, 1, -1]], dtype=np.int8)
    graph.add_factor((0, 1), table01, 1.2, "tie01")
    table12 = np.array([[1, -1], [-1, 1], [1, 1]], dtype=np.int8)
    graph.add_factor((1, 2), table12, 0.8, "tie12")
    return graph, np.ones(len(space))


def random_graph(seed, free=5, extra_factors=4):
    """A seeded graph with every kind of factor member.

    Variable 0 is evidence, variable 1 a one-candidate query variable,
    the remaining ``free`` query variables have 2–3 candidates and random
    unary scores.  A three-way factor over free variables forces three
    colours, one arity-4 factor contains both fixed kinds, and
    ``extra_factors`` more of arity 2–4 land on random members.
    """
    rng = np.random.default_rng(seed)
    space = FeatureSpace()
    builder = FeatureMatrixBuilder(space)
    block = VariableBlock()
    sizes = [2, 1] + rng.integers(2, 4, size=free).tolist()
    for vid, size in enumerate(sizes):
        domain = [f"c{k}" for k in range(size)]
        block.add(Cell(vid, "A"), domain, int(rng.integers(size)), is_evidence=vid == 0)
        builder.start_variable(size)
        for candidate in range(size):
            builder.add(vid, candidate, ("bias", vid, candidate), rng.normal())
    graph = FactorGraph(block, builder.build(), space)
    scopes = [(2, 3, 4), (0, 1, 5, len(sizes) - 1)] + [
        tuple(rng.choice(len(sizes), size=rng.integers(2, 5), replace=False).tolist())
        for _ in range(extra_factors)
    ]
    for scope in scopes:
        table = rng.choice([-1, 1], size=[sizes[v] for v in scope]).astype(np.int8)
        graph.add_factor(scope, table, float(rng.uniform(0.1, 0.5)))
    return graph, np.ones(len(space))


def free_mask(graph):
    return np.array([not v.is_evidence and v.domain_size > 1 for v in graph.variables])


def exact_conditional(graph, weights, vid, state):
    """One variable's conditional given the rest, read off the tables."""
    scores = unary_scores(graph, weights)[vid].copy()
    trial = state.copy()
    for candidate in range(len(scores)):
        trial[vid] = candidate
        for var_ids, table, weight, _ in factor_list(graph):
            if vid in var_ids:
                scores[candidate] += weight * table[tuple(trial[u] for u in var_ids)]
    scores = np.exp(scores - scores.max())
    return scores / scores.sum()


class TestGibbsExactness:
    def test_marginals_match_joint_enumeration(self):
        graph, weights = three_variable_graph()
        expected = exact_marginals(graph, weights)
        sampler = GibbsSampler(graph, weights, seed=11)
        result = sampler.run(burn_in=100, sweeps=12000)
        assert set(result.marginals) == set(expected)
        for vid, marginal in expected.items():
            assert marginal.sum() == pytest.approx(1.0)
            np.testing.assert_allclose(result.marginals[vid], marginal, atol=0.01)

    @pytest.mark.parametrize("seed", range(6))
    def test_packed_conditionals_match_the_tables(self, seed):
        # No sampling noise: with zero sweeps the result is the conditional
        # at the initial state, which pins offsets, strides and padding.
        graph, weights = random_graph(seed, free=30, extra_factors=80)
        sampler = GibbsSampler(graph, weights)
        result = sampler.run(burn_in=0, sweeps=0)
        state = sampler.initial_state()
        for vid in graph.variables.query_ids():
            expected = exact_conditional(graph, weights, vid, state)
            np.testing.assert_allclose(result.marginals[vid], expected, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_mixed_arity_graphs_match_joint_enumeration(self, seed):
        graph, weights = random_graph(seed)
        assert set(np.diff(graph.factors.var_indptr).tolist()) >= {3, 4}
        expected = exact_marginals(graph, weights)
        sampler = GibbsSampler(graph, weights, seed=seed)
        assert sampler.num_colours >= 3
        result = sampler.run(burn_in=100, sweeps=12000)
        assert set(result.marginals) == set(expected)
        for vid, marginal in expected.items():
            np.testing.assert_allclose(result.marginals[vid], marginal, atol=0.01)

    def test_enumeration_reduces_to_softmax_when_independent(self):
        # Sanity check of the oracle itself: with no factors the exact
        # marginals are the per-variable softmaxes.
        graph, weights = independent_graph(bias=1.5)
        expected = exact_marginals(graph, weights)
        softmax = np.exp(1.5) / (np.exp(1.5) + 1.0)
        for vid in (0, 1):
            assert expected[vid][0] == pytest.approx(softmax)


class TestGibbsStructure:
    @pytest.mark.parametrize("seed", range(5))
    def test_colouring_separates_free_variables_that_share_a_factor(self, seed):
        graph, weights = random_graph(seed, free=40, extra_factors=60)
        sampler = GibbsSampler(graph, weights)
        free = free_mask(graph)
        assert np.array_equal(sampler.colour >= 0, free)
        assert sampler.num_free == free.sum()
        assert sampler.num_colours == sampler.colour.max() + 1
        for var_ids, _, _, _ in factor_list(graph):
            colours = [sampler.colour[v] for v in var_ids if free[v]]
            assert len(set(colours)) == len(colours)

    def test_cells_of_one_tuple_never_share_a_colour(self):
        # t0.A and t0.B share no factor, only the neighbour t0.C; apart,
        # the class shuffle can resample C between them.  t1.A touches
        # nothing and joins the first class.
        space = FeatureSpace()
        builder = FeatureMatrixBuilder(space)
        block = VariableBlock()
        for tid, attribute in [(0, "A"), (0, "B"), (0, "C"), (1, "A")]:
            block.add(Cell(tid, attribute), ["x", "y"], 0, is_evidence=False)
            builder.start_variable(2)
        graph = FactorGraph(block, builder.build(), space)
        agree = np.array([[1, -1], [-1, 1]], dtype=np.int8)
        graph.add_factor((0, 2), agree, 1.0)
        graph.add_factor((1, 2), agree, 1.0)
        sampler = GibbsSampler(graph, np.zeros(len(space)))
        assert len(set(sampler.colour[:3].tolist())) == 3
        assert sampler.colour[3] == 0
        assert sampler.num_colours == 3

    def test_fixed_query_variables_are_certain_and_never_drawn(self):
        graph, weights = random_graph(3)
        result = GibbsSampler(graph, weights, seed=3).run(burn_in=2, sweeps=5)
        assert 0 not in result.marginals  # evidence
        assert result.marginals[1].tolist() == [1.0]
        assert result.samples == 7 * free_mask(graph).sum()
        assert 0 <= result.moves <= result.samples

    def test_every_marginal_sums_to_one(self):
        graph, weights = random_graph(4, free=40, extra_factors=60)
        for sweeps in (0, 1, 8):
            result = GibbsSampler(graph, weights, seed=4).run(burn_in=1, sweeps=sweeps)
            for info in graph.variables:
                if not info.is_evidence:
                    marginal = result.marginals[info.vid]
                    assert marginal.shape == (info.domain_size,)
                    assert marginal.sum() == pytest.approx(1.0)
                    assert (marginal >= 0).all()

    def test_same_graph_and_seed_give_identical_marginals(self):
        graph, weights = random_graph(5, free=40, extra_factors=60)
        first = GibbsSampler(graph, weights, seed=7).run(burn_in=2, sweeps=8)
        second = GibbsSampler(graph, weights, seed=7).run(burn_in=2, sweeps=8)
        other = GibbsSampler(graph, weights, seed=8).run(burn_in=2, sweeps=8)
        assert (first.moves, first.samples) == (second.moves, second.samples)
        for vid, marginal in first.marginals.items():
            assert np.array_equal(marginal, second.marginals[vid])
        assert any(
            not np.array_equal(marginal, other.marginals[vid])
            for vid, marginal in first.marginals.items()
        )
