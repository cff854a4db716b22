"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.parser import format_dc, parse_dc
from repro.constraints.similarity import (
    jaccard,
    levenshtein,
    normalized_similarity,
)
from repro.oracle import DomainPruner
from repro.dataset.dataset import Cell, Dataset
from repro.dataset.schema import Schema
from repro.engine import Engine
from repro.eval.metrics import evaluate_repairs
from repro.inference.numerics import segment_logsumexp, segment_softmax

short_text = st.text(alphabet="abcxyz", max_size=12)


class TestLevenshteinMetric:
    @given(short_text)
    def test_identity(self, s):
        assert levenshtein(s, s) == 0

    @given(short_text, short_text)
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(short_text, short_text, short_text)
    @settings(max_examples=60)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(short_text, short_text)
    def test_bounded_by_longer_length(self, a, b):
        assert levenshtein(a, b) <= max(len(a), len(b))

    @given(short_text, short_text)
    def test_positivity(self, a, b):
        distance = levenshtein(a, b)
        assert distance >= 0
        assert (distance == 0) == (a == b)


class TestSimilarityRanges:
    @given(short_text, short_text)
    def test_normalized_in_unit_interval(self, a, b):
        assert 0.0 <= normalized_similarity(a, b) <= 1.0

    @given(short_text, short_text)
    def test_jaccard_in_unit_interval(self, a, b):
        assert 0.0 <= jaccard(a, b) <= 1.0


class TestSegmentKernels:
    @given(st.lists(st.lists(st.floats(-50, 50), min_size=1, max_size=6),
                    min_size=1, max_size=5))
    def test_softmax_sums_to_one_per_segment(self, segments):
        scores = np.array([x for seg in segments for x in seg])
        starts = np.cumsum([0] + [len(s) for s in segments])
        probs = segment_softmax(scores, starts)
        for i in range(len(segments)):
            assert probs[starts[i]:starts[i + 1]].sum() == pytest.approx(1.0)

    @given(st.lists(st.floats(-20, 20), min_size=1, max_size=8),
           st.floats(-5, 5))
    def test_softmax_shift_invariance(self, seg, shift):
        scores = np.array(seg)
        starts = np.array([0, len(seg)])
        a = segment_softmax(scores, starts)
        b = segment_softmax(scores + shift, starts)
        assert np.allclose(a, b)

    @given(st.lists(st.floats(-20, 20), min_size=1, max_size=8))
    def test_logsumexp_bounds(self, seg):
        scores = np.array(seg)
        lse = segment_logsumexp(scores, np.array([0, len(seg)]))[0]
        assert lse >= scores.max() - 1e-9
        assert lse <= scores.max() + np.log(len(seg)) + 1e-9


class TestStatisticsInvariants:
    @given(st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from("xyz")),
                    min_size=1, max_size=40))
    def test_conditionals_form_subdistribution(self, pairs):
        ds = Dataset(Schema(["A", "B"]), [[a, b] for a, b in pairs])
        stats = Engine(ds).statistics()
        given_counts = stats.code_counts("B").tolist()
        indptr, _codes, counts = stats.conditional_table("A", "B")
        for g, denom in enumerate(given_counts):
            # Pr[A = v | B = g] over the v seen with g sums to one.
            joint = counts[indptr[g]:indptr[g + 1]].sum()
            assert joint / denom == pytest.approx(1.0)

    @given(st.lists(st.tuples(st.sampled_from("ab"), st.sampled_from("xy")),
                    min_size=1, max_size=30))
    def test_cooccurrence_symmetry(self, pairs):
        ds = Dataset(Schema(["A", "B"]), [[a, b] for a, b in pairs])
        stats = Engine(ds).statistics()
        forward = stats.joint_code_counts("A", "B").tolist()
        # The second orientation is derived from the first's rows.
        swapped = stats.joint_code_counts("B", "A").tolist()
        assert sorted([a, b, n] for b, a, n in swapped) == forward


class TestDomainPruningMonotone:
    @given(st.lists(st.tuples(st.sampled_from("pq"), st.sampled_from("uvw")),
                    min_size=4, max_size=40),
           st.floats(0.05, 0.45), st.floats(0.5, 0.95))
    @settings(max_examples=40)
    def test_candidates_shrink_with_tau(self, pairs, low, high):
        ds = Dataset(Schema(["K", "V"]), [[k, v] for k, v in pairs])
        cell = Cell(0, "V")
        loose = set(DomainPruner(ds, tau=low).candidates(cell))
        tight = set(DomainPruner(ds, tau=high).candidates(cell))
        assert tight <= loose


class TestMetricsInvariants:
    @given(st.lists(st.sampled_from(["t", "e1", "e2"]), min_size=1,
                    max_size=20),
           st.lists(st.sampled_from(["t", "e1", "r"]), min_size=1,
                    max_size=20))
    @settings(max_examples=40)
    def test_bounds(self, dirty_vals, repaired_vals):
        n = min(len(dirty_vals), len(repaired_vals))
        schema = Schema(["A"])
        clean = Dataset(schema, [["t"]] * n)
        dirty = Dataset(schema, [[v] for v in dirty_vals[:n]])
        repaired = Dataset(schema, [[v] for v in repaired_vals[:n]])
        q = evaluate_repairs(dirty, repaired, clean)
        assert 0.0 <= q.precision <= 1.0
        assert 0.0 <= q.f1 <= 1.0
        if q.precision > 0:
            assert min(q.precision, q.recall) <= q.f1 <= \
                max(q.precision, q.recall) + 1e-9


class TestParserRoundTrip:
    attr_names = st.sampled_from(["Zip", "City", "State", "A1"])
    ops = st.sampled_from(["EQ", "IQ", "LT", "GT", "LTE", "GTE", "SIM"])

    @given(st.lists(st.tuples(ops, attr_names, attr_names), min_size=1,
                    max_size=4))
    @settings(max_examples=60)
    def test_roundtrip_stable(self, predicates):
        text = "t1&t2&" + "&".join(
            f"{op}(t1.{a1},t2.{a2})" for op, a1, a2 in predicates)
        dc = parse_dc(text)
        assert format_dc(parse_dc(format_dc(dc))) == format_dc(dc)
        assert len(dc.predicates) == len(predicates)
