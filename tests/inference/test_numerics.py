"""Tests for segmented numeric kernels."""

import numpy as np
import pytest

from repro.inference.numerics import (
    segment_argmax,
    segment_logsumexp,
    segment_sizes,
    segment_softmax,
    softmax,
)


class TestSegmentSoftmax:
    def test_two_segments(self):
        scores = np.array([0.0, 0.0, 1.0, 2.0, 3.0])
        starts = np.array([0, 2, 5])
        probs = segment_softmax(scores, starts)
        assert probs[:2] == pytest.approx([0.5, 0.5])
        assert probs[2:].sum() == pytest.approx(1.0)
        assert probs[4] > probs[3] > probs[2]

    def test_numerical_stability_large_scores(self):
        scores = np.array([1000.0, 1001.0])
        probs = segment_softmax(scores, np.array([0, 2]))
        assert np.isfinite(probs).all()
        assert probs.sum() == pytest.approx(1.0)

    def test_empty_segment_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            segment_softmax(np.array([1.0]), np.array([0, 0, 1]))

    def test_no_segments(self):
        assert len(segment_softmax(np.array([]), np.array([0]))) == 0

    def test_singleton_segment_is_one(self):
        probs = segment_softmax(np.array([42.0]), np.array([0, 1]))
        assert probs[0] == pytest.approx(1.0)


class TestSegmentArgmax:
    def test_first_maximum_per_segment(self):
        scores = np.array([1.0, 3.0, 3.0, -2.0, 0.5, 0.1, 0.9])
        starts = np.array([0, 3, 4, 7])
        assert segment_argmax(scores, starts).tolist() == [1, 0, 2]

    def test_matches_numpy_argmax(self):
        rng = np.random.default_rng(0)
        sizes = rng.integers(1, 6, size=50)
        starts = np.concatenate(([0], np.cumsum(sizes)))
        scores = rng.integers(0, 4, size=starts[-1]).astype(np.float64)
        expected = [int(np.argmax(scores[a:b])) for a, b in zip(starts, starts[1:])]
        assert segment_argmax(scores, starts).tolist() == expected

    def test_first_nan_counts_as_the_maximum(self):
        scores = np.array([1.0, np.nan, 3.0, np.nan, 2.0, np.nan, np.nan, 0.5])
        starts = np.array([0, 3, 5, 8])
        expected = [int(np.argmax(scores[a:b])) for a, b in zip(starts, starts[1:])]
        assert segment_argmax(scores, starts).tolist() == expected == [1, 0, 0]

    def test_no_segments_and_empty_segment(self):
        assert len(segment_argmax(np.array([]), np.array([0]))) == 0
        with pytest.raises(ValueError, match="non-empty"):
            segment_argmax(np.array([1.0]), np.array([0, 0, 1]))


class TestSegmentLogsumexp:
    def test_matches_direct_computation(self):
        scores = np.array([1.0, 2.0, 3.0, -1.0])
        starts = np.array([0, 3, 4])
        result = segment_logsumexp(scores, starts)
        expected0 = np.log(np.exp(scores[:3]).sum())
        assert result[0] == pytest.approx(expected0)
        assert result[1] == pytest.approx(-1.0)

    def test_stable_for_large_values(self):
        result = segment_logsumexp(np.array([1e4, 1e4]), np.array([0, 2]))
        assert result[0] == pytest.approx(1e4 + np.log(2))


class TestHelpers:
    def test_segment_sizes(self):
        assert list(segment_sizes(np.array([0, 2, 5]))) == [2, 3]

    def test_plain_softmax(self):
        p = softmax(np.array([0.0, np.log(3.0)]))
        assert p == pytest.approx([0.25, 0.75])
