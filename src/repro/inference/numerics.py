"""Segmented numeric kernels shared by the learner and the sampler.

Variables own contiguous row ranges of a flat score vector (one row per
candidate value); these helpers compute numerically-stable softmax and
log-sum-exp per segment using ``reduceat``.
"""

from __future__ import annotations

import numpy as np


def segment_softmax(scores: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Softmax within each segment of ``scores``.

    ``starts`` has one entry per segment plus a terminal sentinel equal to
    ``len(scores)``.  Every segment must be non-empty (variables always
    have at least one candidate).
    """
    if len(starts) < 2:
        return np.empty(0, dtype=np.float64)
    sizes = np.diff(starts)
    if np.any(sizes <= 0):
        raise ValueError("segments must be non-empty")
    maxima = np.maximum.reduceat(scores, starts[:-1])
    shifted = scores - np.repeat(maxima, sizes)
    np.exp(shifted, out=shifted)
    sums = np.add.reduceat(shifted, starts[:-1])
    return shifted / np.repeat(sums, sizes)


def segment_argmax(scores: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Position within its segment of each segment's first maximum.

    A NaN counts as the maximum, so the first NaN of a segment wins:
    ``np.argmax``'s rule.
    """
    if len(starts) < 2:
        return np.empty(0, dtype=np.int64)
    sizes = np.diff(starts)
    if np.any(sizes <= 0):
        raise ValueError("segments must be non-empty")
    maxima = np.maximum.reduceat(scores, starts[:-1])
    hit = (scores == np.repeat(maxima, sizes)) | np.isnan(scores)
    hits = np.flatnonzero(hit)
    return hits[np.searchsorted(hits, starts[:-1])] - starts[:-1]


def segment_logsumexp(scores: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Log-sum-exp per segment (one value per segment)."""
    if len(starts) < 2:
        return np.empty(0, dtype=np.float64)
    sizes = np.diff(starts)
    if np.any(sizes <= 0):
        raise ValueError("segments must be non-empty")
    maxima = np.maximum.reduceat(scores, starts[:-1])
    shifted = np.exp(scores - np.repeat(maxima, sizes))
    sums = np.add.reduceat(shifted, starts[:-1])
    return maxima + np.log(sums)


def softmax(scores: np.ndarray) -> np.ndarray:
    """Plain stable softmax over a 1-D array."""
    m = scores.max()
    e = np.exp(scores - m)
    return e / e.sum()
