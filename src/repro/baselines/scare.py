"""SCARE (Yakout, Berti-Équille, Elmagarmid — SIGMOD 2013) [39].

"Scalable automatic repairing with maximal likelihood and bounded
changes": a machine-learning repair method that uses **no integrity
constraints**.  SCARE models the distribution of each (flexible)
attribute given the rest of the tuple — explicitly exploiting the
dependency structure between attributes — proposes the maximal-
likelihood value for every cell, and applies at most δ changes per
tuple, keeping only updates whose likelihood gain over the observed
value exceeds a threshold.

Our value model is a *weighted product of experts*: every other cell of
the tuple predicts the target value through the smoothed conditional
``P(v | c_i)``, and each expert is weighted by the uncertainty
coefficient (Theil's U) of the attribute pair — the fraction of the
target attribute's entropy the expert's attribute explains.  This is the
dependency-aware likelihood at the heart of SCARE: uninformative context
attributes (a hospital id says nothing about which quality measure a row
carries) are automatically ignored, while near-functional ones dominate.

Published behaviour preserved:

* works well when duplication is plentiful (Hospital);
* poor recall when duplicates are scarce (Flights);
* cost grows with the active-domain size — on the paper's Food and
  Physicians datasets SCARE "failed to terminate after three days",
  which the ``time_budget`` reproduces as a :class:`MethodTimeout`.
"""

from __future__ import annotations

import math
from collections import Counter

from repro.baselines.base import Deadline, MethodResult, RepairMethod
from repro.dataset.dataset import Cell, Dataset
from repro.dataset.stats import Statistics


class ScareRepair(RepairMethod):
    """Maximal-likelihood value modification with bounded changes.

    Parameters
    ----------
    attributes:
        Flexible attributes eligible for update (defaults to all data
        attributes).
    max_changes_per_tuple:
        The paper's δ: bound on updates within one tuple.
    min_log_gain:
        Minimum weighted log-likelihood advantage of the proposed value
        over the observed one (the reliability threshold on updates).
    smoothing:
        Dirichlet smoothing α for the per-expert conditionals.
    time_budget:
        Seconds before raising :class:`MethodTimeout`.
    """

    name = "SCARE"

    def __init__(self, attributes: list[str] | None = None,
                 max_changes_per_tuple: int = 2, min_log_gain: float = 6.0,
                 smoothing: float = 1.0, sample_fraction: float = 0.7,
                 seed: int = 0, time_budget: float | None = None):
        self.attributes = attributes
        self.max_changes_per_tuple = max_changes_per_tuple
        self.min_log_gain = min_log_gain
        self.smoothing = smoothing
        #: SCARE learns its model from horizontal partitions of the data
        #: (the "scalable" in its name); statistics come from a random
        #: block of this fraction of tuples rather than the full relation.
        self.sample_fraction = sample_fraction
        self.seed = seed
        self.time_budget = time_budget
        self._u_cache: dict[tuple[str, str], float] = {}

    # ------------------------------------------------------------------
    def run(self, dataset: Dataset) -> MethodResult:
        deadline = Deadline(self.time_budget)
        stats = Statistics(self._training_block(dataset))
        attrs = self.attributes or dataset.schema.data_attributes
        self._u_cache.clear()
        repaired = dataset.copy()
        repairs: dict[Cell, str] = {}

        for tid in dataset.tuple_ids:
            deadline.check(self.name)
            row = dataset.tuple_dict(tid)
            proposals: list[tuple[float, Cell, str]] = []
            for attr in attrs:
                observed = row.get(attr)
                best_value, gain = self._best_value(stats, attrs, row, attr,
                                                    observed)
                if best_value is None or best_value == observed:
                    continue
                if gain >= self.min_log_gain:
                    proposals.append((gain, Cell(tid, attr), best_value))
            proposals.sort(key=lambda p: -p[0])
            for gain, cell, value in proposals[: self.max_changes_per_tuple]:
                repaired.set_value(cell.tid, cell.attribute, value)
                repairs[cell] = value
        return MethodResult(repaired=repaired, repairs=repairs,
                            runtime=deadline.elapsed)

    def _training_block(self, dataset: Dataset) -> Dataset:
        """The horizontal sample the value model is learned from."""
        if self.sample_fraction >= 1.0:
            return dataset
        import numpy as np

        rng = np.random.default_rng(self.seed)
        size = max(2, int(dataset.num_tuples * self.sample_fraction))
        picked = sorted(rng.choice(dataset.num_tuples, size=size,
                                   replace=False))
        rows = [dataset.row(tid) for tid in picked]
        return Dataset(dataset.schema, rows, name=f"{dataset.name}-block")

    # ------------------------------------------------------------------
    # Dependency structure: Theil's uncertainty coefficient U(A | B)
    # ------------------------------------------------------------------
    def _uncertainty(self, stats: Statistics, target: str,
                     given: str) -> float:
        """``I(target; given) / H(target)`` in [0, 1] (cached)."""
        key = (target, given)
        cached = self._u_cache.get(key)
        if cached is not None:
            return cached
        target_counts = stats.counts(target)
        total = sum(target_counts.values())
        if total == 0:
            self._u_cache[key] = 0.0
            return 0.0
        h_target = -sum((n / total) * math.log(n / total)
                        for n in target_counts.values())
        if h_target <= 1e-12:
            self._u_cache[key] = 0.0
            return 0.0
        # Conditional entropy H(target | given) from pair counts.
        pair = stats.pair_counts(target, given)
        by_given: Counter[str] = Counter()
        for (_tv, gv), n in pair.items():
            by_given[gv] += n
        h_cond = 0.0
        pair_total = sum(by_given.values())
        if pair_total == 0:
            self._u_cache[key] = 0.0
            return 0.0
        for (tv, gv), n in pair.items():
            p_joint = n / pair_total
            p_cond = n / by_given[gv]
            h_cond -= p_joint * math.log(p_cond)
        u = max(0.0, min(1.0, (h_target - h_cond) / h_target))
        self._u_cache[key] = u
        return u

    # ------------------------------------------------------------------
    def _best_value(self, stats: Statistics, attrs: list[str],
                    row: dict[str, str | None], attr: str,
                    observed: str | None):
        """Maximal-likelihood value for one cell and its gain over observed.

        Candidates are every attribute value that co-occurs with at least
        one of the tuple's other cell values — any other value has
        vanishing likelihood under the dependency model.
        """
        context = [(a, row[a]) for a in attrs
                   if a != attr and row.get(a) is not None]
        if not context:
            return None, 0.0
        if observed is not None and stats.frequency(attr, observed) == 0:
            # The observed value is outside the learned block's
            # vocabulary: the model cannot assess it, so the bounded-
            # changes policy abstains rather than guessing.
            return None, 0.0
        weights = [(a, v, self._uncertainty(stats, attr, a))
                   for a, v in context]
        weights = [(a, v, u) for a, v, u in weights if u > 0.05]
        if not weights:
            return None, 0.0
        candidates: set[str] = set()
        for other_attr, other_value, _u in weights:
            candidates.update(
                stats.cooccurring_values(attr, other_attr, other_value))
        if observed is not None:
            candidates.add(observed)
        if len(candidates) < 2:
            return None, 0.0

        best_value, best_score = None, -math.inf
        observed_score = -math.inf
        for value in sorted(candidates):
            score = self._log_likelihood(stats, weights, attr, value)
            if score > best_score:
                best_value, best_score = value, score
            if value == observed:
                observed_score = score
        if observed is None:
            # Missing value: any confident prediction is a gain.
            return best_value, best_score - (-50.0)
        return best_value, best_score - observed_score

    def _log_likelihood(self, stats: Statistics, weighted_context,
                        attr: str, value: str) -> float:
        """``log P(v) + Σ_i U_i · log P(v | c_i)`` (weighted experts).

        Conditionals are Dirichlet-smoothed toward the value's marginal:
        ``P(v|c) = (joint + α·P(v)) / (freq_c + α)``.
        """
        alpha = self.smoothing
        total = sum(stats.counts(attr).values())
        freq_v = stats.frequency(attr, value)
        rf_v = freq_v / max(total, 1)
        score = math.log((freq_v + 1.0)
                         / (total + max(stats.num_distinct(attr), 1)))
        for other_attr, other_value, u in weighted_context:
            joint = stats.cooccurrence(attr, value, other_attr, other_value)
            freq_c = stats.frequency(other_attr, other_value)
            conditional = (joint + alpha * rf_v) / (freq_c + alpha)
            score += u * math.log(max(conditional, 1e-12))
        return score
