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

import numpy as np

from repro.baselines.base import Deadline, MethodResult, RepairMethod
from repro.dataset.dataset import NULL_CODE, Cell, Dataset
from repro.engine import Engine
from repro.engine.stats import EngineStatistics


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

    def __init__(
        self,
        attributes: list[str] | None = None,
        max_changes_per_tuple: int = 2,
        min_log_gain: float = 6.0,
        smoothing: float = 1.0,
        sample_fraction: float = 0.7,
        seed: int = 0,
        time_budget: float | None = None,
    ):
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
        #: Per attribute, the block's count of each of its codes, then a
        #: 0 at the code SCARE gives a value the block lacks.
        self._counts: dict[str, list[int]] = {}

    # ------------------------------------------------------------------
    def run(self, dataset: Dataset) -> MethodResult:
        deadline = Deadline(self.time_budget)
        engine = Engine(self._training_block(dataset))
        stats = engine.statistics()
        attrs = self.attributes or dataset.schema.data_attributes
        self._u_cache.clear()
        self._counts = {a: stats.code_counts(a).tolist() + [0] for a in attrs}
        values = [engine.store.values(a) for a in attrs]
        columns = [block_codes(dataset, a, v) for a, v in zip(attrs, values)]
        repaired = dataset.copy()
        repairs: dict[Cell, str] = {}

        for tid, row in enumerate(zip(*(c.tolist() for c in columns))):
            deadline.check(self.name)
            proposals: list[tuple[float, Cell, str]] = []
            for i, attr in enumerate(attrs):
                best, gain = self._best_value(stats, attrs, row, i, values[i])
                if best is None or best == row[i]:
                    continue
                if gain >= self.min_log_gain:
                    proposals.append((gain, Cell(tid, attr), values[i][best]))
            proposals.sort(key=lambda p: -p[0])
            for gain, cell, value in proposals[: self.max_changes_per_tuple]:
                repaired.set_value(cell.tid, cell.attribute, value)
                repairs[cell] = value
        return MethodResult(
            repaired=repaired, repairs=repairs, runtime=deadline.elapsed
        )

    def _training_block(self, dataset: Dataset) -> Dataset:
        """The horizontal sample the value model is learned from."""
        if self.sample_fraction >= 1.0:
            return dataset
        rng = np.random.default_rng(self.seed)
        size = max(2, int(dataset.num_tuples * self.sample_fraction))
        picked = sorted(rng.choice(dataset.num_tuples, size=size, replace=False))
        rows = [dataset.row(tid) for tid in picked]
        return Dataset(dataset.schema, rows, name=f"{dataset.name}-block")

    # ------------------------------------------------------------------
    # Dependency structure: Theil's uncertainty coefficient U(A | B)
    # ------------------------------------------------------------------
    def _uncertainty(self, stats: EngineStatistics, target: str, given: str) -> float:
        """``I(target; given) / H(target)`` in [0, 1] (cached)."""
        key = (target, given)
        if key not in self._u_cache:
            self._u_cache[key] = theil_u(stats, target, given)
        return self._u_cache[key]

    # ------------------------------------------------------------------
    def _best_value(
        self,
        stats: EngineStatistics,
        attrs: list[str],
        row: tuple[int, ...],
        i: int,
        values: list[str],
    ) -> tuple[int | None, float]:
        """Maximal-likelihood code for cell ``attrs[i]`` and its gain over
        the observed one.

        ``row`` holds the tuple's block codes (:func:`block_codes`) and
        ``values`` the block's value table of ``attrs[i]``.  Candidates are
        every value that co-occurs with at least one of the tuple's other
        cell values — any other value has vanishing likelihood under the
        dependency model.
        """
        attr, observed = attrs[i], row[i]
        context = [(a, c) for a, c in zip(attrs, row) if a != attr and c != NULL_CODE]
        if not context:
            return None, 0.0
        counts = self._counts[attr]
        if observed != NULL_CODE and counts[observed] == 0:
            # The observed value is outside the learned block's
            # vocabulary: the model cannot assess it, so the bounded-
            # changes policy abstains rather than guessing.
            return None, 0.0
        experts = []
        candidates: set[int] = set()
        for other, code in context:
            u = self._uncertainty(stats, attr, other)
            if u <= 0.05:
                continue
            # The block codes of ``attr`` seen with ``other = code``: none
            # for a value the block lacks.
            indptr, cooccurring, joint = stats.conditional_table(attr, other)
            joints = {}
            if code < len(indptr) - 1:
                lo, hi = indptr[code], indptr[code + 1]
                joints = dict(zip(cooccurring[lo:hi].tolist(), joint[lo:hi].tolist()))
            candidates.update(joints)
            experts.append((joints, self._counts[other][code], u))
        if not experts:
            return None, 0.0
        if observed != NULL_CODE:
            candidates.add(observed)
        if len(candidates) < 2:
            return None, 0.0

        best, best_score = None, -math.inf
        observed_score = -math.inf
        total = sum(counts)
        for code in sorted(candidates, key=values.__getitem__):
            score = self._log_likelihood(counts, total, experts, code)
            if score > best_score:
                best, best_score = code, score
            if code == observed:
                observed_score = score
        if observed == NULL_CODE:
            # Missing value: any confident prediction is a gain.
            return best, best_score - (-50.0)
        return best, best_score - observed_score

    def _log_likelihood(
        self, counts: list[int], total: int, experts, code: int
    ) -> float:
        """``log P(v) + Σ_i U_i · log P(v | c_i)`` (weighted experts).

        Conditionals are Dirichlet-smoothed toward the value's marginal:
        ``P(v|c) = (joint + α·P(v)) / (freq_c + α)``.
        """
        alpha = self.smoothing
        # Every code of the block's table occurs in it; the last slot is 0.
        distinct = len(counts) - 1
        freq_v = counts[code]
        rf_v = freq_v / max(total, 1)
        score = math.log((freq_v + 1.0) / (total + max(distinct, 1)))
        for joints, freq_c, u in experts:
            conditional = (joints.get(code, 0) + alpha * rf_v) / (freq_c + alpha)
            score += u * math.log(max(conditional, 1e-12))
        return score


def block_codes(dataset: Dataset, attribute: str, values: list[str]) -> np.ndarray:
    """``attribute``'s column of ``dataset`` in the block's code space.

    ``values`` is the block's value table; a value it lacks gets the code
    ``len(values)`` and NULL stays :data:`NULL_CODE`.  Python work is per
    distinct value of the column.
    """
    code_of = dict(zip(values, range(len(values))))
    codes, table = dataset.encoded(attribute)
    lut = [code_of.get(v, len(values)) for v in table]
    return np.array([*lut, NULL_CODE], dtype=np.int64)[codes]


def theil_u(stats: EngineStatistics, target: str, given: str) -> float:
    """Theil's uncertainty coefficient ``U(target | given)`` in [0, 1]."""
    counts = [n for n in stats.code_counts(target).tolist() if n]
    total = sum(counts)
    if total == 0:
        return 0.0
    h_target = -sum((n / total) * math.log(n / total) for n in counts)
    if h_target <= 1e-12:
        return 0.0
    # Conditional entropy H(target | given) from the joint code table.
    table = stats.joint_code_counts(target, given)
    pair_total = int(table[:, 2].sum())
    if pair_total == 0:
        return 0.0
    by_given = np.bincount(table[:, 1], table[:, 2]).astype(np.int64).tolist()
    h_cond = 0.0
    for g, n in zip(table[:, 1].tolist(), table[:, 2].tolist()):
        p_joint = n / pair_total
        p_cond = n / by_given[g]
        h_cond -= p_joint * math.log(p_cond)
    return max(0.0, min(1.0, (h_target - h_cond) / h_target))
