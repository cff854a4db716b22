"""The HoloClean facade over the staged repair API.

Reproduces the three-module workflow of Figure 2:

1. **Error detection** — denial-constraint violations (plus any extra
   detectors supplied by the caller) split the dataset into noisy and
   clean cells.
2. **Compilation** — Algorithm 2 prunes candidate domains, featurizers
   ground the unary rules, and (in factor variants) Algorithm 1 grounds
   denial constraints into factors, optionally restricted by Algorithm 3's
   tuple partitioning.  The factor self-join runs on the relational
   backend (``VectorPairEnumerator``); the resulting grounding counters
   surface in ``RepairResult.size_report``.
3. **Repair** — weights are learned by ERM over the evidence cells;
   marginals come from the exact softmax (independent-variable relaxation)
   or Gibbs sampling (factor variants); each noisy cell is assigned its
   MAP value.

:meth:`HoloClean.repair` is a thin veneer over
:meth:`repro.core.stages.RepairPlan.default` run on a fresh
:class:`~repro.core.stages.RepairContext`; callers that want partial
re-runs (reuse a detection, reuse a compiled model, inject feedback)
drive the stages directly — see :mod:`repro.core.stages` and
:class:`~repro.core.session.RepairSession`.  Timings for the three
phases are recorded exactly as the paper reports them (violation
detection / compilation / learning+inference).
"""

from __future__ import annotations

from repro.constraints.denial import DenialConstraint
from repro.constraints.matching import MatchingDependency
from repro.core.config import HoloCleanConfig
from repro.core.repair import RepairResult
from repro.core.stages import RepairContext, RepairPlan
from repro.dataset.dataset import Dataset
from repro.detect.base import DetectionResult, ErrorDetector
from repro.external.dictionary import ExternalDictionary


class HoloClean:
    """End-to-end holistic data repairing.

    Example
    -------
    >>> from repro import HoloClean, HoloCleanConfig, parse_dc
    >>> hc = HoloClean(HoloCleanConfig(tau=0.5))
    >>> result = hc.repair(dataset, constraints)        # doctest: +SKIP
    >>> result.repaired                                  # doctest: +SKIP
    """

    def __init__(self, config: HoloCleanConfig | None = None):
        self.config = config or HoloCleanConfig()

    # ------------------------------------------------------------------
    def repair(
        self,
        dataset: Dataset,
        constraints: list[DenialConstraint],
        dictionaries: list[ExternalDictionary] = (),
        matching_dependencies: list[MatchingDependency] = (),
        extra_detectors: list[ErrorDetector] = (),
        detection: DetectionResult | None = None,
    ) -> RepairResult:
        """Run the default plan end to end and return the repair result.

        Parameters
        ----------
        dataset:
            The dirty relation; it is not mutated (repairs land in a copy).
        constraints:
            Denial constraints Σ.
        dictionaries, matching_dependencies:
            Optional external information (Section 4.1's ``ExtDict``).
        extra_detectors:
            Additional error detectors whose findings are unioned with the
            violation detector's.
        detection:
            A precomputed detection result (skips the detect stage); used
            when callers share detection across configurations.
        """
        ctx = self.context(
            dataset,
            constraints,
            dictionaries=dictionaries,
            matching_dependencies=matching_dependencies,
            extra_detectors=extra_detectors,
            detection=detection,
        )
        return RepairPlan.default().run(ctx).result

    def context(
        self,
        dataset: Dataset,
        constraints: list[DenialConstraint],
        dictionaries: list[ExternalDictionary] = (),
        matching_dependencies: list[MatchingDependency] = (),
        extra_detectors: list[ErrorDetector] = (),
        detection: DetectionResult | None = None,
    ) -> RepairContext:
        """A fresh :class:`RepairContext` for staged execution.

        Use this instead of :meth:`repair` to keep the intermediate
        artifacts (detection, compiled model, weights, marginals) for
        partial re-runs.
        """
        return RepairContext(
            dataset=dataset,
            constraints=list(constraints),
            config=self.config,
            dictionaries=list(dictionaries),
            matching_dependencies=list(matching_dependencies),
            extra_detectors=list(extra_detectors),
            detection=detection,
        )
