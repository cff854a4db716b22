"""Probabilistic inference engine (the DeepDive substrate).

The paper runs its models on DeepDive v0.9 [37]: a declarative engine that
grounds DDlog rules into a factor graph, learns tied weights by SGD over
the evidence likelihood, and estimates marginals by Gibbs sampling.  This
package reimplements the parts HoloClean needs:

* :class:`FeatureSpace` / :class:`FeatureMatrix` — tied weights and sparse
  per-(variable, candidate) features, the groundings of unary inference
  rules such as ``Value?(t,a,d) :- HasFeature(t,a,f) weight = w(d,f)``.
* :class:`SoftmaxTrainer` — empirical-risk minimisation over the evidence
  variables (Section 2.2, "Data Repairing") with full-batch Adam; for the
  relaxed model of Section 5.2 the variables are independent, so the
  resulting per-variable softmax marginals are *exact*.
* :class:`FactorGraph` + :class:`GibbsSampler` — grounded constraint
  factors (Algorithm 1) with constant weight, sampled to estimate
  marginals when denial constraints are kept as correlations.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.inference.features import (
        FeatureSpace,
        FeatureMatrix,
        FeatureMatrixBuilder,
    )
    from repro.inference.variables import VariableInfo, VariableBlock
    from repro.inference.factor_graph import FactorGraph
    from repro.inference.softmax import SoftmaxTrainer, TrainingResult
    from repro.inference.gibbs import GibbsSampler, GibbsResult
    from repro.inference.numerics import segment_softmax, segment_logsumexp

__all__ = [
    "FeatureSpace",
    "FeatureMatrix",
    "FeatureMatrixBuilder",
    "VariableInfo",
    "VariableBlock",
    "FactorGraph",
    "SoftmaxTrainer",
    "TrainingResult",
    "GibbsSampler",
    "GibbsResult",
    "segment_softmax",
    "segment_logsumexp",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.inference.features": (
            "FeatureSpace",
            "FeatureMatrix",
            "FeatureMatrixBuilder",
        ),
        "repro.inference.variables": ("VariableInfo", "VariableBlock"),
        "repro.inference.factor_graph": ("FactorGraph",),
        "repro.inference.softmax": ("SoftmaxTrainer", "TrainingResult"),
        "repro.inference.gibbs": ("GibbsSampler", "GibbsResult"),
        "repro.inference.numerics": ("segment_softmax", "segment_logsumexp"),
    },
)
