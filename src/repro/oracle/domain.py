"""Algorithm 2: Bayesian pruning of random-variable domains.

For a noisy cell ``c`` with attribute ``A_c``, the candidate repairs are
the values ``v`` of ``A_c`` that co-occur with some other cell value
``v_c'`` of the same tuple with empirical probability
``Pr[v | v_c'] = #(v, v_c') / #v_c' ≥ τ``.  Varying τ trades recall
(small τ, wide domains) against precision and speed (large τ, narrow
domains) — Figures 3 and 4 of the paper.

Two engineering details beyond the pseudocode:

* the observed initial value of the cell is always kept as a candidate
  (otherwise minimality priors and evidence training would be ill-posed);
* domains are ranked by their best conditional probability and truncated
  to ``max_domain`` entries, bounding the factor-graph width.
"""

from __future__ import annotations

from repro.dataset.dataset import Cell, Dataset
from repro.oracle.stats import Statistics


class DomainPruner:
    """Computes candidate domains for cells.

    Two strategies:

    * ``"cooccurrence"`` (default) — Algorithm 2's Bayesian pruning with
      threshold τ;
    * ``"active"`` — the whole active domain of the cell's attribute
      (capped at ``max_domain``), the candidate space used by earlier
      repair systems [7, 12].  The paper's motivation for Algorithm 2 is
      that this strategy blows grounding up until "inference over the
      resulting probabilistic model does not terminate after an entire
      day" on even the smallest dataset.
    """

    def __init__(
        self,
        dataset: Dataset,
        stats: Statistics | None = None,
        tau: float = 0.5,
        max_domain: int = 24,
        attributes: list[str] | None = None,
        strategy: str = "cooccurrence",
    ):
        if strategy not in ("cooccurrence", "active"):
            raise ValueError(
                f"strategy must be 'cooccurrence' or 'active', got {strategy!r}"
            )
        self.dataset = dataset
        self.stats = stats if stats is not None else Statistics(dataset)
        self.tau = tau
        self.max_domain = max_domain
        self.attributes = attributes or dataset.schema.data_attributes
        self.strategy = strategy

    # ------------------------------------------------------------------
    def candidates(self, cell: Cell) -> list[str]:
        """Ranked candidate repairs for one cell.

        The cell's own initial value is scored 1.0 so it always survives
        truncation; remaining candidates are scored by the maximum
        conditional probability over the tuple's other cells, mirroring
        the ``Pr[v | v_c'] ≥ τ`` test of Algorithm 2.
        """
        attr = cell.attribute
        row = self.dataset.tuple_dict(cell.tid)
        init = row.get(attr)
        if self.strategy == "active":
            return self._active_domain_candidates(attr, init)
        scores: dict[str, float] = {}
        if init is not None:
            scores[init] = 1.0

        for other_attr in self.attributes:
            if other_attr == attr:
                continue
            other_value = row.get(other_attr)
            if other_value is None:
                continue
            denom = self.stats.frequency(other_attr, other_value)
            if denom == 0:
                continue
            cooc = self.stats.cooccurring_values(attr, other_attr, other_value)
            for value, joint in cooc.items():
                probability = joint / denom
                if probability >= self.tau:
                    if probability > scores.get(value, 0.0):
                        scores[value] = probability

        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        domain = [v for v, _ in ranked[: self.max_domain]]
        if init is not None and init not in domain:
            # init was displaced by truncation; force it back in.
            domain[-1] = init
        if not domain:
            # Fully NULL tuple context: fall back to the most frequent value.
            top = self.stats.most_common(attr, 1)
            domain = [top[0][0]] if top else []
        return domain

    def _active_domain_candidates(self, attr: str, init: str | None) -> list[str]:
        """The unpruned candidate space, most frequent values first."""
        ranked = [v for v, _ in self.stats.most_common(attr, self.max_domain)]
        if init is not None and init not in ranked:
            if len(ranked) >= self.max_domain:
                ranked[-1] = init
            else:
                ranked.append(init)
        return ranked

    def domains(self, cells) -> dict[Cell, list[str]]:
        """Candidate domains for many cells (skips empty results)."""
        out: dict[Cell, list[str]] = {}
        for cell in cells:
            dom = self.candidates(cell)
            if dom:
                out[cell] = dom
        return out
