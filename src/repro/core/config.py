"""Configuration of the HoloClean pipeline.

Every knob discussed in the paper is explicit here: the Algorithm 2
pruning threshold τ, the signal toggles that define the model variants of
Section 6.3.1 (Figure 5), the constant denial-constraint factor weight of
Algorithm 1, and the learning/sampling budgets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral, Real

#: The model variants evaluated in Figure 5 of the paper.
VARIANTS = (
    "dc-factors",
    "dc-factors+partitioning",
    "dc-feats",
    "dc-feats+dc-factors",
    "dc-feats+dc-factors+partitioning",
)

#: Candidate-domain strategies of the Algorithm 2 pruner.
DOMAIN_STRATEGIES = ("cooccurrence", "active")


@dataclass
class HoloCleanConfig:
    """All tuning parameters of HoloClean.

    Parameters mirror the paper:

    * ``tau`` — the co-occurrence threshold of Algorithm 2, swept over
      {0.3, 0.5, 0.7, 0.9} in Figures 3-5.
    * ``use_dc_feats`` — relax denial constraints to features over
      independent random variables (Section 5.2); the default model,
      used for all Table 3 numbers.
    * ``use_dc_factors`` — keep denial constraints as factors with the
      constant weight ``dc_factor_weight`` (Algorithm 1).
    * ``use_partitioning`` — ground DC factors only inside the tuple
      groups of Algorithm 3.
    """

    # --- Algorithm 2: domain pruning -------------------------------------
    tau: float = 0.5
    max_domain: int = 24

    #: ``"cooccurrence"`` = Algorithm 2; ``"active"`` = the full active
    #: domain (the pre-HoloClean candidate space, for ablations).
    domain_strategy: str = "cooccurrence"

    #: Strength of the minimality prior — "a positive constant indicating
    #: the strength of this prior" (Section 4.2).  Pinned, not learned:
    #: learning it would overfit (every evidence label trivially equals the
    #: initial value, so a learnable prior diverges and vetoes all repairs).
    minimality_weight: float = 1.0

    # --- signal toggles ----------------------------------------------------
    use_cooccur: bool = True
    use_frequency: bool = True
    use_minimality: bool = True
    use_source: bool = True
    use_external: bool = True
    use_dc_feats: bool = True
    use_dc_factors: bool = False
    use_partitioning: bool = False

    #: ``"pair"`` ties one weight per attribute pair with the empirical
    #: conditional as feature value; ``"value"`` is the paper-literal
    #: ``w(d, f)`` tying (one weight per candidate/feature combination).
    cooccur_tying: str = "pair"

    #: Additive smoothing for the co-occurrence conditionals used as
    #: feature values: ``Pr[d | v'] = #(d, v') / (#v' + smoothing)``.
    #: Without it a value that appears once makes its own (possibly
    #: erroneous) tuple context "predict" it with probability 1.0.
    cooccur_smoothing: float = 1.0

    #: Attributes identifying one real-world entity across tuples, used by
    #: the source-reliability featurizer (e.g. ``["Flight"]``).
    source_entity_attributes: tuple[str, ...] = ()

    # --- DC factor grounding (Algorithm 1) ----------------------------------
    dc_factor_weight: float = 2.0
    max_factor_table: int = 4096
    max_factor_pairs: int = 200_000

    #: Chunk size (in estimated pairs) of the engine enumerator's streaming
    #: path: groups whose raw pair estimate exceeds ``factor_stream_budget``
    #: are enumerated bucket-chunk by bucket-chunk of at most this many
    #: estimated pairs, so exploding joins (Physicians-scale groups) stream
    #: with bounded memory instead of materialising at once.
    factor_chunk_pairs: int = 65_536
    factor_stream_budget: int = 1_048_576

    # --- DC feature extraction (Section 5.2) --------------------------------
    dc_feature_cap: float = 10.0
    max_dc_feature_partners: int = 100

    #: Evidence (training) cells additionally receive this many frequent
    #: attribute values as negative candidates.  Without negatives, cells
    #: in homogeneous attributes have singleton domains and contribute no
    #: gradient, leaving their features untrained.
    evidence_negatives: int = 2

    #: Train on noisy cells too, weakly labelled with their observed
    #: value.  Backed by the paper's relaxation assumption (i) — erroneous
    #: cells are fewer than correct cells — and required on datasets like
    #: Flights where *every* cell participates in some violation, leaving
    #: no clean evidence at all.  ``None`` (default) enables weak labels
    #: automatically only when clean evidence is scarce.
    weak_label_training: bool | None = None

    # --- observability --------------------------------------------------------
    #: Trace-span verbosity of the telemetry subsystem (:mod:`repro.obs`):
    #: ``"stage"`` (default) records one span per pipeline stage —
    #: overhead is five context managers per repair; ``"deep"``
    #: additionally records engine/inference child spans (backend joins,
    #: pair-chunk streaming, factor tables, featurizer families, Gibbs
    #: sweeps, trainer epochs); ``"off"`` records nothing.  Tracing never
    #: changes repair output — traced and untraced runs are byte-identical.
    trace_level: str = "stage"

    #: Start :mod:`tracemalloc` for the repair so trace spans carry
    #: Python-heap peak-memory numbers.  Off by default: tracemalloc
    #: slows allocation-heavy code measurably, so a run traced with it
    #: is a memory diagnostic, never a timing (the benchmark leaves it
    #: off).  Repairs are identical either way.
    trace_memory: bool = False

    # --- serving (repro serve) ----------------------------------------------
    #: Capacity of the serving layer's LRU session store: how many warm
    #: :class:`~repro.core.stages.RepairContext`\ s are retained in
    #: memory before the least-recently-used one is checkpointed (when a
    #: checkpoint directory is configured) and evicted.
    serve_max_sessions: int = 16

    #: Worker processes of the serving job pool.  Cold repairs (full
    #: detect→apply runs) execute on a bounded ``ProcessPoolExecutor``
    #: of this size; ``0`` runs every job inline in the request thread
    #: (no pool — the mode used by tests and single-tenant setups).
    serve_workers: int = 2

    #: Directory for per-stage session checkpoints; ``None`` (default)
    #: disables checkpointing, so evicted sessions pay a full cold run
    #: on their next request instead of rehydrating.
    serve_checkpoint_dir: str | None = None

    #: Queued jobs tolerated beyond the in-flight worker capacity
    #: before the service sheds load (HTTP 429 + Retry-After).
    serve_queue_depth: int = 8

    #: Per-job wall-clock budget (seconds) enforced by the HTTP server;
    #: jobs exceeding it are cancelled and reported as HTTP 504.
    #: ``0`` disables the timeout.
    serve_job_timeout: float = 300.0

    # --- learning -----------------------------------------------------------
    epochs: int = 60
    learning_rate: float = 0.1
    l2: float = 1e-4
    max_training_cells: int | None = 20_000

    # --- Gibbs sampling -------------------------------------------------------
    gibbs_burn_in: int = 10
    gibbs_sweeps: int = 40

    # --- misc ------------------------------------------------------------------
    sim_threshold: float = 0.8
    seed: int = 42

    def __post_init__(self) -> None:
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau must be in [0, 1], got {self.tau}")
        if self.domain_strategy not in DOMAIN_STRATEGIES:
            raise ValueError(
                f"domain_strategy must be one of {DOMAIN_STRATEGIES}, got "
                f"{self.domain_strategy!r}"
            )
        if self.cooccur_tying not in ("pair", "value"):
            raise ValueError(
                f"cooccur_tying must be 'pair' or 'value', got {self.cooccur_tying!r}"
            )
        if not (
            self.use_dc_feats
            or self.use_dc_factors
            or self.use_cooccur
            or self.use_minimality
            or self.use_frequency
        ):
            raise ValueError("at least one repair signal must be enabled")
        if self.trace_level not in ("off", "stage", "deep"):
            raise ValueError(
                f"trace_level must be 'off', 'stage', or 'deep', got "
                f"{self.trace_level!r}"
            )
        # Values that would poison the feature matrix (0/0, x/0) or train
        # nothing must not "succeed" with zero repairs.
        if not (
            isinstance(self.dc_feature_cap, Real)
            and math.isfinite(self.dc_feature_cap)
            and self.dc_feature_cap > 0
        ):
            raise ValueError(
                f"dc_feature_cap must be a finite number > 0, got "
                f"{self.dc_feature_cap!r}"
            )
        if not (
            isinstance(self.cooccur_smoothing, Real)
            and math.isfinite(self.cooccur_smoothing)
            and self.cooccur_smoothing >= 0
        ):
            raise ValueError(
                f"cooccur_smoothing must be a finite number >= 0, got "
                f"{self.cooccur_smoothing!r}"
            )
        # json.loads accepts NaN and Infinity, so these reach the plan
        # from POST /repair; NaN or a negative step trains garbage weights
        # and repairs nothing, or everything, without an error.
        if not (
            isinstance(self.learning_rate, Real)
            and math.isfinite(self.learning_rate)
            and self.learning_rate > 0
        ):
            raise ValueError(
                f"learning_rate must be a finite number > 0, got "
                f"{self.learning_rate!r}"
            )
        if not (isinstance(self.l2, Real) and math.isfinite(self.l2) and self.l2 >= 0):
            raise ValueError(f"l2 must be a finite number >= 0, got {self.l2!r}")
        for name in ("minimality_weight", "dc_factor_weight"):
            weight = getattr(self, name)
            if not (isinstance(weight, Real) and math.isfinite(weight)):
                raise ValueError(f"{name} must be a finite number, got {weight!r}")
        # A similarity threshold outside [0, 1] silently stops every SIM
        # match (7.0), or raises inside similar() (NaN).
        if not (
            isinstance(self.sim_threshold, Real)
            and math.isfinite(self.sim_threshold)
            and 0 <= self.sim_threshold <= 1
        ):
            raise ValueError(
                f"sim_threshold must be a finite number in [0, 1], got "
                f"{self.sim_threshold!r}"
            )
        # Counts that size an array, a slice or a repeat inside a kernel,
        # and the seed of every RNG: a float, a bool or a value under the
        # least would crash there instead of here (``max_domain=True``
        # would prune every domain to one candidate and repair nothing,
        # ``max_factor_pairs=-5`` would ground no DC factor).
        counts = {
            "max_domain": 1,
            "epochs": 0,
            "gibbs_burn_in": 0,
            "gibbs_sweeps": 0,
            "max_dc_feature_partners": 0,
            "evidence_negatives": 0,
            "max_factor_pairs": 1,
            "max_factor_table": 1,
            "factor_chunk_pairs": 1,
            "factor_stream_budget": 1,
            "seed": 0,
        }
        if self.max_training_cells is not None:
            counts["max_training_cells"] = 0
        for name, least in counts.items():
            count = getattr(self, name)
            if (
                not isinstance(count, Integral)
                or isinstance(count, bool)
                or count < least
            ):
                raise ValueError(f"{name} must be an integer >= {least}, got {count!r}")
        if self.serve_max_sessions < 1:
            raise ValueError(
                f"serve_max_sessions must be at least 1, got "
                f"{self.serve_max_sessions}"
            )
        if self.serve_workers < 0:
            raise ValueError(f"serve_workers must be >= 0, got {self.serve_workers}")
        if self.serve_queue_depth < 0:
            raise ValueError(
                f"serve_queue_depth must be >= 0, got {self.serve_queue_depth}"
            )
        if self.serve_job_timeout < 0:
            raise ValueError(
                f"serve_job_timeout must be >= 0, got {self.serve_job_timeout}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def variant(cls, name: str, **overrides) -> "HoloCleanConfig":
        """Build the named Figure 5 variant.

        ``dc-feats`` is the paper's default configuration (Section 6.2:
        "denial constraints in HoloClean are relaxed to features … no
        partitioning is used").
        """
        flags = {
            "dc-factors": dict(
                use_dc_feats=False, use_dc_factors=True, use_partitioning=False
            ),
            "dc-factors+partitioning": dict(
                use_dc_feats=False, use_dc_factors=True, use_partitioning=True
            ),
            "dc-feats": dict(
                use_dc_feats=True, use_dc_factors=False, use_partitioning=False
            ),
            "dc-feats+dc-factors": dict(
                use_dc_feats=True, use_dc_factors=True, use_partitioning=False
            ),
            "dc-feats+dc-factors+partitioning": dict(
                use_dc_feats=True, use_dc_factors=True, use_partitioning=True
            ),
        }
        if name not in flags:
            raise ValueError(f"unknown variant {name!r}; pick one of {VARIANTS}")
        merged = {**flags[name], **overrides}
        return cls(**merged)

    def with_(self, **overrides) -> "HoloCleanConfig":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)

    @property
    def variant_name(self) -> str:
        """The Figure 5 name of the current flag combination."""
        parts = []
        if self.use_dc_feats:
            parts.append("dc-feats")
        if self.use_dc_factors:
            parts.append("dc-factors")
        if self.use_partitioning:
            parts.append("partitioning")
        return "+".join(parts) if parts else "no-dc-signal"
