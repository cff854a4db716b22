"""Learn and infer reuse their artifacts while their inputs are unchanged.

Section 2.2 of the paper retrains when users verify cells: learning is a
function of the evidence.  :class:`~repro.core.stages.LearnStage` skips
when ``ctx.weights`` was learned from the current config and feedback,
:class:`~repro.core.stages.InferStage` when ``ctx.marginals`` was
inferred from the current config and weights.  A skip must never change
an answer: every reused result below is byte-equal to a forced re-run,
on Hospital, Flights and the DC-factor (Gibbs) variant.
"""

from __future__ import annotations

import functools
import pickle
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import HoloCleanConfig
from repro.core.stages import CompileStage, RepairContext, RepairPlan
from repro.data import generate_flights, generate_hospital
from repro.obs.fingerprint import config_encoding
from repro.serve.checkpoint import CheckpointStore

#: Grounds DC factors, so inference runs Gibbs over the factor graph.
FACTORS = dict(
    use_dc_factors=True, use_partitioning=True, gibbs_burn_in=2, gibbs_sweeps=6
)

WORKLOADS = ("hospital", "flights", "dc-factors")

#: Learning and Gibbs knobs the property test tweaks (none of them
#: changes what compile grounds).
KNOBS = (
    ("epochs", 10),
    ("epochs", 14),
    ("learning_rate", 0.05),
    ("gibbs_sweeps", 4),
    ("gibbs_sweeps", 8),
)


@functools.cache
def generated(workload: str):
    if workload == "flights":
        return generate_flights(num_flights=5)
    return generate_hospital(num_rows=80)


def config_for(workload: str) -> HoloCleanConfig:
    data = generated(workload)
    fields = dict(
        tau=data.recommended_tau,
        source_entity_attributes=data.source_entity_attributes,
        epochs=12,
        seed=3,
    )
    if workload == "dc-factors":
        fields.update(FACTORS)
    return HoloCleanConfig(**fields)


def context(workload: str, **fields) -> RepairContext:
    data = generated(workload)
    fields.setdefault("config", config_for(workload))
    return RepairContext(
        dataset=data.dirty, constraints=list(data.constraints), **fields
    )


def fresh(workload: str) -> RepairContext:
    return RepairPlan.default().run(context(workload))


@functools.cache
def compiled(workload: str) -> RepairContext:
    """Detection and model of the workload, shared read-only."""
    return fresh(workload)


def candidates(ctx: RepairContext, count: int = 8) -> list[tuple]:
    """``(cell, domain)`` of the first query variables with two or more
    candidates, the cells the tests verify."""
    variables = ctx.model.graph.variables
    found = []
    for vid in ctx.model.query_ids:
        domain = variables.domain_of(vid)
        if len(domain) >= 2:
            found.append((variables.cells_of([vid])[0], domain))
        if len(found) == count:
            break
    return found


def answers(ctx: RepairContext) -> dict:
    """Everything a repair answers, as copies."""
    inferences = ctx.result.inferences
    return {
        "weights": ctx.weights.copy(),
        "probs": ctx.marginals.probs.copy(),
        "choice": inferences.choice.copy(),
        "confidence": inferences.confidence.copy(),
        "is_repair": inferences.is_repair.copy(),
        "clamped": inferences.clamped.copy(),
        "losses": list(ctx.losses),
        "repaired": ctx.result.repaired,
    }


def assert_same_answers(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for name, value in want.items():
        if isinstance(value, np.ndarray):
            assert got[name].dtype == value.dtype, name
            assert got[name].shape == value.shape, name
            assert got[name].tobytes() == value.tobytes(), name
        else:
            assert got[name] == value, name


def forced(ctx: RepairContext) -> dict:
    """The answers of a re-run that re-learns and re-infers."""
    ctx.weights = ctx.marginals = None
    ctx = RepairPlan.default().run(ctx)
    assert ran(ctx, "learn", "infer", "apply")
    return answers(ctx)


def ran(ctx: RepairContext, *names: str) -> bool:
    return all(ctx.stage_status[name] == "ran" for name in names)


def skipped(ctx: RepairContext, *names: str) -> bool:
    return all(ctx.stage_status[name] == "skipped" for name in names)


@pytest.mark.parametrize("workload", WORKLOADS)
class TestReuse:
    def test_unchanged_rerun_skips_learn_and_infer(self, workload):
        ctx = fresh(workload)
        first = answers(ctx)
        ctx = RepairPlan.default().run(ctx)
        assert skipped(ctx, "detect", "compile", "learn", "infer")
        assert ran(ctx, "apply")
        reused = answers(ctx)
        assert_same_answers(reused, first)
        assert_same_answers(reused, forced(ctx))

    @pytest.mark.parametrize(
        "edit", ["new-feedback", "re-verify", "epochs", "gibbs_sweeps"]
    )
    def test_changed_input_reruns_learn_and_infer(self, workload, edit):
        ctx = fresh(workload)
        (cell, domain), (other, other_domain) = candidates(ctx, 2)
        if edit == "re-verify":
            ctx.feedback[cell] = domain[0]
            ctx = RepairPlan.default().run(ctx)
            assert ran(ctx, "learn")
        before = ctx.weights_basis, ctx.marginals_basis
        if edit == "new-feedback":
            ctx.feedback[other] = other_domain[-1]
        elif edit == "re-verify":
            ctx.feedback[cell] = domain[1]
        else:
            ctx.config = ctx.config.with_(**{edit: getattr(ctx.config, edit) + 2})
        ctx = RepairPlan.default().run(ctx)
        assert skipped(ctx, "detect", "compile")
        assert ran(ctx, "learn", "infer", "apply")
        assert ctx.weights_basis != before[0]
        assert ctx.marginals_basis != before[1]
        assert_same_answers(answers(ctx), forced(ctx))

    def test_weights_set_by_hand_rerun_infer_only(self, workload):
        ctx = fresh(workload)
        ctx.weights = ctx.weights * 0.5
        ctx = RepairPlan.default().run(ctx)
        assert skipped(ctx, "learn")
        assert ran(ctx, "infer", "apply")
        halved = answers(ctx)
        ctx.marginals = None
        ctx = RepairPlan.default().run(ctx)
        assert_same_answers(answers(ctx), halved)

        ctx.weights *= 2.0  # in place: the bytes change, the array does not
        ctx = RepairPlan.default().run(ctx)
        assert skipped(ctx, "learn")
        assert ran(ctx, "infer")

    def test_compile_drops_weights_and_marginals(self, workload):
        ctx = fresh(workload)
        first = answers(ctx)
        ctx.model = None
        ctx = CompileStage().run(ctx)
        assert ctx.weights is None and ctx.marginals is None
        ctx = RepairPlan.default().run(ctx)
        assert skipped(ctx, "detect", "compile")
        assert ran(ctx, "learn", "infer", "apply")
        assert_same_answers(answers(ctx), first)


@pytest.mark.parametrize("workload", WORKLOADS)
class TestCheckpointedDigests:
    def test_digests_round_trip(self, workload, tmp_path):
        ctx = fresh(workload)
        store = CheckpointStore(tmp_path)
        store.save("sid", ctx)
        loaded = store.load("sid")
        assert loaded.weights_basis == ctx.weights_basis
        assert loaded.marginals_basis == ctx.marginals_basis
        assert len(loaded.weights_basis) == len(loaded.marginals_basis) == 64
        loaded = RepairPlan.default().run(loaded)
        assert skipped(loaded, "detect", "compile", "learn", "infer")
        assert_same_answers(answers(loaded), answers(ctx))

    def test_checkpoint_without_digests_relearns(self, workload, tmp_path):
        """A format-4 checkpoint written before the digests existed loads
        with them unset, re-learns, and lands on the same weights."""
        ctx = fresh(workload)
        store = CheckpointStore(tmp_path)
        store.save("sid", ctx)
        for stage, digest in (("learn", "weights_basis"), ("infer", "marginals_basis")):
            path = store.path("sid") / f"{stage}.pkl"
            payload = pickle.loads(path.read_bytes())
            del payload[digest]
            path.write_bytes(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))

        loaded = store.load("sid")
        assert loaded.weights is not None and loaded.marginals is not None
        assert loaded.weights_basis is None and loaded.marginals_basis is None
        loaded = RepairPlan.default().run(loaded)
        assert skipped(loaded, "detect", "compile")
        assert ran(loaded, "learn", "infer", "apply")
        assert loaded.weights_basis == ctx.weights_basis
        assert_same_answers(answers(loaded), answers(ctx))


# ----------------------------------------------------------------------
# Property: memoised re-runs equal a from-scratch re-learn
# ----------------------------------------------------------------------
_relearned: dict[tuple, dict] = {}


def relearned(workload: str, config: HoloCleanConfig, feedback: dict) -> dict:
    """Answers of a fresh context that reuses only the compiled model."""
    key = (workload, config_encoding(config), tuple(feedback.items()))
    if key not in _relearned:
        base = compiled(workload)
        ctx = context(
            workload,
            config=config,
            detection=base.detection,
            model=base.model,
            feedback=dict(feedback),
        )
        ctx = RepairPlan.default().run(ctx)
        assert ran(ctx, "learn", "infer", "apply")
        _relearned[key] = answers(ctx)
    return _relearned[key]


STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("verify"), st.integers(0, 7), st.integers(0, 3)),
        st.tuples(st.just("config"), st.sampled_from(KNOBS)),
        st.just(("rerun",)),
        st.just(("round-trip",)),
    ),
    max_size=6,
)


@pytest.mark.parametrize("workload", WORKLOADS)
@settings(max_examples=10, deadline=None)
@given(steps=STEPS)
def test_memoised_rerun_equals_relearn(workload, steps):
    base = compiled(workload)
    cells = candidates(base)
    ctx = RepairPlan.default().run(
        context(workload, detection=base.detection, model=base.model)
    )
    learned_from = (config_encoding(ctx.config), ())
    with tempfile.TemporaryDirectory() as root:
        store = CheckpointStore(root)
        for step in [*steps, ("rerun",)]:
            kind = step[0]
            if kind == "verify":
                cell, domain = cells[step[1] % len(cells)]
                ctx.feedback[cell] = domain[step[2] % len(domain)]
            elif kind == "config":
                knob, value = step[1]
                ctx.config = ctx.config.with_(**{knob: value})
            elif kind == "round-trip":
                store.save("sid", ctx)
                ctx = store.load("sid")
            else:
                key = (config_encoding(ctx.config), tuple(ctx.feedback.items()))
                ctx = RepairPlan.default().run(ctx)
                assert skipped(ctx, "detect", "compile")
                status = "skipped" if key == learned_from else "ran"
                assert ctx.stage_status["learn"] == status
                learned_from = key
                want = relearned(workload, ctx.config, ctx.feedback)
                assert_same_answers(answers(ctx), want)
