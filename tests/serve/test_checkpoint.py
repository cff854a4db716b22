"""Checkpoint round-trips: rehydrated sessions must be indistinguishable.

The serving pledge (ROADMAP item 3): a session serialized to disk,
evicted, and rehydrated must re-enter the staged plan at ``learn`` or
``infer`` and produce *marginal-identical* results versus the session
that stayed warm in memory the whole time — on Hospital and Flights,
and through the feedback path too.
"""

from __future__ import annotations

import copyreg
import pickle
import pickletools
import random
from pathlib import Path

import numpy as np
import pytest

from repro.core.session import RepairSession
from repro.core.stages import (
    CompileStage,
    DetectStage,
    RepairContext,
    RepairPlan,
)
from repro.data import generate_hospital
from repro.inference.variables import VariableBlock
from repro.serve.checkpoint import (
    FORMAT_VERSION,
    STAGE_ARTIFACTS,
    CheckpointError,
    CheckpointStore,
)

from tests.serve.conftest import config_for


#: Grounds DC factors, so inference runs Gibbs over the factor graph.
FACTORS = dict(
    use_dc_factors=True, use_partitioning=True, gibbs_burn_in=2, gibbs_sweeps=8
)


def _fresh_ctx(generated, **overrides) -> RepairContext:
    return RepairContext(
        dataset=generated.dirty,
        constraints=list(generated.constraints),
        config=config_for(generated, **overrides),
    )


def _assert_same_outcome(warm: RepairContext, rehydrated: RepairContext):
    """Byte-equality of weights, marginals, and the applied repairs."""
    np.testing.assert_array_equal(warm.weights, rehydrated.weights)
    assert warm.losses == rehydrated.losses
    assert set(warm.marginals) == set(rehydrated.marginals)
    for vid in warm.marginals:
        np.testing.assert_array_equal(warm.marginals[vid], rehydrated.marginals[vid])
    assert warm.result is not None and rehydrated.result is not None
    assert set(warm.result.inferences) == set(rehydrated.result.inferences)
    for cell, want in warm.result.inferences.items():
        got = rehydrated.result.inferences[cell]
        assert got.chosen_value == want.chosen_value
        assert got.confidence == want.confidence
        np.testing.assert_array_equal(got.marginal, want.marginal)
    assert warm.result.repaired == rehydrated.result.repaired


@pytest.mark.parametrize("dataset_fixture", ["hospital", "flights"])
class TestRoundTrip:
    def test_reenter_at_learn_matches_warm(self, dataset_fixture, request, tmp_path):
        generated = request.getfixturevalue(dataset_fixture)
        warm = RepairPlan.default().run(_fresh_ctx(generated))
        store = CheckpointStore(tmp_path)
        store.save("sid", warm)

        rehydrated = store.load("sid")
        assert rehydrated is not None
        assert rehydrated.engine is None and rehydrated.tracer is None
        np.testing.assert_array_equal(rehydrated.weights, warm.weights)

        # Unchanged inputs: the weights and marginals survived the trip
        # with their digests, so learn and infer skip on both sides.
        plan = RepairPlan.default().starting_at("learn")
        reused = plan.run(store.load("sid"))
        assert reused.stage_status["learn"] == "skipped"
        assert reused.stage_status["infer"] == "skipped"
        _assert_same_outcome(plan.run(warm), reused)

        # Re-enter at learn on both with the weights cleared; detect and
        # compile artifacts survived the trip, so only the learning half
        # runs again.
        warm.weights = rehydrated.weights = None
        warm = plan.run(warm)
        rehydrated = plan.run(rehydrated)
        assert rehydrated.stage_status["learn"] == "ran"
        _assert_same_outcome(warm, rehydrated)
        _assert_same_outcome(warm, reused)

    def test_reenter_at_infer_matches_warm(self, dataset_fixture, request, tmp_path):
        generated = request.getfixturevalue(dataset_fixture)
        warm = RepairPlan.default().run(_fresh_ctx(generated))
        store = CheckpointStore(tmp_path)
        store.save("sid", warm)
        rehydrated = store.load("sid")

        plan = RepairPlan.default().starting_at("infer")
        warm.marginals = rehydrated.marginals = None  # else infer skips
        warm = plan.run(warm)
        rehydrated = plan.run(rehydrated)
        assert rehydrated.stage_status["infer"] == "ran"
        _assert_same_outcome(warm, rehydrated)

    def test_feedback_path_matches_warm(self, dataset_fixture, request, tmp_path):
        generated = request.getfixturevalue(dataset_fixture)
        warm = RepairPlan.default().run(_fresh_ctx(generated))
        store = CheckpointStore(tmp_path)
        store.save("sid", warm)
        rehydrated = store.load("sid")

        # The same user verification lands on both contexts.
        info = warm.model.graph.variables[warm.model.query_ids[0]]
        verified = info.domain[-1]
        plan = RepairPlan.default().starting_at("learn")
        warm.feedback[info.cell] = verified
        rehydrated.feedback[info.cell] = verified
        warm = plan.run(warm)
        rehydrated = plan.run(rehydrated)
        _assert_same_outcome(warm, rehydrated)
        assert warm.result.inferences[info.cell].chosen_value == verified
        # The compiler froze the feature space; learning against it and
        # the pickle round trip both leave it frozen.
        for ctx in (warm, rehydrated):
            with pytest.raises(KeyError, match="frozen"):
                ctx.model.graph.space.index(("new",))

    def test_feedback_survives_the_checkpoint_itself(
        self, dataset_fixture, request, tmp_path
    ):
        generated = request.getfixturevalue(dataset_fixture)
        warm = RepairPlan.default().run(_fresh_ctx(generated))
        info = warm.model.graph.variables[warm.model.query_ids[0]]
        verified = info.domain[-1]
        warm.feedback[info.cell] = verified
        plan = RepairPlan.default().starting_at("learn")
        warm = plan.run(warm)

        store = CheckpointStore(tmp_path)
        store.save("sid", warm)
        rehydrated = store.load("sid")
        assert rehydrated.feedback == {info.cell: verified}
        rehydrated = plan.run(rehydrated)
        warm = plan.run(warm)
        _assert_same_outcome(warm, rehydrated)


class TestFactorRoundTrip:
    COLUMNS = ("var_indptr", "var_ids", "cell_indptr", "cells", "weights", "codes")

    def test_reenter_at_learn_matches_warm(self, hospital, tmp_path):
        """The DC factors survive the checkpoint as columns: the rehydrated
        session samples the same Gibbs marginals and repairs."""
        warm = RepairPlan.default().run(_fresh_ctx(hospital, **FACTORS))
        store = CheckpointStore(tmp_path)
        store.save("sid", warm)
        rehydrated = store.load("sid")

        before, after = warm.model.graph.factors, rehydrated.model.graph.factors
        assert len(before) > 0 and before.names == after.names
        for column in self.COLUMNS:
            want, got = getattr(before, column), getattr(after, column)
            np.testing.assert_array_equal(want, got)
            assert want.dtype == got.dtype
        fingerprint = warm.model.content_fingerprint()
        assert rehydrated.model.content_fingerprint() == fingerprint

        plan = RepairPlan.default().starting_at("learn")
        for ctx in (warm, rehydrated):  # re-learn and re-sample
            ctx.weights = ctx.marginals = None
        warm, rehydrated = plan.run(warm), plan.run(rehydrated)
        assert rehydrated.stage_status["infer"] == "ran"
        _assert_same_outcome(warm, rehydrated)


class TestMidPipelineCheckpoint:
    def test_compile_only_checkpoint_resumes(self, hospital, tmp_path):
        """A session checkpointed before learn resumes mid-pipeline."""
        partial = RepairPlan([DetectStage(), CompileStage()]).run(_fresh_ctx(hospital))
        store = CheckpointStore(tmp_path)
        store.save("sid", partial)

        rehydrated = store.load("sid")
        assert rehydrated.model is not None
        assert rehydrated.weights is None
        assert not (store.path("sid") / "learn.pkl").exists()

        warm = RepairPlan.default().run(_fresh_ctx(hospital))
        rehydrated = RepairPlan.default().run(rehydrated)
        assert rehydrated.stage_status["detect"] == "skipped"
        assert rehydrated.stage_status["compile"] == "skipped"
        _assert_same_outcome(warm, rehydrated)


class _CachelessPickler(pickle.Pickler):
    """Pickles a variable catalog the way format 4 did before the catalog
    had lookup caches: its state holds ``_index: None`` and neither
    ``_cells`` nor ``_search``."""

    def reducer_override(self, obj):
        if not isinstance(obj, VariableBlock):
            return NotImplemented
        state = {k: v for k, v in vars(obj).items() if k not in ("_cells", "_search")}
        return copyreg.__newobj__, (type(obj),), {**state, "_index": None}


class TestOlderCheckpoints:
    def test_config_pickled_with_removed_fields_still_loads(self, hospital, tmp_path):
        """A config pickled while ``HoloCleanConfig`` still had
        ``engine_backend`` / ``parallel_workers`` carries them as instance
        attributes; it loads, ignores them, and repairs identically."""
        warm = RepairPlan.default().run(_fresh_ctx(hospital))
        warm.config.engine_backend = "numpy"
        warm.config.parallel_workers = 2
        store = CheckpointStore(tmp_path)
        store.save("sid", warm)

        rehydrated = store.load("sid")
        assert vars(rehydrated.config)["parallel_workers"] == 2
        assert vars(rehydrated.config)["engine_backend"] == "numpy"
        plan = RepairPlan.default().starting_at("learn")
        _assert_same_outcome(plan.run(warm), plan.run(rehydrated))
        # The stale attributes do not survive the next config edit.
        assert "parallel_workers" not in vars(rehydrated.config.with_(tau=0.4))

    def test_catalog_pickled_without_lookup_caches_serves_feedback(
        self, hospital, tmp_path
    ):
        """A format-4 checkpoint pickled before the lookup caches existed
        passes the version gate, so it must rehydrate into a session that
        takes feedback and re-repairs exactly like the warm one."""
        warm = RepairPlan.default().run(_fresh_ctx(hospital))
        store = CheckpointStore(tmp_path)
        store.save("sid", warm)
        compiled = store.path("sid") / "compile.pkl"
        with compiled.open("rb") as handle:
            payload = pickle.load(handle)
        with compiled.open("wb") as handle:
            _CachelessPickler(handle, pickle.HIGHEST_PROTOCOL).dump(payload)

        rehydrated = store.load("sid")
        state = vars(rehydrated.model.graph.variables)
        assert "_index" in state and "_search" not in state and "_cells" not in state
        session = RepairSession.from_context(rehydrated)
        variables = warm.model.graph.variables
        query = variables.cells_of(np.flatnonzero(~variables.is_evidence)[:1])[0]
        evidence = variables.cells_of(np.flatnonzero(variables.is_evidence)[:1])[0]
        verified = {query: "Nowhere", evidence: "Elsewhere"}
        for cell, value in verified.items():
            session.feedback(cell, value)
            warm.feedback[cell] = value
        plan = RepairPlan.default().starting_at("learn")
        result = session.rerun()
        warm = plan.run(warm)
        assert list(result.inferences) == list(warm.result.inferences)
        assert result.num_repairs == warm.result.num_repairs
        assert result.inferences[query].chosen_value == "Nowhere"
        _assert_same_outcome(warm, session.context)


class TestStoreMechanics:
    def test_load_missing_returns_none(self, tmp_path):
        assert CheckpointStore(tmp_path).load("nope") is None

    def test_has_delete_and_listing(self, hospital, tmp_path):
        ctx = RepairPlan.default().run(_fresh_ctx(hospital))
        store = CheckpointStore(tmp_path)
        store.save("aaa", ctx)
        store.save("bbb", ctx)
        assert store.has("aaa")
        assert store.session_ids() == ["aaa", "bbb"]
        assert store.delete("aaa")
        assert not store.has("aaa")
        assert not store.delete("aaa")

    def test_version_mismatch_rejected(self, hospital, tmp_path):
        ctx = RepairPlan.default().run(_fresh_ctx(hospital))
        store = CheckpointStore(tmp_path)
        store.save("sid", ctx)
        meta = store.path("sid") / "meta.json"
        current = f'"version": {FORMAT_VERSION}'
        assert current in meta.read_text()
        # Format 1 pickled the hypergraph as Violation objects, format 2
        # one VariableInfo per variable and format 3 one object per DC
        # factor; all must stop at the version gate, not inside the
        # unpickler.
        assert FORMAT_VERSION == 4
        for other in (1, 2, 3, 99):
            meta.write_text(meta.read_text().replace(current, f'"version": {other}'))
            with pytest.raises(CheckpointError, match="format version"):
                store.load("sid")
            current = f'"version": {other}'

    def test_fingerprint_tamper_rejected(self, hospital, tmp_path):
        ctx = RepairPlan.default().run(_fresh_ctx(hospital))
        store = CheckpointStore(tmp_path)
        store.save("sid", ctx)
        meta = store.path("sid") / "meta.json"
        tampered = meta.read_text().replace(ctx.fingerprints()["dataset"], "0" * 12)
        meta.write_text(tampered)
        with pytest.raises(CheckpointError, match="fingerprint"):
            store.load("sid")

    @pytest.mark.parametrize("death", [KeyboardInterrupt, OSError])
    def test_kill_between_the_renames_keeps_the_previous_checkpoint(
        self, hospital, tmp_path, monkeypatch, death
    ):
        """Old aside, new in, old deleted: dying after the first rename
        (a kill: no handler of ``save`` runs; or a rename that fails: its
        handler does) loses nothing — the previous checkpoint is complete
        under its aside name and the next load puts it back."""
        ctx = RepairPlan.default().run(_fresh_ctx(hospital))
        store = CheckpointStore(tmp_path)
        store.save("sid", ctx)
        before = (store.path("sid") / "meta.json").read_text()

        rename, calls = Path.rename, []

        def dies_on_the_second(self, target):
            calls.append(Path(target).name)
            if len(calls) == 2:
                raise death
            return rename(self, target)

        ctx.feedback[next(iter(ctx.result.inferences))] = "verified"
        with monkeypatch.context() as patch:
            patch.setattr(Path, "rename", dies_on_the_second)
            with pytest.raises(death):
                store.save("sid", ctx)
        assert calls[1] == "sid" and not store.path("sid").exists()
        assert store.session_ids() == []  # dot names are never sessions

        survivor = store.load("sid")
        assert survivor is not None and survivor.feedback == {}
        assert (store.path("sid") / "meta.json").read_text() == before
        assert store.session_ids() == ["sid"]
        store.save("sid", ctx)  # and the next save sweeps the debris
        assert [p.name for p in tmp_path.iterdir()] == ["sid"]
        assert store.load("sid").feedback == ctx.feedback

    def test_leftover_tmp_directory_is_not_a_session(self, hospital, tmp_path):
        """A save that died after writing ``meta.json`` leaves
        ``.<sid>.tmp-<pid>``: never listed, swept by the next save of
        that session, left alone by a save of another."""
        ctx = RepairPlan.default().run(_fresh_ctx(hospital))
        store = CheckpointStore(tmp_path)
        store.save("aaa", ctx)
        planted = tmp_path / ".aaa.tmp-4242"
        planted.mkdir()
        (planted / "meta.json").write_text(
            (store.path("aaa") / "meta.json").read_text()
        )
        assert store.session_ids() == ["aaa"]
        store.save("bbb", ctx)
        assert planted.is_dir()
        store.save("aaa", ctx)
        assert not planted.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["aaa", "bbb"]

    def test_save_overwrites_atomically(self, hospital, tmp_path):
        ctx = RepairPlan.default().run(_fresh_ctx(hospital))
        store = CheckpointStore(tmp_path)
        store.save("sid", ctx)
        first = (store.path("sid") / "meta.json").read_text()
        store.save("sid", ctx)
        assert (store.path("sid") / "meta.json").read_text() == first
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".")]
        assert leftovers == []


class TestColumnarPayload:
    """No object per variable or per factor in what a compiled model and
    its marginals pickle to: the catalog, the ``Domain`` relation, the DC
    factors and the marginals are arrays, so the opcode stream stays a few
    entries per variable (value tables, feature keys, the id lists) where
    format 2 spent ~48 and format 3's factors alone ~57."""

    @pytest.mark.parametrize(
        "rows, overrides",
        [
            pytest.param(100, {}, id="100"),
            pytest.param(400, {}, id="400"),
            pytest.param(200, FACTORS, id="200-factors"),
        ],
    )
    def test_opcodes_per_variable(self, rows, overrides, tmp_path):
        generated = generate_hospital(num_rows=rows)
        ctx = RepairPlan.default().run(_fresh_ctx(generated, **overrides))
        assert bool(ctx.model.graph.factors) == bool(overrides)
        saved = CheckpointStore(tmp_path).save("sid", ctx)
        opcodes = sum(
            sum(1 for _ in pickletools.genops((saved / name).read_bytes()))
            for name in ("compile.pkl", "infer.pkl")
        )
        variables = len(ctx.model.graph.variables)
        assert variables == 19 * rows
        assert opcodes <= 10 * variables, opcodes / variables


class TestDamagedFiles:
    """Any damage to a stage file is a ``CheckpointError`` — the one
    exception ``RepairService`` turns into "discard and run cold"."""

    FILES = ["inputs", *(stage for stage, _ in STAGE_ARTIFACTS)]

    @pytest.fixture(scope="class")
    def saved(self, hospital, tmp_path_factory):
        store = CheckpointStore(tmp_path_factory.mktemp("damaged"))
        store.save("sid", RepairPlan.default().run(_fresh_ctx(hospital)))
        return store

    @pytest.mark.parametrize("name", FILES)
    def test_byte_flips_and_truncation(self, saved, name):
        path = saved.path("sid") / f"{name}.pkl"
        good = path.read_bytes()
        rng = random.Random(name)
        try:
            for trial in range(120):
                damaged = bytearray(good)
                if trial % 6 == 0:
                    cut = rng.randrange(len(damaged))
                    del damaged[cut:]
                else:
                    for _ in range(3):
                        damaged[rng.randrange(len(damaged))] = rng.randrange(256)
                path.write_bytes(bytes(damaged))
                try:
                    # Flips inside array data still load; nothing but a
                    # context or a CheckpointError may come out.
                    assert isinstance(saved.load("sid"), RepairContext)
                except CheckpointError:
                    pass
        finally:
            path.write_bytes(good)

    @pytest.mark.parametrize("name", FILES)
    def test_empty_file(self, saved, name):
        path = saved.path("sid") / f"{name}.pkl"
        good = path.read_bytes()
        try:
            path.write_bytes(b"")
            with pytest.raises(CheckpointError, match="cannot deserialize"):
                saved.load("sid")
        finally:
            path.write_bytes(good)
