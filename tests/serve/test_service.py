"""RepairService behaviour: paths, feedback, errors, admission control."""

from __future__ import annotations

import hashlib
import json
import logging
import multiprocessing

import numpy as np
import pytest

from repro.core.config import HoloCleanConfig
from repro.core.stages import STAGE_ORDER, RepairContext, RepairPlan
from repro.serve.checkpoint import FORMAT_VERSION, CheckpointError
from repro.serve.service import (
    BadRequest,
    NotFound,
    RepairService,
    Saturated,
)

from tests.serve.conftest import make_service, payload_for


@pytest.fixture
def service(tmp_path):
    svc = make_service(checkpoint_dir=str(tmp_path))
    yield svc
    svc.close()


@pytest.fixture
def ephemeral_service():
    svc = make_service()
    yield svc
    svc.close()


class TestRepairPaths:
    def test_cold_then_warm(self, service, hospital):
        payload = payload_for(hospital)
        first = service.repair(payload)
        assert first["path"] == "cold"
        assert first["num_repairs"] > 0
        assert first["stage_status"]["compile"] == "ran"

        second = service.repair(payload)
        assert second["path"] == "warm"
        assert second["session"] == first["session"]
        assert second["stage_status"]["detect"] == "skipped"
        assert second["stage_status"]["compile"] == "skipped"
        assert second["stage_status"]["learn"] == "skipped"
        assert second["stage_status"]["infer"] == "skipped"
        assert second["repairs"] == first["repairs"]

    def test_warm_timings_count_only_what_ran(self, ephemeral_service, hospital):
        """An unchanged warm request runs apply alone, and its timings say
        so instead of repeating the cold request's detect and compile."""
        cold = ephemeral_service.repair(payload_for(hospital))
        assert cold["timings"]["detect"] > 0 and cold["timings"]["compile"] > 0
        warm = ephemeral_service.repair(payload_for(hospital))
        assert warm["path"] == "warm"
        assert warm["timings"]["detect"] == warm["timings"]["compile"] == 0.0
        timings = ephemeral_service.store.peek(warm["session"]).ctx.timings
        assert list(timings) == ["apply"]
        assert warm["timings"]["repair"] == timings["apply"] > 0

    def test_session_id_is_content_keyed(self, service, hospital):
        renamed = payload_for(hospital)
        renamed["dataset"]["name"] = "same-rows-other-name"
        base = service.repair(payload_for(hospital))
        again = service.repair(renamed)
        assert again["session"] == base["session"]
        assert again["path"] == "warm"

    def test_session_key_includes_attribute_roles(self, service, hospital):
        """The same rows with a source column are another repair problem:
        the model compiled without the role must not serve them warm."""
        plain = payload_for(hospital)
        assert plain["dataset"]["source_column"] is None
        sourced = payload_for(hospital)
        sourced["dataset"]["source_column"] = "HospitalName"
        base = service.repair(plain)
        other = service.repair(sourced)
        assert other["session"] != base["session"]
        assert other["path"] == "cold"
        assert other["stage_status"]["compile"] == "ran"

    def test_config_change_stays_warm(self, service, hospital):
        base = service.repair(payload_for(hospital))
        retuned = service.repair(payload_for(hospital, epochs=14))
        assert retuned["session"] == base["session"]
        assert retuned["path"] == "warm"
        assert retuned["stage_status"]["compile"] == "skipped"
        assert retuned["stage_status"]["learn"] == "ran"

    def test_recompile_flag_forces_compile(self, service, hospital):
        service.repair(payload_for(hospital))
        payload = payload_for(hospital, tau=0.9)
        payload["recompile"] = True
        redone = service.repair(payload)
        assert redone["path"] == "warm"
        assert redone["stage_status"]["compile"] == "ran"
        assert redone["stage_status"]["detect"] == "skipped"

    @pytest.mark.parametrize("path", ["warm", "rehydrated"])
    def test_recompile_leaves_no_engine_resident(self, service, hospital, path):
        sid = service.repair(payload_for(hospital))["session"]
        if path == "rehydrated":
            service.delete_session(sid)
        payload = payload_for(hospital, tau=0.9)
        payload["recompile"] = True
        redone = service.repair(payload)
        assert redone["path"] == path
        assert redone["stage_status"]["compile"] == "ran"
        assert service.store.get(sid).ctx.engine is None

    def test_evict_then_rehydrate_identical(self, service, hospital):
        payload = payload_for(hospital)
        warm = service.repair(payload)
        sid = warm["session"]
        gone = service.delete_session(sid)
        assert gone["evicted"] and gone["checkpointed"]

        back = service.repair(payload)
        assert back["path"] == "rehydrated"
        assert back["stage_status"]["compile"] == "skipped"
        assert back["repairs"] == warm["repairs"]

    def test_unchanged_rehydrate_keeps_its_checkpoint(
        self, service, hospital, monkeypatch
    ):
        sid = service.repair(payload_for(hospital))["session"]
        service.delete_session(sid)
        saves = []
        save = service.checkpoints.save
        monkeypatch.setattr(
            service.checkpoints, "save", lambda *args: saves.append(args) or save(*args)
        )
        back = service.repair(payload_for(hospital))
        assert back["path"] == "rehydrated"
        assert {back["stage_status"][name] for name in STAGE_ORDER[:4]} == {"skipped"}
        assert saves == []

    def test_retuned_rehydrate_rewrites_its_checkpoint(self, service, hospital):
        sid = service.repair(payload_for(hospital))["session"]
        service.delete_session(sid)
        retuned = service.repair(payload_for(hospital, epochs=14))
        assert retuned["path"] == "rehydrated"
        assert retuned["stage_status"]["learn"] == "ran"
        weights = service.store.get(sid).ctx.weights

        service.delete_session(sid)
        loaded = service.checkpoints.load(sid)
        assert loaded.config.epochs == 14
        np.testing.assert_array_equal(loaded.weights, weights)
        again = service.repair(payload_for(hospital, epochs=14))
        assert again["path"] == "rehydrated"
        assert again["stage_status"]["learn"] == "skipped"
        assert again["repairs"] == retuned["repairs"]

    def test_purged_session_pays_cold(self, ephemeral_service, hospital):
        payload = payload_for(hospital)
        first = ephemeral_service.repair(payload)
        ephemeral_service.delete_session(first["session"], checkpoint=False)
        again = ephemeral_service.repair(payload)
        assert again["path"] == "cold"

    def test_report_on_request(self, service, hospital):
        payload = payload_for(hospital)
        payload["report"] = True
        response = service.repair(payload)
        assert response["report"]["stage_status"]["apply"] == "ran"
        assert response["report"]["fingerprint"]


class TestFeedback:
    def test_feedback_clamps_choice(self, service, hospital):
        payload = payload_for(hospital)
        first = service.repair(payload)
        sid = first["session"]
        cells = service.marginals(sid)["cells"]
        target = cells[0]
        verified = target["domain"][-1]
        response = service.feedback(
            sid,
            {
                "cells": [
                    {
                        "tid": target["tid"],
                        "attribute": target["attribute"],
                        "value": verified,
                    }
                ]
            },
        )
        assert response["path"] == "warm"
        assert response["feedback_count"] == 1
        after = service.marginals(sid, tid=target["tid"], attribute=target["attribute"])
        assert after["cells"]

    def test_rejected_feedback_changes_nothing(self, service, flights):
        """A request whose last cell is rejected records none of its
        cells: the session's feedback and repairs stay as they were."""
        first = service.repair(payload_for(flights))
        sid = first["session"]
        target = service.marginals(sid)["cells"][0]
        source = flights.dirty.schema.with_role("source")[0]
        cells = [
            {
                "tid": target["tid"],
                "attribute": target["attribute"],
                "value": target["domain"][-1],
            },
            {"tid": 0, "attribute": source, "value": "x"},
        ]
        ctx = service.store.peek(sid).ctx
        result = ctx.result
        with pytest.raises(BadRequest, match="not a noisy cell"):
            service.feedback(sid, {"cells": cells})
        assert ctx.feedback == {}
        assert ctx.result is result
        again = service.repair(payload_for(flights))
        assert again["stage_status"]["learn"] == "skipped"
        assert again["repairs"] == first["repairs"]

    def test_feedback_on_unmodeled_cell_rejected(self, service, flights):
        sid = service.repair(payload_for(flights))["session"]
        # The source column carries provenance, not data: it never gets
        # a factor-graph variable, so feedback on it is meaningless.
        source = flights.dirty.schema.with_role("source")[0]
        with pytest.raises(BadRequest, match="not a noisy cell"):
            service.feedback(
                sid,
                {"cells": [{"tid": 0, "attribute": source, "value": "x"}]},
            )

    def test_feedback_needs_cells(self, service, hospital):
        sid = service.repair(payload_for(hospital))["session"]
        with pytest.raises(BadRequest, match="cells"):
            service.feedback(sid, {})

    def test_feedback_unknown_session(self, service):
        with pytest.raises(NotFound):
            service.feedback("feedbeefcafe", {"cells": [{}]})


class TestResponseBytes:
    """The columnar result renders the bytes the dict-backed one did: the
    digests were measured on the commit before ``RepairResult`` went
    columnar, over the repairs list and the two counts (the rest of a
    response is wall-clock)."""

    @staticmethod
    def digest(response):
        kept = {k: response[k] for k in ("noisy_cells", "num_repairs", "repairs")}
        text = json.dumps(kept, sort_keys=True).encode()
        return hashlib.sha256(text).hexdigest()[:16]

    def test_repair_then_feedback(self, ephemeral_service, hospital):
        cold = ephemeral_service.repair(payload_for(hospital))
        assert (self.digest(cold), cold["num_repairs"]) == ("a314b06d142cbe9b", 13)
        first = {key: cold["repairs"][0][key] for key in ("tid", "attribute")}
        cells = [
            # Out of the domain: a repaired query cell, another query
            # cell, and an evidence cell (appended after the query cells).
            {**first, "value": "Elsewhere"},
            {"tid": 0, "attribute": "City", "value": "Nowhere"},
            {"tid": 0, "attribute": "Address1", "value": "1 Nowhere Rd"},
        ]
        fed = ephemeral_service.feedback(cold["session"], {"cells": cells})
        assert (self.digest(fed), fed["noisy_cells"]) == ("32db060031e5828e", 325)


class TestMarginals:
    def test_filters(self, service, hospital):
        sid = service.repair(payload_for(hospital))["session"]
        everything = service.marginals(sid)["cells"]
        tid = everything[0]["tid"]
        subset = service.marginals(sid, tid=tid)["cells"]
        assert subset and all(c["tid"] == tid for c in subset)
        for cell in subset:
            assert cell["confidence"] == max(cell["marginal"])

    def test_filtered_response_is_the_filter_of_the_full_one(self, service, hospital):
        """The filter runs on the catalog's columns before any cell is
        decoded; what comes back is byte-for-byte the matching slice of
        the unfiltered response."""
        sid = service.repair(payload_for(hospital))["session"]
        everything = service.marginals(sid)["cells"]
        assert everything == sorted(
            everything, key=lambda c: (c["tid"], c["attribute"])
        )
        target = everything[len(everything) // 2]
        tid, attribute = target["tid"], target["attribute"]
        for asked in (
            {"tid": tid},
            {"attribute": attribute},
            {"tid": tid, "attribute": attribute},
            {"tid": 10**6},
            {"attribute": "NoSuchColumn"},
            {"tid": tid, "attribute": "NoSuchColumn"},
        ):
            want = [
                cell
                for cell in everything
                if all(cell[field] == value for field, value in asked.items())
            ]
            got = service.marginals(sid, **asked)
            assert json.dumps(got) == json.dumps({"session": sid, "cells": want})
        assert service.marginals(sid, tid=tid, attribute=attribute)["cells"] == [target]
        for cell in everything:
            assert cell["chosen"] == cell["domain"][np.argmax(cell["marginal"])]
            assert all(isinstance(value, str) for value in cell["domain"])

    def test_unknown_session(self, service):
        with pytest.raises(NotFound):
            service.marginals("feedbeefcafe")

    def test_rehydrates_from_checkpoint(self, service, hospital):
        sid = service.repair(payload_for(hospital))["session"]
        before = service.marginals(sid)["cells"]
        service.delete_session(sid)  # evict but keep the checkpoint
        after = service.marginals(sid)["cells"]
        assert after == before

    @pytest.mark.parametrize(
        "damage", ["truncated", "renamed", "version-1", "version-2", "version-8"]
    )
    def test_bad_checkpoint_means_cold_run(self, service, hospital, damage):
        """Format 2 pickled one object per variable, format 8 a config with
        the serving settings; like any other mismatch it is refused with a
        warning, discarded, and the request runs cold."""
        first = service.repair(payload_for(hospital))
        sid = first["session"]
        service.delete_session(sid)  # evict but keep the checkpoint
        directory = service.checkpoints.path(sid)
        detect = directory / "detect.pkl"
        if damage == "truncated":
            detect.write_bytes(detect.read_bytes()[:40])
        elif damage == "renamed":  # unpickles into a ModuleNotFoundError
            renamed = detect.read_bytes().replace(b"repro.detect", b"repro.detekt")
            assert renamed != detect.read_bytes()
            detect.write_bytes(renamed)
        else:
            assert FORMAT_VERSION == 9
            meta = directory / "meta.json"
            current = f'"version": {FORMAT_VERSION}'
            assert current in meta.read_text()
            other = f'"version": {damage.removeprefix("version-")}'
            meta.write_text(meta.read_text().replace(current, other))
        records: list[logging.LogRecord] = []
        handler = logging.Handler(logging.WARNING)
        handler.emit = records.append
        logger = logging.getLogger("repro.serve")
        logger.addHandler(handler)
        try:
            again = service.repair(payload_for(hospital))
        finally:
            logger.removeHandler(handler)
        assert again["path"] == "cold"
        assert again["repairs"] == first["repairs"]
        assert [r.getMessage().split(":")[0] for r in records] == [
            f"discarding bad checkpoint {sid}"
        ]
        assert service.checkpoints.load(sid) is not None  # rewritten by the cold run


class TestValidation:
    def test_missing_dataset(self, ephemeral_service):
        with pytest.raises(BadRequest, match="dataset"):
            ephemeral_service.repair({"constraints": []})

    def test_ragged_rows(self, ephemeral_service):
        with pytest.raises(BadRequest, match="values"):
            ephemeral_service.repair(
                {
                    "dataset": {"columns": ["A", "B"], "rows": [["x"]]},
                    "constraints": ["t1&t2&EQ(t1.A,t2.A)&IQ(t1.B,t2.B)"],
                }
            )

    def test_bad_constraint_text(self, ephemeral_service):
        with pytest.raises(BadRequest, match="constraint"):
            ephemeral_service.repair(
                {
                    "dataset": {"columns": ["A"], "rows": [["x"]]},
                    "constraints": ["NOT A DC"],
                }
            )

    def test_sim_threshold_override_parses_the_constraints(self, ephemeral_service):
        # The request's sim_threshold, not the server's, decides what a
        # similarity DC flags — and makes it a different session.
        rows = [
            ["60601", "Chicago"],
            ["60601", "Chicagoo"],
            ["60601", "Chicago"],
            ["60602", "Boston"],
            ["60602", "Bostn"],
            ["60602", "Boston"],
            ["60603", "Evanston"],
            ["60603", "Evansten"],
            ["60604", "Skokie"],
            ["60604", "Skokey"],
        ]
        dc = "t1&t2&EQ(t1.Zip,t2.Zip)&SIM(t1.City,t2.City)&IQ(t1.City,t2.City)"
        noisy, sessions = [], set()
        for threshold in (0.95, 0.8, 0.3):
            response = ephemeral_service.repair(
                {
                    "dataset": {"columns": ["Zip", "City"], "rows": rows},
                    "constraints": [dc],
                    "config": {"sim_threshold": threshold, "epochs": 5},
                }
            )
            noisy.append(response["noisy_cells"])
            sessions.add(response["session"])
        assert noisy == [0, 16, 20]
        assert len(sessions) == 3

    def test_join_free_constraint_over_the_scan_limit(self, ephemeral_service):
        # No equality predicate over more than 20k rows: the client's
        # constraint is at fault (ValueError, a 400), not the server.
        rows = [[str(i)] for i in range(20_001)]
        with pytest.raises(ValueError, match="add an equality predicate"):
            ephemeral_service.repair(
                {
                    "dataset": {"columns": ["A"], "rows": rows},
                    "constraints": ["t1&t2&LT(t1.A,t2.A)"],
                }
            )
        gauges = ephemeral_service.metrics_snapshot()["gauges"]
        assert gauges["serve.errors_total"] == 0

    def test_no_constraints(self, ephemeral_service):
        with pytest.raises(BadRequest, match="constraints"):
            ephemeral_service.repair({"dataset": {"columns": ["A"], "rows": [["x"]]}})

    def test_unknown_config_field(self, ephemeral_service, hospital):
        payload = payload_for(hospital)
        payload["config"]["no_such_knob"] = 1
        with pytest.raises(BadRequest, match="config"):
            ephemeral_service.repair(payload)

    @pytest.mark.parametrize(
        "field",
        [
            "serve_max_sessions",
            "serve_workers",
            "serve_checkpoint_dir",
            "serve_queue_depth",
            "serve_job_timeout",
        ],
    )
    def test_serve_knobs_are_operator_only(self, ephemeral_service, hospital, field):
        # Not config fields any more: a request that names one names an
        # unknown field.
        payload = payload_for(hospital)
        payload["config"][field] = 64
        with pytest.raises(BadRequest, match="config"):
            ephemeral_service.repair(payload)

    @pytest.mark.parametrize("entity", ["Flight", 5, None])
    def test_entity_key_that_is_not_a_list_of_names(
        self, ephemeral_service, flights, entity
    ):
        # "Flight" used to key entities letter by letter (KeyError: 'F'
        # inside compile), 5 and null a TypeError: each an HTTP 500.
        payload = payload_for(flights)
        payload["config"]["source_entity_attributes"] = entity
        with pytest.raises(BadRequest, match="source_entity_attributes"):
            ephemeral_service.repair(payload)

    def test_entity_key_naming_no_attribute(self, ephemeral_service, flights):
        # Compile names the attribute; a ValueError is the client's (400).
        payload = payload_for(flights)
        payload["config"]["source_entity_attributes"] = ["NoSuchAttr"]
        with pytest.raises(ValueError, match="'NoSuchAttr'"):
            ephemeral_service.repair(payload)
        gauges = ephemeral_service.metrics_snapshot()["gauges"]
        assert gauges["serve.errors_total"] == 0

    def test_delete_unknown_session(self, ephemeral_service):
        with pytest.raises(NotFound):
            ephemeral_service.delete_session("feedbeefcafe")


class TestServiceOptions:
    @pytest.mark.parametrize(
        "options, name",
        [
            ({"workers": -1}, "workers"),
            ({"workers": 1.5}, "workers"),
            ({"workers": True}, "workers"),
            ({"queue_depth": -1}, "queue_depth"),
            ({"max_sessions": 0}, "capacity"),
        ],
    )
    def test_invalid_options_are_refused(self, options, name):
        with pytest.raises(ValueError, match=name):
            make_service(**options)

    def test_restart_with_other_options_runs_apply_only(self, tmp_path, hospital):
        # The options configure the process, not the repair: a restart
        # with another capacity and pool size reuses the learned weights
        # and marginals of the checkpoint.
        first = make_service(checkpoint_dir=str(tmp_path), max_sessions=16)
        try:
            cold = first.repair(payload_for(hospital))
        finally:
            first.close()
        second = make_service(checkpoint_dir=str(tmp_path), max_sessions=8, workers=1)
        try:
            again = second.repair(payload_for(hospital))
        finally:
            second.close()
        assert again["path"] == "rehydrated"
        assert again["stage_status"]["learn"] == "skipped"
        assert again["stage_status"]["infer"] == "skipped"
        assert again["stage_status"]["apply"] == "ran"
        assert again["repairs"] == cold["repairs"]

    def test_served_config_fingerprint_is_the_batch_runs(
        self, ephemeral_service, hospital
    ):
        payload = payload_for(hospital)
        payload["report"] = True
        served = ephemeral_service.repair(payload)["report"]
        ctx = RepairPlan.default().run(
            RepairContext(
                dataset=hospital.dirty,
                constraints=hospital.constraints,
                config=HoloCleanConfig(**payload["config"]),
            )
        )
        assert served["fingerprint"] == ctx.result.report.fingerprint
        assert served["config"] == ctx.result.report.config


class TestAdmissionControl:
    def test_saturation_raises_429(self, hospital):
        svc = make_service(queue_depth=0)
        try:
            svc._admit()  # the single slot is now taken
            with pytest.raises(Saturated):
                svc.submit_repair(payload_for(hospital))
            assert svc._counts["rejected"] == 1
            with svc._gate:
                svc._inflight -= 1
        finally:
            svc.close()

    def test_slots_released_after_job(self, ephemeral_service, hospital):
        ephemeral_service.repair(payload_for(hospital))
        assert ephemeral_service._inflight == 0


class TestLifecycle:
    def test_eviction_checkpoints(self, tmp_path, hospital, flights):
        svc = make_service(max_sessions=1, checkpoint_dir=str(tmp_path))
        try:
            first = svc.repair(payload_for(hospital))
            svc.repair(payload_for(flights))  # displaces the hospital session
            assert len(svc.store) == 1
            assert svc.checkpoints.has(first["session"])
            back = svc.repair(payload_for(hospital))
            assert back["path"] == "rehydrated"
        finally:
            svc.close()

    def test_close_checkpoints_warm_sessions(self, tmp_path, hospital):
        svc = make_service(checkpoint_dir=str(tmp_path))
        sid = svc.repair(payload_for(hospital))["session"]
        svc.close()
        assert svc.checkpoints.has(sid)

    def test_metrics_snapshot(self, service, hospital):
        service.repair(payload_for(hospital))
        service.repair(payload_for(hospital))
        snapshot = service.metrics_snapshot()
        gauges = snapshot["gauges"]
        assert gauges["serve.requests_total"] == 2
        assert gauges["serve.cold_total"] == 1
        assert gauges["serve.warm_total"] == 1
        assert gauges["serve.sessions"] == 1
        assert snapshot["labels"]["serve.last_path"] == "warm"
        assert len(snapshot["series"]["serve.job_seconds"]) == 2

    def test_checkpoint_cost_is_recorded(self, service, hospital):
        """Save and load seconds and the bytes written are read off the
        registry (and so off ``/metricsz``), not inferred from overhead."""
        sid = service.repair(payload_for(hospital))["session"]  # cold: one save
        service.repair(payload_for(hospital))  # warm: none
        snapshot = service.metrics_snapshot()
        assert len(snapshot["series"]["serve.checkpoint_save_seconds"]) == 1
        assert "serve.checkpoint_load_seconds" not in snapshot["series"]
        directory = service.checkpoints.path(sid)
        on_disk = sum(f.stat().st_size for f in directory.iterdir())
        assert snapshot["gauges"]["serve.checkpoint_bytes"] == on_disk > 0

        service.delete_session(sid)  # evict: nothing ran since the save
        # An unchanged rehydrate loads and re-runs nothing it would save.
        assert service.repair(payload_for(hospital))["path"] == "rehydrated"
        series = service.metrics_snapshot()["series"]
        assert len(series["serve.checkpoint_save_seconds"]) == 1
        assert len(series["serve.checkpoint_load_seconds"]) == 1
        spent = [s for name in series if "checkpoint" in name for s in series[name]]
        assert len(spent) == 2 and min(spent) > 0

    def test_eviction_saves_a_changed_warm_session(self, service, hospital):
        """A warm request that re-learned is saved when it is evicted, and
        the rehydrate repairs exactly as the warm session did."""
        sid = service.repair(payload_for(hospital))["session"]  # cold: one save
        retuned = service.repair(payload_for(hospital, epochs=14))
        assert retuned["path"] == "warm"
        assert retuned["stage_status"]["learn"] == "ran"
        service.delete_session(sid)
        series = service.metrics_snapshot()["series"]
        assert len(series["serve.checkpoint_save_seconds"]) == 2
        back = service.repair(payload_for(hospital, epochs=14))
        assert back["path"] == "rehydrated"
        assert back["stage_status"]["learn"] == "skipped"
        assert back["repairs"] == retuned["repairs"]

    def test_failed_save_is_retried_on_eviction(self, service, hospital, monkeypatch):
        save = service.checkpoints.save

        def fail_once(*args):
            monkeypatch.setattr(service.checkpoints, "save", save)
            raise CheckpointError("disk full")

        monkeypatch.setattr(service.checkpoints, "save", fail_once)
        sid = service.repair(payload_for(hospital))["session"]
        assert not service.checkpoints.has(sid)
        service.delete_session(sid)
        assert service.checkpoints.has(sid)

    def test_health(self, service):
        health = service.health()
        assert health["status"] == "ok"
        assert health["checkpointing"] is True


def pooled_service() -> RepairService:
    """A one-worker service whose pool really started.

    Both ``pool.submit`` sites pickle their callable under every start
    method; a lambda or a bound method in either makes the service fall
    back to inline, which these assertions catch.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork-based pool unavailable on this platform")
    svc = make_service(workers=1)
    assert svc._process_pool() is not None, "the pool warmup did not run"
    return svc


class TestProcessPool:
    def test_cold_runs_through_pool(self, hospital):
        svc = pooled_service()
        try:
            cold = svc.repair(payload_for(hospital))
            assert cold["path"] == "cold"
            assert svc._process_pool() is not None, "the cold job ran inline"
            warm = svc.repair(payload_for(hospital))
            assert warm["path"] == "warm"
            assert warm["repairs"] == cold["repairs"]
        finally:
            svc.close()

    def test_pool_output_matches_inline(self, hospital):
        pooled = pooled_service()
        inline = make_service()
        try:
            a = pooled.repair(payload_for(hospital))
            b = inline.repair(payload_for(hospital))
            assert pooled._process_pool() is not None, "the cold job ran inline"
            assert a["repairs"] == b["repairs"]
            assert a["session"] == b["session"]
        finally:
            pooled.close()
            inline.close()
