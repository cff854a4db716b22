"""HTTP front-end tests: routing, error mapping, end-to-end repairs.

No HTTP client library ships in the container, so requests go over a
raw asyncio stream — which also exercises the hand-rolled HTTP/1.1
parsing in :mod:`repro.serve.server` from the wire up.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.config import HoloCleanConfig
from repro.serve.server import RepairServer
from repro.serve.service import RepairService

from tests.serve.conftest import payload_for


async def _request(port, method, path, body=None, raw: bytes | None = None):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        if raw is None:
            payload = b"" if body is None else json.dumps(body).encode()
            head = (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: t\r\nContent-Length: {len(payload)}\r\n\r\n"
            )
            writer.write(head.encode() + payload)
        else:
            writer.write(raw)
        await writer.drain()
        response = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, body_bytes = response.partition(b"\r\n\r\n")
    lines = head.decode().split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, json.loads(body_bytes)


def serve(test_body, config=None):
    """Run ``await test_body(server)`` against a live ephemeral server."""

    async def scenario():
        service = RepairService(config or HoloCleanConfig(serve_workers=0))
        server = RepairServer(service, port=0)
        await server.start()
        try:
            return await test_body(server)
        finally:
            await server.stop()

    return asyncio.run(scenario())


class TestRoutes:
    def test_healthz(self):
        async def body(server):
            status, _, payload = await _request(server.port, "GET", "/healthz")
            assert status == 200
            assert payload["status"] == "ok"
            assert payload["sessions"] == 0

        serve(body)

    def test_repair_cold_then_warm(self, hospital):
        async def body(server):
            status, _, first = await _request(
                server.port, "POST", "/repair", payload_for(hospital)
            )
            assert status == 200
            assert first["path"] == "cold"
            assert first["num_repairs"] > 0

            status, _, second = await _request(
                server.port, "POST", "/repair", payload_for(hospital)
            )
            assert status == 200
            assert second["path"] == "warm"
            assert second["repairs"] == first["repairs"]
            return first["session"]

        serve(body)

    def test_feedback_and_marginals(self, hospital):
        async def body(server):
            _, _, first = await _request(
                server.port, "POST", "/repair", payload_for(hospital)
            )
            sid = first["session"]

            status, _, marginals = await _request(
                server.port, "GET", f"/sessions/{sid}/marginals"
            )
            assert status == 200 and marginals["cells"]
            target = marginals["cells"][0]

            status, _, filtered = await _request(
                server.port,
                "GET",
                f"/sessions/{sid}/marginals"
                f"?tid={target['tid']}&attribute={target['attribute']}",
            )
            assert status == 200
            assert {(c["tid"], c["attribute"]) for c in filtered["cells"]} == {
                (target["tid"], target["attribute"])
            }

            status, _, response = await _request(
                server.port,
                "POST",
                f"/sessions/{sid}/feedback",
                {
                    "cells": [
                        {
                            "tid": target["tid"],
                            "attribute": target["attribute"],
                            "value": target["domain"][-1],
                        }
                    ]
                },
            )
            assert status == 200
            assert response["feedback_count"] == 1
            assert response["path"] == "warm"

        serve(body)

    def test_feedback_value_is_normalised(self, hospital):
        """``"  Chicago "`` confirms the candidate ``"Chicago"``: a clamp, so
        no repair is reported for a cell the dataset leaves unchanged."""
        observed = hospital.dirty.value(0, "City")

        async def body(server):
            _, _, first = await _request(
                server.port, "POST", "/repair", payload_for(hospital)
            )
            sid = first["session"]
            url = f"/sessions/{sid}/marginals?tid=0&attribute=City"
            _, _, marginals = await _request(server.port, "GET", url)
            (cell,) = marginals["cells"]
            assert observed in cell["domain"]
            padded = {"tid": 0, "attribute": "City", "value": f"  {observed} "}
            status, _, response = await _request(
                server.port, "POST", f"/sessions/{sid}/feedback", {"cells": [padded]}
            )
            assert status == 200
            repaired = {(r["tid"], r["attribute"]) for r in response["repairs"]}
            assert (0, "City") not in repaired
            assert response["num_repairs"] == len(response["repairs"])
            assert response["noisy_cells"] == first["noisy_cells"]

        serve(body)

    def test_delete_then_404(self, hospital):
        async def body(server):
            _, _, first = await _request(
                server.port, "POST", "/repair", payload_for(hospital)
            )
            sid = first["session"]
            status, _, gone = await _request(
                server.port, "DELETE", f"/sessions/{sid}?checkpoint=0"
            )
            assert status == 200 and gone["evicted"]
            status, _, _ = await _request(
                server.port, "DELETE", f"/sessions/{sid}?checkpoint=0"
            )
            assert status == 404

        serve(body)

    def test_metricsz_counts_requests(self, hospital):
        async def body(server):
            await _request(server.port, "POST", "/repair", payload_for(hospital))
            await _request(server.port, "POST", "/repair", payload_for(hospital))
            status, _, snapshot = await _request(server.port, "GET", "/metricsz")
            assert status == 200
            assert snapshot["gauges"]["serve.requests_total"] == 2
            assert snapshot["gauges"]["serve.warm_total"] == 1
            assert snapshot["labels"]["serve.last_path"] == "warm"

        serve(body)


class TestErrorMapping:
    def test_unknown_route_404(self):
        async def body(server):
            status, _, payload = await _request(server.port, "GET", "/nope")
            assert status == 404 and "no route" in payload["error"]

        serve(body)

    def test_wrong_method_405(self):
        async def body(server):
            status, _, _ = await _request(server.port, "GET", "/repair")
            assert status == 405

        serve(body)

    def test_bad_payload_400(self):
        async def body(server):
            status, _, payload = await _request(
                server.port, "POST", "/repair", {"constraints": ["x"]}
            )
            assert status == 400 and "dataset" in payload["error"]

        serve(body)

    def test_join_free_constraint_over_the_scan_limit_400(self):
        request = {
            "dataset": {"columns": ["A"], "rows": [[str(i)] for i in range(20_001)]},
            "constraints": ["t1&t2&LT(t1.A,t2.A)"],
        }

        async def body(server):
            status, _, payload = await _request(server.port, "POST", "/repair", request)
            assert status == 400 and "equality predicate" in payload["error"]
            _, _, snapshot = await _request(server.port, "GET", "/metricsz")
            assert snapshot["gauges"]["serve.errors_total"] == 0

        serve(body)

    def test_removed_config_field_400(self, hospital):
        removed = {
            "vector_domains": False,
            "parallel_workers": 2,
            "engine_backend": "sqlite",
        }

        async def body(server):
            for name, value in removed.items():
                request = payload_for(hospital)
                request["config"][name] = value
                status, _, payload = await _request(
                    server.port, "POST", "/repair", request
                )
                assert status == 400, name
                assert "unknown config field" in payload["error"], name
                assert name in payload["error"]

        serve(body)

    def test_negative_gibbs_sweeps_400(self, hospital):
        async def body(server):
            request = payload_for(hospital)
            request["config"]["gibbs_sweeps"] = -3
            status, _, payload = await _request(
                server.port, "POST", "/repair", request
            )
            assert status == 400 and "gibbs_sweeps" in payload["error"]

        serve(body)

    def test_zero_dc_feature_cap_400(self, hospital):
        async def body(server):
            request = payload_for(hospital)
            request["config"]["dc_feature_cap"] = 0.0
            status, _, payload = await _request(
                server.port, "POST", "/repair", request
            )
            assert status == 400 and "dc_feature_cap" in payload["error"]

        serve(body)

    def test_fractional_partner_cap_400(self, hospital):
        # A float count used to reach a numpy cast inside the DC feature
        # kernel and come back as a 500.
        async def body(server):
            request = payload_for(hospital)
            request["config"]["max_dc_feature_partners"] = 2.5
            status, _, payload = await _request(server.port, "POST", "/repair", request)
            assert status == 400 and "max_dc_feature_partners" in payload["error"]

        serve(body)

    def test_fractional_max_domain_400(self, hospital):
        # A fractional candidate cap used to raise IndexError inside the
        # domain pruner and come back as a 500.
        async def body(server):
            request = payload_for(hospital)
            request["config"]["max_domain"] = 2.5
            status, _, payload = await _request(server.port, "POST", "/repair", request)
            assert status == 400 and "max_domain" in payload["error"]

        serve(body)

    def test_nan_config_value_400(self, hospital):
        # json.loads accepts a bare NaN literal; the config must refuse it
        # instead of training NaN weights into a zero-repair "success".
        async def body(server):
            request = payload_for(hospital)
            request["config"]["learning_rate"] = float("nan")
            raw_body = json.dumps(request).encode()
            assert b"NaN" in raw_body
            status, _, payload = await _request(
                server.port, "POST", "/repair", request
            )
            assert status == 400 and "learning_rate" in payload["error"]

        serve(body)

    def test_kernel_crashing_config_values_400(self, hospital):
        # Each reached a kernel and came back as a 500 (a negative seed in
        # the evidence sampler, a fractional pair budget at a slice, a NaN
        # threshold in similar()) or as a 200 that grounded no DC factor.
        bad = {
            "seed": -1,
            "max_factor_pairs": 2.5,
            "max_factor_table": 0,
            "sim_threshold": float("nan"),
        }

        async def body(server):
            for name, value in bad.items():
                request = payload_for(hospital)
                request["config"][name] = value
                status, _, payload = await _request(
                    server.port, "POST", "/repair", request
                )
                assert status == 400, name
                assert name in payload["error"], name

        serve(body)

    def test_invalid_json_400(self):
        async def body(server):
            raw = (
                b"POST /repair HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 9\r\n\r\nnot-json!"
            )
            status, _, payload = await _request(server.port, "POST", "/repair", raw=raw)
            assert status == 400 and "JSON" in payload["error"]

        serve(body)

    def test_unknown_session_404(self):
        async def body(server):
            status, _, _ = await _request(
                server.port, "GET", "/sessions/feedbeefcafe/marginals"
            )
            assert status == 404

        serve(body)

    def test_saturated_429_with_retry_after(self, hospital):
        async def body(server):
            service = server.service
            with service._gate:
                service._inflight = max(1, service.workers) + service.queue_depth
            try:
                status, headers, payload = await _request(
                    server.port, "POST", "/repair", payload_for(hospital)
                )
            finally:
                with service._gate:
                    service._inflight = 0
            assert status == 429
            assert headers["retry-after"] == "1"
            assert "retry" in payload["error"]

        serve(body)

    def test_job_timeout_504(self, hospital):
        async def body(server):
            status, _, payload = await _request(
                server.port, "POST", "/repair", payload_for(hospital)
            )
            assert status == 504 and "budget" in payload["error"]
            assert server.service._counts["timeouts"] == 1

        serve(body, HoloCleanConfig(serve_workers=0, serve_job_timeout=0.001))


class TestRehydration:
    def test_restart_rehydrates_from_checkpoint(self, tmp_path, hospital):
        """A brand-new server process picks up the old server's session."""
        config = HoloCleanConfig(serve_workers=0, serve_checkpoint_dir=str(tmp_path))

        async def first_life(server):
            _, _, response = await _request(
                server.port, "POST", "/repair", payload_for(hospital)
            )
            assert response["path"] == "cold"
            return response

        async def second_life(server):
            _, _, response = await _request(
                server.port, "POST", "/repair", payload_for(hospital)
            )
            return response

        before = serve(first_life, config)
        after = serve(second_life, config)
        assert after["path"] == "rehydrated"
        assert after["session"] == before["session"]
        assert after["repairs"] == before["repairs"]

    def test_evicted_session_rehydrates_with_identical_marginals(
        self, tmp_path, hospital
    ):
        """DELETE keeps the checkpoint; the next POST rebuilds the session
        from it, and every cell's marginal comes back unchanged."""
        config = HoloCleanConfig(serve_workers=0, serve_checkpoint_dir=str(tmp_path))

        async def body(server):
            _, _, first = await _request(
                server.port, "POST", "/repair", payload_for(hospital)
            )
            sid = first["session"]
            marginals = f"/sessions/{sid}/marginals"
            _, _, before = await _request(server.port, "GET", marginals)
            status, _, gone = await _request(server.port, "DELETE", f"/sessions/{sid}")
            assert status == 200 and gone["evicted"]
            _, _, again = await _request(
                server.port, "POST", "/repair", payload_for(hospital)
            )
            assert again["path"] == "rehydrated"
            assert again["repairs"] == first["repairs"]
            _, _, after = await _request(server.port, "GET", marginals)
            assert before["cells"] and after["cells"] == before["cells"]

        serve(body, config)


def test_cli_parser_defaults():
    from repro.serve.server import build_parser

    args = build_parser().parse_args(["--port", "0", "--workers", "0"])
    assert args.port == 0
    assert args.workers == 0
    assert args.max_sessions == 16
    assert args.queue_depth == 8
    assert args.job_timeout == 300.0
    assert args.checkpoint_dir is None
