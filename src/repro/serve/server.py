"""Stdlib-asyncio HTTP front end for :class:`~repro.serve.service.RepairService`.

A deliberately small HTTP/1.1 JSON server (``asyncio.start_server``,
no frameworks — the container ships only the scientific stack):

==========  =================================  =======================
method      path                               behaviour
==========  =================================  =======================
``POST``    ``/repair``                        run/re-enter a repair
``POST``    ``/sessions/{sid}/feedback``       fold in verified cells
``GET``     ``/sessions/{sid}/marginals``      instant marginal read
``DELETE``  ``/sessions/{sid}``                evict (``?checkpoint=0``
                                               purges the disk copy)
``GET``     ``/healthz``                       liveness + capacity
``GET``     ``/metricsz``                      ``serve.*`` metrics dump
==========  =================================  =======================

Job requests ride :meth:`RepairService.submit_repair` /
``submit_feedback`` futures bridged into the event loop with
``asyncio.wrap_future``, so the loop stays free while repairs run on
the worker pool; the server's ``job_timeout`` bounds each job
(``asyncio.wait_for`` → 504), and a saturated pool surfaces as
429 with a ``Retry-After`` header.  Error mapping is uniform:
:class:`~repro.serve.service.ServiceError` carries its own status,
``ValueError`` (bad payloads) is a 400, and
anything else is a 500.

``python -m repro serve`` (see :func:`main`) is the operator entry
point: its flags are the parameters of :class:`RepairService` and
:class:`RepairServer`, and their defaults live in :func:`build_parser`
alone.  ``port=0`` binds an ephemeral port, which tests and the load
benchmark use.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import re
from numbers import Real

from repro.obs import add_verbosity_flags, configure, get_logger, verbosity_from
from repro.serve.service import RepairService, Saturated, ServiceError

log = get_logger("serve.http")

#: Request body ceiling (datasets travel inline as JSON rows).
MAX_BODY_BYTES = 64 * 1024 * 1024
#: Request line + headers ceiling.
MAX_HEADER_BYTES = 64 * 1024

_SESSION_ROUTE = re.compile(r"^/sessions/([0-9a-f]{6,64})(/[a-z]+)?$")


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    504: "Gateway Timeout",
}


class RepairServer:
    """One service bound to one listening socket.

    ``job_timeout`` is each job's wall-clock budget in seconds (``0``:
    none); a job past it is cancelled and answered with 504.
    """

    def __init__(
        self,
        service: RepairService,
        host: str = "127.0.0.1",
        port: int = 8080,
        *,
        job_timeout: float,
    ):
        # NaN passes a ``< 0`` test, and ``wait_for`` times out at once on it.
        if not (
            isinstance(job_timeout, Real)
            and math.isfinite(job_timeout)
            and job_timeout >= 0
        ):
            raise ValueError(
                f"job_timeout must be a finite number >= 0, got {job_timeout!r}"
            )
        self.service = service
        self.host = host
        self.port = port
        self.job_timeout = job_timeout
        self._server: asyncio.AbstractServer | None = None

    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        log.info("serving repairs on http://%s:%d", self.host, self.port)

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.service.close()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        headers: dict[str, str] = {}
        try:
            try:
                method, path, query, body = await self._read_request(reader)
                status, payload = await self._dispatch(method, path, query, body)
            except _HttpError as exc:
                status, payload = exc.status, {"error": str(exc)}
            except Saturated as exc:
                status, payload = exc.status, {"error": str(exc)}
                headers["Retry-After"] = str(exc.retry_after)
            except ServiceError as exc:
                status, payload = exc.status, {"error": str(exc)}
            except ValueError as exc:
                status, payload = 400, {"error": str(exc)}
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - last-resort 500
                log.exception("unhandled error serving request")
                status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
            await self._respond(writer, status, payload, headers)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request/response
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _HttpError(413, "headers too large")
        if len(head) > MAX_HEADER_BYTES:
            raise _HttpError(413, "headers too large")
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            raise _HttpError(400, f"malformed request line {lines[0]!r}")
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        path, _, raw_query = target.partition("?")
        query = {}
        for pair in raw_query.split("&"):
            if "=" in pair:
                name, _, value = pair.partition("=")
                query[name] = value
        length = int(headers.get("content-length", "0") or 0)
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        body = {}
        if length:
            raw = await reader.readexactly(length)
            try:
                body = json.loads(raw)
            except ValueError as exc:
                raise _HttpError(400, f"request body is not valid JSON: {exc}")
        return method.upper(), path, query, body

    async def _dispatch(self, method: str, path: str, query: dict, body):
        if path == "/healthz":
            self._require(method, "GET")
            return 200, self.service.health()
        if path == "/metricsz":
            self._require(method, "GET")
            return 200, self.service.metrics_snapshot()
        if path == "/repair":
            self._require(method, "POST")
            return 200, await self._job(self.service.submit_repair(body))
        match = _SESSION_ROUTE.match(path)
        if match:
            sid, action = match.group(1), match.group(2)
            if action == "/feedback":
                self._require(method, "POST")
                return 200, await self._job(self.service.submit_feedback(sid, body))
            if action == "/marginals":
                self._require(method, "GET")
                tid = int(query["tid"]) if "tid" in query else None
                attribute = query.get("attribute")
                payload = await asyncio.get_running_loop().run_in_executor(
                    None, lambda: self.service.marginals(sid, tid, attribute)
                )
                return 200, payload
            if action is None:
                self._require(method, "DELETE")
                keep = query.get("checkpoint", "1") not in ("0", "false")
                return 200, self.service.delete_session(sid, checkpoint=keep)
        raise _HttpError(404, f"no route for {method} {path}")

    async def _job(self, future) -> dict:
        """Await a service future with the configured per-job budget."""
        timeout = self.job_timeout or None
        wrapped = asyncio.wrap_future(future)
        try:
            return await asyncio.wait_for(wrapped, timeout)
        except asyncio.TimeoutError:
            future.cancel()
            self.service.note_timeout()
            raise _HttpError(504, f"job exceeded {timeout:.0f}s budget")
        except asyncio.CancelledError:
            future.cancel()  # client disconnected; stop queued work
            raise

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise _HttpError(405, f"use {expected} for this route")

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        extra_headers: dict[str, str],
    ) -> None:
        body = json.dumps(payload, default=str).encode("utf-8")
        reason = _STATUS_TEXT.get(status, "Unknown")
        head = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        head.extend(f"{name}: {value}" for name, value in extra_headers.items())
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="serve HoloClean repairs over HTTP: warm session "
        "store, per-stage checkpoints, bounded worker pool",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=8080,
        help="listening port (0 picks an ephemeral one)",
    )
    parser.add_argument(
        "--max-sessions", type=int, default=16, help="LRU session-store capacity"
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="repair worker processes (0 = inline)"
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        help="directory for session checkpoints (omit to disable rehydration)",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=8,
        help="queued jobs tolerated beyond the worker "
        "capacity before shedding load (429)",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=300.0,
        help="per-job budget in seconds (0 = unlimited)",
    )
    add_verbosity_flags(parser)
    return parser


async def _run(server: RepairServer) -> None:
    await server.start()
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()


def main(argv: list[str] | None = None) -> int:
    """``python -m repro serve``: run the HTTP repair service."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure(verbosity_from(args))
    try:
        service = RepairService(
            workers=args.workers,
            max_sessions=args.max_sessions,
            checkpoint_dir=args.checkpoint_dir,
            queue_depth=args.queue_depth,
        )
    except ValueError as exc:
        parser.error(str(exc))
    try:
        server = RepairServer(
            service, host=args.host, port=args.port, job_timeout=args.job_timeout
        )
    except ValueError as exc:
        service.close()
        parser.error(str(exc))
    try:
        asyncio.run(_run(server))
    except KeyboardInterrupt:
        log.info("shutting down")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
