"""Repair-as-a-service: session-keyed execution of the staged plan.

:class:`RepairService` is the transport-independent core of the
serving subsystem — :mod:`repro.serve.server` puts an asyncio HTTP
front end on it, tests and the load benchmark drive it directly.

Every repair request resolves to one of three paths, labelled in the
response and in the ``serve.*`` metrics:

* **cold** — no warm session and no checkpoint: the full
  Detect→Compile→Learn→Infer→Apply plan runs, on a bounded
  ``ProcessPoolExecutor`` when ``serve_workers > 0`` (the grounding
  work happens off the serving process) or inline otherwise, and the
  finished context is admitted to the LRU session store.
* **rehydrated** — no warm session but a checkpoint exists: the
  context is rebuilt from disk (engine and tracer come back lazily)
  and the plan re-enters wherever the checkpoint stopped; every stage
  whose artifact survived the trip skips itself, so an unchanged
  request runs apply alone and leaves the checkpoint as it was.
* **warm** — the session store has the context: detect and compile
  skip, learn and infer skip unless the request changed the config,
  and apply runs — the millisecond path the store exists for.

Feedback requests (Section 2.2 of the paper) go through
:meth:`~repro.core.session.RepairSession.from_context`, so the serving
layer shares the exact feedback semantics of the library session —
verified values become labeled evidence and clamps on the next rerun.

Admission control is a simple bounded counter: at most
``serve_workers`` jobs run while ``serve_queue_depth`` more may wait;
beyond that :class:`Saturated` is raised, which the HTTP layer maps to
429 + ``Retry-After``.  Each completed job refreshes the ``serve.*``
gauges and appends to the ``serve.job_seconds`` series; per-request
trace spans (``serve.request``) land on the session's tracer, and each
job's :class:`~repro.obs.report.RunReport` rides on the repair result.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.constraints.fd import parse_fd
from repro.constraints.parser import DCParseError, parse_dc
from repro.core.config import HoloCleanConfig
from repro.core.session import RepairSession
from repro.core.stages import RepairContext, RepairPlan
from repro.dataset.dataset import Cell, Dataset
from repro.dataset.schema import Attribute, Schema
from repro.obs import MetricsRegistry, get_logger
from repro.serve.checkpoint import STAGE_ARTIFACTS, CheckpointError, CheckpointStore
from repro.serve.store import Session, SessionKey, SessionStore

log = get_logger("serve")

#: Stages whose artifacts a checkpoint stores: a rehydrated request in
#: which none of them ran leaves its checkpoint unchanged.
CHECKPOINTED = tuple(stage for stage, _ in STAGE_ARTIFACTS)

#: Trace-root budget per warm session: reruns append spans to the same
#: tracer, so long-lived sessions trim their oldest roots past this.
SPAN_ROOT_CAP = 256


class ServiceError(Exception):
    """An error that maps onto an HTTP status."""

    status = 500


class BadRequest(ServiceError):
    """Malformed payload or invalid re-entry (HTTP 400)."""

    status = 400


class NotFound(ServiceError):
    """Unknown session id or route (HTTP 404)."""

    status = 404


class Saturated(ServiceError):
    """Worker pool and queue are full (HTTP 429 + Retry-After)."""

    status = 429
    retry_after = 1


def _pool_warmup(delay: float) -> int:
    """No-op job that holds a worker long enough to force full spawn."""
    time.sleep(delay)
    return 0


def _run_cold_job(ctx: RepairContext) -> RepairContext:
    """Full-plan repair, shaped for a worker process.

    Module-level so it pickles by reference; the engine and tracer are
    stripped before the context travels back (neither pickles, both
    rebuild lazily in the parent).
    """
    ctx = RepairPlan.default().run(ctx)
    if ctx.engine is not None:
        ctx.engine.close()
        ctx.engine = None
    if ctx.tracer is not None:
        ctx.tracer.shutdown()
        ctx.tracer = None
    return ctx


class RepairService:
    """Session-keyed repair execution behind a bounded worker pool."""

    def __init__(self, config: HoloCleanConfig | None = None):
        self.config = config or HoloCleanConfig()
        self.workers = self.config.serve_workers
        self.queue_depth = self.config.serve_queue_depth
        self.store = SessionStore(
            capacity=self.config.serve_max_sessions, on_evict=self._on_evict
        )
        self.checkpoints = (
            CheckpointStore(self.config.serve_checkpoint_dir)
            if self.config.serve_checkpoint_dir
            else None
        )
        self.metrics = MetricsRegistry()
        self.started_at = time.time()
        self._jobs = ThreadPoolExecutor(
            max_workers=max(1, self.workers), thread_name_prefix="serve-job"
        )
        self._pool: ProcessPoolExecutor | None = None
        self._pool_broken = False
        # Spawn the worker processes NOW, while (typically) only the
        # init thread exists: forking later, from a job thread under a
        # running event loop, can deadlock the child on locks the fork
        # copied mid-acquire.  After the warmup no submit forks again —
        # the pool is at max_workers and reuses idle processes.
        if self.workers > 0:
            self._spawn_pool()
        self._gate = threading.Lock()
        self._inflight = 0
        self._counts = {
            "requests": 0,
            "cold": 0,
            "warm": 0,
            "rehydrated": 0,
            "rejected": 0,
            "errors": 0,
            "timeouts": 0,
        }
        self._closed = False

    # ------------------------------------------------------------------
    # Public API (sync; submit_* return futures for the async front end)
    # ------------------------------------------------------------------
    def submit_repair(self, payload: dict) -> "Future[dict]":
        self._admit()
        return self._jobs.submit(self._guarded, self._repair_job, payload)

    def submit_feedback(self, sid: str, payload: dict) -> "Future[dict]":
        self._admit()
        return self._jobs.submit(self._guarded, self._feedback_job, sid, payload)

    def repair(self, payload: dict) -> dict:
        return self.submit_repair(payload).result()

    def feedback(self, sid: str, payload: dict) -> dict:
        return self.submit_feedback(sid, payload).result()

    def marginals(
        self, sid: str, tid: int | None = None, attribute: str | None = None
    ) -> dict:
        """Instant read of a session's cell marginals (no job queue)."""
        session = self._resident_session(sid)
        ctx = session.ctx
        with session.lock:
            if ctx.model is None or ctx.marginals is None:
                raise BadRequest(
                    f"session {sid} has no marginals yet; POST /repair first"
                )
            # Filter on the catalog's columns; decode the matching cells only.
            block = ctx.model.graph.variables
            ids = np.asarray(ctx.model.query_ids, dtype=np.int64)
            if tid is not None:
                ids = ids[block.tids[ids] == tid]
            if attribute is not None:
                ids = ids[block.attribute_codes[ids] == block.attribute_code(attribute)]
            cells = []
            found = zip(ids.tolist(), block.cells_of(ids), block.domains_of(ids))
            for vid, cell, domain in found:
                marginal = ctx.marginals[vid]
                best = int(marginal.argmax())
                cells.append(
                    {
                        "tid": cell.tid,
                        "attribute": cell.attribute,
                        "domain": domain,
                        "marginal": [float(p) for p in marginal],
                        "chosen": domain[best],
                        "confidence": float(marginal[best]),
                    }
                )
        return {"session": sid, "cells": cells}

    def delete_session(self, sid: str, checkpoint: bool = True) -> dict:
        """Evict a session; optionally preserve (or purge) its checkpoint."""
        found_warm = False
        if checkpoint:
            found_warm = self.store.evict(sid) is not None
            found_disk = self.checkpoints.has(sid) if self.checkpoints else False
        else:
            found_warm = self.store.remove(sid) is not None
            found_disk = bool(self.checkpoints and self.checkpoints.delete(sid))
        if not (found_warm or found_disk):
            raise NotFound(f"unknown session {sid!r}")
        self._sync_metrics()
        return {"session": sid, "evicted": found_warm, "checkpointed": found_disk}

    def health(self) -> dict:
        return {
            "status": "ok",
            "uptime_seconds": time.time() - self.started_at,
            "sessions": len(self.store),
            "inflight": self._inflight,
            "workers": self.workers,
            "queue_depth": self.queue_depth,
            "checkpointing": self.checkpoints is not None,
        }

    def metrics_snapshot(self) -> dict:
        self._sync_metrics()
        return self.metrics.as_dict()

    def note_timeout(self) -> None:
        """Called by the HTTP layer when a job exceeds its budget."""
        with self._gate:
            self._counts["timeouts"] += 1

    def close(self) -> None:
        """Checkpoint every warm session and release the pools."""
        if self._closed:
            return
        self._closed = True
        self.store.clear(evict=True)
        self._jobs.shutdown(wait=True, cancel_futures=True)
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "RepairService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Job bodies
    # ------------------------------------------------------------------
    def _repair_job(self, payload: dict) -> dict:
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a JSON object")
        dataset = self._parse_dataset(payload)
        config = self._parse_config(payload)
        constraints = self._parse_constraints(payload, config)
        probe = RepairContext(dataset=dataset, constraints=constraints, config=config)
        key = SessionKey.for_context(probe)
        sid = key.session_id

        session = self.store.lookup(key)
        if session is not None:
            path = "warm"
        else:
            ctx = self._rehydrate(sid)
            if ctx is not None:
                path = "rehydrated"
            else:
                path = "cold"
                ctx = probe
            session = self.store.admit(key, ctx)

        with session.lock:
            ctx = session.ctx
            ctx.config = config
            if payload.get("recompile"):
                # New grounding knobs: drop the model (detection stays)
                # so the plan recompiles instead of warm-skipping.
                ctx.model = None
            started = time.perf_counter()
            if path == "cold":
                ctx = self._run_cold(session)
            else:
                ctx = self._run_plan(ctx, path)
                session.ctx = ctx
            elapsed = time.perf_counter() - started
        self._account(path, elapsed)
        ran = {stage for stage, status in ctx.stage_status.items() if status == "ran"}
        if path != "warm" and ran.intersection(CHECKPOINTED):  # cold always detects
            self._checkpoint(session)
        return self._response(sid, path, ctx, elapsed, payload)

    def _feedback_job(self, sid: str, payload: dict) -> dict:
        session = self._resident_session(sid)
        cells = payload.get("cells") if isinstance(payload, dict) else None
        if not isinstance(cells, list) or not cells:
            raise BadRequest(
                "feedback body must be "
                '{"cells": [{"tid": .., "attribute": .., "value": ..}, ..]}'
            )
        with session.lock:
            ctx = session.ctx
            if ctx.model is None:
                raise BadRequest(
                    f"session {sid} has no compiled model yet; POST /repair first"
                )
            wrapper = RepairSession.from_context(ctx)
            for spec in cells:
                cell, value = self._parse_feedback_cell(ctx, spec)
                try:
                    wrapper.feedback(cell, value)
                except KeyError as exc:
                    raise BadRequest(str(exc))
            started = time.perf_counter()
            with ctx.span("serve.request", route="feedback", session=sid):
                wrapper.rerun()
            self._trim_trace(ctx)
            elapsed = time.perf_counter() - started
        self._account("warm", elapsed)
        self._checkpoint(session)
        response = self._response(sid, "warm", ctx, elapsed, payload)
        response["feedback_count"] = wrapper.feedback_count
        return response

    # ------------------------------------------------------------------
    # Execution paths
    # ------------------------------------------------------------------
    def _run_cold(self, session: Session) -> RepairContext:
        """Full plan, preferring the worker pool, inline as fallback."""
        ctx = session.ctx
        pool = self._process_pool()
        if pool is not None:
            try:
                ctx = pool.submit(_run_cold_job, ctx).result()
                session.ctx = ctx
                return ctx
            except BrokenExecutor:
                log.warning("worker pool broke; falling back to inline repair")
                self._pool_broken = True
            except (TypeError, AttributeError, OSError) as exc:
                log.warning("cold job not poolable (%s); running inline", exc)
                self._pool_broken = True
        ctx = self._run_plan(ctx, "cold")
        session.ctx = ctx
        return ctx

    def _run_plan(self, ctx: RepairContext, path: str) -> RepairContext:
        """One plan run in-process, wrapped in a request span."""
        plan = RepairPlan.default()
        plan.validate(ctx)
        with ctx.span("serve.request", route="repair", path=path):
            ctx = plan.run(ctx)
        if ctx.engine is not None:
            # Between requests the engine only costs memory (a warm
            # re-run grounds nothing unless it recompiles); drop it and
            # rebuild on demand.
            ctx.engine.close()
            ctx.engine = None
        self._trim_trace(ctx)
        return ctx

    def _rehydrate(self, sid: str) -> RepairContext | None:
        if self.checkpoints is None:
            return None
        started = time.perf_counter()
        try:
            ctx = self.checkpoints.load(sid)
        except CheckpointError as exc:
            log.warning("discarding bad checkpoint %s: %s", sid, exc)
            self.checkpoints.delete(sid)
            return None
        if ctx is not None:
            elapsed = time.perf_counter() - started
            self.metrics.extend("serve.checkpoint_load_seconds", [elapsed])
        return ctx

    def _checkpoint(self, session: Session) -> None:
        if self.checkpoints is None:
            return
        started = time.perf_counter()
        try:
            saved = self.checkpoints.save(session.sid, session.ctx)
        except CheckpointError as exc:
            log.warning("checkpoint of session %s failed: %s", session.sid, exc)
            return
        elapsed = time.perf_counter() - started
        self.metrics.extend("serve.checkpoint_save_seconds", [elapsed])
        size = sum(f.stat().st_size for f in saved.iterdir())
        self.metrics.gauge("serve.checkpoint_bytes", size)

    def _on_evict(self, session: Session) -> None:
        self._checkpoint(session)
        ctx = session.ctx
        if ctx.engine is not None:
            ctx.engine.close()
            ctx.engine = None
        if ctx.tracer is not None:
            ctx.tracer.shutdown()
            ctx.tracer = None

    def _spawn_pool(self) -> None:
        try:
            mp = multiprocessing.get_context("fork")
        except ValueError:
            self._pool_broken = True
            return
        pool = ProcessPoolExecutor(max_workers=self.workers, mp_context=mp)
        try:
            # One in-flight warmup per worker makes the executor fork
            # every process up front (it only spawns when no worker is
            # idle, so sequential no-ops would spawn just one).
            futures = [
                pool.submit(_pool_warmup, 0.05) for _ in range(self.workers)
            ]
            for future in futures:
                future.result(timeout=60)
        except Exception as exc:  # noqa: BLE001 - any failure → inline mode
            log.warning("worker pool failed to start (%s); running inline", exc)
            pool.shutdown(wait=False, cancel_futures=True)
            self._pool_broken = True
            return
        self._pool = pool

    def _process_pool(self) -> ProcessPoolExecutor | None:
        if self._pool_broken:
            return None
        return self._pool

    # ------------------------------------------------------------------
    # Request parsing
    # ------------------------------------------------------------------
    def _parse_dataset(self, payload: dict) -> Dataset:
        spec = payload.get("dataset")
        if not isinstance(spec, dict):
            raise BadRequest("payload needs a 'dataset' object")
        columns = spec.get("columns")
        rows = spec.get("rows")
        if not isinstance(columns, list) or not columns:
            raise BadRequest("'dataset.columns' must be a non-empty list")
        if not isinstance(rows, list):
            raise BadRequest("'dataset.rows' must be a list of rows")
        source = spec.get("source_column")
        if source is not None and source not in columns:
            raise BadRequest(f"source_column {source!r} is not a column")
        try:
            schema = Schema(
                [
                    Attribute(col, role="source" if col == source else "data")
                    for col in columns
                ]
            )
            cleaned = []
            for row in rows:
                if not isinstance(row, list) or len(row) != len(columns):
                    raise ValueError(
                        f"each row needs {len(columns)} values, got {row!r}"
                    )
                cleaned.append([None if value is None else str(value) for value in row])
            return Dataset(schema, cleaned, name=str(spec.get("name", "request")))
        except (TypeError, ValueError) as exc:
            raise BadRequest(f"bad dataset: {exc}")

    def _parse_constraints(self, payload: dict, config: HoloCleanConfig) -> list:
        texts = payload.get("constraints", [])
        fds = payload.get("fds", [])
        if not isinstance(texts, list) or not isinstance(fds, list):
            raise BadRequest("'constraints' and 'fds' must be lists of strings")
        constraints = []
        try:
            for text in texts:
                constraints.append(
                    parse_dc(str(text), sim_threshold=config.sim_threshold)
                )
            for text in fds:
                constraints.extend(parse_fd(str(text)).to_denial_constraints())
        except (DCParseError, ValueError) as exc:
            raise BadRequest(f"bad constraint: {exc}")
        if not constraints:
            raise BadRequest("payload needs 'constraints' and/or 'fds'")
        return constraints

    def _parse_config(self, payload: dict) -> HoloCleanConfig:
        overrides = payload.get("config", {})
        if not isinstance(overrides, dict):
            raise BadRequest("'config' must be an object of field overrides")
        for banned in (
            "serve_max_sessions",
            "serve_workers",
            "serve_checkpoint_dir",
            "serve_queue_depth",
            "serve_job_timeout",
        ):
            if banned in overrides:
                raise BadRequest(f"{banned!r} is operator-only, not per-request")
        if "source_entity_attributes" in overrides:
            overrides = dict(overrides)
            overrides["source_entity_attributes"] = tuple(
                overrides["source_entity_attributes"]
            )
        try:
            return self.config.with_(**overrides)
        except TypeError as exc:
            raise BadRequest(f"unknown config field: {exc}")
        except ValueError as exc:
            raise BadRequest(f"bad config: {exc}")

    @staticmethod
    def _parse_feedback_cell(ctx: RepairContext, spec) -> tuple[Cell, str]:
        if not isinstance(spec, dict):
            raise BadRequest(f"feedback cell must be an object, got {spec!r}")
        try:
            tid = int(spec["tid"])
            attribute = str(spec["attribute"])
            value = str(spec["value"])
        except (KeyError, TypeError, ValueError) as exc:
            raise BadRequest(f"bad feedback cell {spec!r}: {exc}")
        if attribute not in ctx.dataset.schema.names:
            raise BadRequest(f"unknown attribute {attribute!r}")
        if not 0 <= tid < ctx.dataset.num_tuples:
            raise BadRequest(f"tid {tid} out of range")
        return Cell(tid, attribute), value

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _resident_session(self, sid: str) -> Session:
        """The warm session, rehydrating from checkpoint if evicted."""
        session = self.store.get(sid)
        if session is None:
            ctx = self._rehydrate(sid)
            if ctx is None:
                raise NotFound(f"unknown session {sid!r}")
            session = self.store.admit(SessionKey.for_context(ctx), ctx)
            with self._gate:
                self._counts["rehydrated"] += 1
        return session

    def _admit(self) -> None:
        if self._closed:
            raise ServiceError("service is shut down")
        with self._gate:
            capacity = max(1, self.workers) + self.queue_depth
            if self._inflight >= capacity:
                self._counts["rejected"] += 1
                raise Saturated(
                    f"{self._inflight} jobs in flight (capacity {capacity}); "
                    f"retry shortly"
                )
            self._inflight += 1

    def _guarded(self, job, *args):
        try:
            return job(*args)
        except (ServiceError, ValueError):
            raise  # the client's error (a 4xx), not the server's
        except Exception:
            with self._gate:
                self._counts["errors"] += 1
            raise
        finally:
            with self._gate:
                self._inflight -= 1
            self._sync_metrics()

    def _account(self, path: str, elapsed: float) -> None:
        with self._gate:
            self._counts["requests"] += 1
            self._counts[path] += 1
        self.metrics.extend("serve.job_seconds", [elapsed])
        self.metrics.label("serve.last_path", path)

    def _sync_metrics(self) -> None:
        with self._gate:
            counts = dict(self._counts)
            inflight = self._inflight
        store = self.store.stats()
        self.metrics.gauge("serve.sessions", store["sessions"])
        self.metrics.gauge("serve.session_hits", store["hits"])
        self.metrics.gauge("serve.session_misses", store["misses"])
        self.metrics.gauge("serve.evictions_total", store["evictions"])
        self.metrics.gauge("serve.inflight", inflight)
        self.metrics.gauge("serve.requests_total", counts["requests"])
        self.metrics.gauge("serve.cold_total", counts["cold"])
        self.metrics.gauge("serve.warm_total", counts["warm"])
        self.metrics.gauge("serve.rehydrated_total", counts["rehydrated"])
        self.metrics.gauge("serve.rejected_total", counts["rejected"])
        self.metrics.gauge("serve.errors_total", counts["errors"])
        self.metrics.gauge("serve.timeouts_total", counts["timeouts"])

    @staticmethod
    def _trim_trace(ctx: RepairContext) -> None:
        tracer = ctx.tracer
        if tracer is not None and len(tracer.roots) > SPAN_ROOT_CAP:
            del tracer.roots[: len(tracer.roots) - SPAN_ROOT_CAP]

    def _response(
        self, sid: str, path: str, ctx: RepairContext, elapsed: float, payload: dict
    ) -> dict:
        result = ctx.result
        repairs = []
        if result is not None:
            for cell, inference in sorted(result.repairs.items()):
                repairs.append(
                    {
                        "tid": cell.tid,
                        "attribute": cell.attribute,
                        "old": inference.init_value,
                        "new": inference.chosen_value,
                        "confidence": round(inference.confidence, 6),
                    }
                )
        response = {
            "session": sid,
            "path": path,
            "elapsed_seconds": elapsed,
            "stage_status": dict(ctx.stage_status),
            "timings": ctx.phase_timings(),
            "noisy_cells": len(result.inferences) if result is not None else 0,
            "num_repairs": result.num_repairs if result is not None else 0,
            "repairs": repairs,
        }
        if payload.get("report") and result is not None and result.report is not None:
            response["report"] = result.report.to_dict()
        return response
