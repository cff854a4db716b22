"""One lifetime of ``python -m repro serve``, driven over HTTP.

Closed loop, one client, one request in flight.  A lifetime is: spawn
the server on a free port, wait for ``/healthz``, run one priming cycle
(cold → feedback → evict → rehydrate; all of this is ``setup_s``), then
the measured cycles::

    purge → cold POST → same-payload warm POST → feedback POST
          → GET marginals → DELETE (evict to checkpoint) → POST (rehydrated)

Every request is one operation: it fails on a non-200, a wrong ``path``,
a verified cell that does not hold its value afterwards, a warm reply
whose repairs differ from the cold one's, or a rehydrated reply whose
repairs differ from the ones before the eviction.  The server, its pool
worker and its checkpoint directory are gone when :func:`run_lifetime`
returns, whatever happened inside.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from common import FEEDBACK_CELLS, ROOT, Recorder, Spans, child_env, clock, repairs_fingerprint

STARTUP_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 30.0
SHUTDOWN_TIMEOUT_S = 20.0


def free_port() -> int:
    """A port that was free a moment ago: bind to 0, read it, release it."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def request(port: int, method: str, path: str, body: bytes | None = None):
    """One HTTP exchange; returns ``(status, parsed body, client seconds)``.

    The clock stops when the last body byte is read; parsing the reply is
    the client's own cost.
    """
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        started = time.perf_counter()
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        raw = response.read()
        elapsed = time.perf_counter() - started
    finally:
        connection.close()
    return response.status, json.loads(raw), elapsed


def process_tree(pid: int) -> list[int]:
    """``pid`` and its direct children (the server's pool workers)."""
    found = [pid]
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            status = (entry / "status").read_text()
        except OSError:
            continue  # the process ended while we were looking
        if f"\nPPid:\t{pid}\n" in status:
            found.append(int(entry.name))
    return found


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of the processes' ``VmHWM`` (peak resident set), in MB."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024


def stop_server(server: subprocess.Popen) -> None:
    """Ask the server to exit, insist if it does not, sweep its group."""
    if server.poll() is None:
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=SHUTDOWN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
    # The server leads its own process group; whatever it forked and did
    # not reap dies with the group.
    try:
        os.killpg(server.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + SHUTDOWN_TIMEOUT_S
    while time.monotonic() < deadline:
        try:
            os.killpg(server.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def apply_repairs(dirty, repairs: list[dict]):
    repaired = dirty.copy()
    for repair in repairs:
        repaired.set_value(repair["tid"], repair["attribute"], repair["new"])
    return repaired


def fingerprint_of(reply: dict) -> str:
    return repairs_fingerprint(
        (r["tid"], r["attribute"], r["new"]) for r in reply["repairs"]
    )


class Lifetime:
    """The requests of one server lifetime, with their checks."""

    def __init__(self, port: int, generated, payload: dict, rec: Recorder, spans: Spans):
        self.port = port
        self.generated = generated
        self.body = json.dumps(payload).encode()
        self.rec = rec
        self.spans = spans
        self.sid: str | None = None
        #: Fingerprint of the first measured cold repair.
        self.fingerprint: str | None = None

    def call(self, metric, label, method, path, body=None, want_path=None, check=None):
        """One operation; returns the reply, or ``None`` if it failed."""

        def exchange():
            with self.spans.span(f"http.{label}", method=method, path=path):
                return request(self.port, method, path, body)

        def verdict(outcome):
            status, reply, _ = outcome
            if status != 200:
                return f"HTTP {status}: {reply.get('error', reply)}"
            if want_path is not None and reply.get("path") != want_path:
                return f"path {reply.get('path')!r}, expected {want_path!r}"
            return check(reply) if check is not None else None

        outcome = self.rec.timed(None, label, exchange, verdict)
        if outcome is None:
            return None
        _, reply, elapsed = outcome
        if metric is not None:
            self.rec.add(metric, elapsed)
        reply["client_seconds"] = elapsed
        return reply

    def feedback_cells(self, reply: dict) -> list[dict]:
        """The least confident repairs of ``reply``, with their true values."""
        clean = self.generated.clean
        queue = sorted(
            reply["repairs"], key=lambda r: (r["confidence"], r["tid"], r["attribute"])
        )
        cells = []
        for repair in queue[:FEEDBACK_CELLS]:
            truth = clean.value(repair["tid"], repair["attribute"])
            if truth is not None:
                cells.append(
                    {"tid": repair["tid"], "attribute": repair["attribute"], "value": truth}
                )
        return cells

    def cycle(self, measured: bool) -> bool:
        """One cycle; ``measured=False`` is the priming cycle."""
        dirty = self.generated.dirty

        def name(metric: str) -> str | None:
            return metric if measured else None

        if measured:
            self.call(None, "purge", "DELETE", f"/sessions/{self.sid}?checkpoint=0")
        cold = self.call(name("repair_s"), "cold", "POST", "/repair", self.body, "cold")
        if cold is None:
            return False
        self.sid = cold["session"]
        if measured:
            self.rec.add("serve.http_overhead_s", cold["client_seconds"] - cold["elapsed_seconds"])
            self.call(
                "serve.warm_request_s", "warm", "POST", "/repair", self.body, "warm",
                lambda reply: None
                if reply["repairs"] == cold["repairs"]
                else "the warm run changed the repairs",
            )
        cells = self.feedback_cells(cold)

        def held(reply):
            after = apply_repairs(dirty, reply["repairs"])
            lost = sum(
                1 for c in cells if after.value(c["tid"], c["attribute"]) != c["value"]
            )
            return f"{lost} verified cells lost their value" if lost else None

        fed = self.call(
            name("rerepair_s"), "feedback", "POST", f"/sessions/{self.sid}/feedback",
            json.dumps({"cells": cells}).encode(), "warm", held,
        )
        if fed is None:
            return False
        if measured:
            self.call(
                "serve.marginals_request_s", "marginals", "GET",
                f"/sessions/{self.sid}/marginals",
            )
        self.call(
            name("serve.evict_request_s"), "evict", "DELETE", f"/sessions/{self.sid}",
            check=lambda reply: None if reply.get("checkpointed") else "no checkpoint kept",
        )
        before = fingerprint_of(fed)
        back = self.call(
            name("rehydrate_s"), "rehydrate", "POST", "/repair", self.body, "rehydrated",
            lambda reply: None
            if fingerprint_of(reply) == before
            else "repairs differ from the ones before the eviction",
        )
        if measured and self.fingerprint is None:
            from repro.eval.metrics import evaluate_repairs

            self.rec.add_quality(
                evaluate_repairs(
                    dirty, apply_repairs(dirty, cold["repairs"]), self.generated.clean
                )
            )
            self.fingerprint = fingerprint_of(cold)
        return back is not None


def run_lifetime(generated, payload: dict, cycles: int, workdir: Path,
                 rec: Recorder, spans: Spans) -> str | None:
    """Spawn, prime, measure ``cycles`` cycles, stop.  Returns the
    fingerprint of the first measured cold repair (``None`` without one)."""
    checkpoints = workdir / "checkpoints"
    log_path = workdir / "server.log"
    port = free_port()
    command = [
        sys.executable, "-m", "repro", "serve", "--workers", "1",
        "--checkpoint-dir", str(checkpoints), "--port", str(port),
    ]
    life = None
    with spans.span("serve.lifetime"), log_path.open("wb") as log:
        spawned_at = clock()
        # A benchmark started in the background inherits an ignored SIGINT,
        # and the server stops on nothing else: give it the default back.
        server = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=log, stderr=log, start_new_session=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        try:
            with spans.span("serve.setup"):
                rec.attempted += 1
                if not wait_healthy(server, port):
                    rec.fail(f"server never answered /healthz: {tail(log_path)}")
                    return None
                life = Lifetime(port, generated, payload, rec, spans)
                rec.add("serve.payload_bytes", len(life.body))
                if not life.cycle(measured=False):
                    return None
                rec.add("setup_s", clock() - spawned_at)
            for number in range(cycles):
                with spans.span("serve.cycle", number=number):
                    life.cycle(measured=True)
            rec.add("peak_rss_mb", peak_rss_mb(process_tree(server.pid)))
        finally:
            stop_server(server)
            shutil.rmtree(checkpoints, ignore_errors=True)
    return life.fingerprint if life is not None else None


def wait_healthy(server: subprocess.Popen, port: int) -> bool:
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    while time.monotonic() < deadline:
        if server.poll() is not None:
            return False
        try:
            status, _, _ = request(port, "GET", "/healthz")
        except (OSError, http.client.HTTPException, ValueError):
            time.sleep(0.02)
            continue
        if status == 200:
            return True
    return False


def tail(path: Path, lines: int = 5) -> str:
    try:
        return " | ".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return "(no server log)"
