"""Per-stage session checkpoints: repair state that survives eviction.

A checkpoint captures everything needed to rebuild a warm
:class:`~repro.core.stages.RepairContext` except the two members that
are cheap to rebuild and impossible to pickle — the grounding
:class:`~repro.engine.Engine` (memory-mapped columnar state, rebuilt
lazily by ``ctx.ensure_engine()``) and the
:class:`~repro.obs.trace.Tracer` (live spans).  Everything else is
plain Python + NumPy and round-trips through :mod:`pickle` exactly,
which is what makes rehydrated sessions *marginal-identical* to the
in-memory session they were serialized from.

On-disk layout, one directory per session id::

    <root>/<sid>/
        meta.json     format version, content fingerprints, stage list
        inputs.pkl    dataset (per-attribute int32 code columns + value
                      tables), constraints, config, feedback, dictionaries
        detect.pkl    DetectionResult: per-attribute boolean noisy masks
                      over tuple ids + the conflict hypergraph's
                      per-constraint tuple-id arrays
        compile.pkl   CompiledModel
        learn.pkl     learned weights + training losses + the digest
                      of the config and feedback they were learned from
        infer.pkl     marginals + the digest of the config and weights
                      they were inferred from
        <stage>.bin   beside any of the above whose pickle holds an array
                      of at least ``_OUT_OF_BAND_BYTES``: those arrays'
                      raw bytes (format 8)

Since format 8 a stage file is a protocol-5 pickle whose large buffers
(the feature matrix's ``indices`` / ``values`` first of all) travel out
of band, in a ``<stage>.bin`` sidecar: a header of little-endian
``uint64`` words (the buffer count, then each buffer's size), padded to
``_ALIGN`` bytes, then the buffers, each padded to ``_ALIGN``.  A load
checks the sidecar's size against its header, maps it copy-on-write
(``mmap.ACCESS_COPY``) and hands the unpickler slices of the mapping, so
no array is copied and a page is read only when it is touched: an
apply-only rehydrate never reads the matrix.  A loaded context's arrays
keep the mapping, and its descriptor, alive until they are collected.
Invariant: nothing rewrites a checkpoint file in place.  A save writes a
new directory and swaps it in by renames, a delete unlinks, so the pages
a live context maps stay the ones it loaded (a mapped file shrunk in
place would fault the process with ``SIGBUS``).

Since format 3 ``compile.pkl`` and ``infer.pkl`` hold no object per
variable: the catalog and the marginals are columnar in memory
(:mod:`repro.inference.variables`); since format 4 the DC factors are
columns too (:class:`~repro.inference.factor_graph.FactorColumns`), not
one object per factor; since format 5 the dataset is its code columns
and value tables, not one list per row, and the noisy cells are masks,
not one ``Cell`` per cell, so verification re-hashes columns; since
format 6 a compiled model's external-dictionary matches
(:class:`~repro.external.matcher.MatchedRelation`) are fact columns, not
a per-cell dict; since format 7 the pickled config has no
``cooccur_tying`` field, so a format-6 session saved with value tying
cannot load and silently repair with pair tying; since format 8 large
arrays live in the ``.bin`` sidecars (above); since format 9 the pickled
config holds the repair's settings only, none of the serving process's
(worker count, session capacity, checkpoint directory, queue depth, job
timeout).  Stage files are written only for artifacts present on the
context, so a session checkpointed mid-pipeline rehydrates mid-pipeline
and the staged plan resumes from exactly where it stopped.  The digests
(``weights_basis``, ``marginals_basis`` on the context) let a rehydrated
session with unchanged config and feedback skip learn and infer and run
apply alone.
Writes go to a temporary sibling directory; the previous checkpoint is
renamed aside, the new one renamed in, and only then is the old one
deleted, so a crash at any point leaves a complete checkpoint — between
the two renames under its aside name, where :meth:`load` finds it.

Rehydration is verified: the loaded context's content fingerprints
must match the ones stamped at save time, and a loaded
:class:`~repro.core.compiler.CompiledModel` must reproduce its saved
:meth:`~repro.core.compiler.CompiledModel.content_fingerprint` — a
checkpoint written for one problem cannot silently resurrect another.
"""

from __future__ import annotations

import json
import mmap
import os
import pickle
import shutil
import struct
from pathlib import Path

from repro.core.stages import RepairContext
from repro.obs import get_logger

log = get_logger("serve.checkpoint")

#: Bump when the on-disk layout changes; mismatched checkpoints are
#: rejected (the session simply pays a cold run).
FORMAT_VERSION = 9

#: Smallest pickle buffer written out of band into a stage's ``.bin``
#: sidecar; a smaller one stays inside the pickle.
_OUT_OF_BAND_BYTES = 64 * 1024

#: Alignment of the header end and of every buffer in a sidecar.
_ALIGN = 64

#: Stage name → the context artifacts serialized in that stage's file.
STAGE_ARTIFACTS = (
    ("detect", ("detection",)),
    ("compile", ("model",)),
    ("learn", ("weights", "losses", "weights_basis")),
    ("infer", ("marginals", "marginals_basis")),
)

#: Context input fields serialized together in ``inputs.pkl``.
INPUT_FIELDS = (
    "dataset",
    "constraints",
    "config",
    "dictionaries",
    "matching_dependencies",
    "extra_detectors",
    "feedback",
)


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, read, or verified."""


class CheckpointStore:
    """Reads and writes session checkpoints under one root directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def path(self, sid: str) -> Path:
        return self.root / sid

    def has(self, sid: str) -> bool:
        return (self.path(sid) / "meta.json").is_file()

    def session_ids(self) -> list[str]:
        """Ids of every checkpoint present on disk, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if not entry.name.startswith(".") and (entry / "meta.json").is_file()
        )

    # ------------------------------------------------------------------
    def save(self, sid: str, ctx: RepairContext) -> Path:
        """Serialize the context's inputs and per-stage artifacts.

        Atomic at directory granularity: readers either see the old
        checkpoint or the complete new one, never a half-written mix.
        """
        final = self.path(sid)
        for stale in self.root.glob(f".{sid}.tmp-*"):  # of interrupted saves
            shutil.rmtree(stale, ignore_errors=True)
        tmp = self.root / f".{sid}.tmp-{os.getpid()}"
        tmp.mkdir(parents=True)
        try:
            stages: list[str] = []
            inputs = {name: getattr(ctx, name) for name in INPUT_FIELDS}
            self._dump(tmp / "inputs.pkl", inputs)
            for stage, artifacts in STAGE_ARTIFACTS:
                payload = {name: getattr(ctx, name) for name in artifacts}
                if payload[artifacts[0]] is None:
                    continue
                self._dump(tmp / f"{stage}.pkl", payload)
                stages.append(stage)
            meta = {
                "version": FORMAT_VERSION,
                "sid": sid,
                "fingerprints": ctx.fingerprints(),
                "model": (
                    ctx.model.content_fingerprint() if ctx.model is not None else None
                ),
                "stages": stages,
            }
            (tmp / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
            if final.exists():
                final.rename(self.root / f".{sid}.old-{os.getpid()}")
            tmp.rename(final)
        except Exception:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        for aside in self.root.glob(f".{sid}.old-*"):
            shutil.rmtree(aside, ignore_errors=True)
        return final

    def load(self, sid: str) -> RepairContext | None:
        """Rebuild a context from its checkpoint (``None`` if absent).

        The engine and tracer come back ``None`` and are rebuilt lazily
        on first use; everything else — including accumulated feedback —
        is restored exactly as saved.
        """
        directory = self.path(sid)
        if not directory.exists():
            # A save killed between its two renames left the previous
            # checkpoint, complete, under its aside name.
            for aside in self.root.glob(f".{sid}.old-*"):
                aside.rename(directory)
                break
        meta_path = directory / "meta.json"
        if not meta_path.is_file():
            return None
        try:
            meta = json.loads(meta_path.read_text())
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"unreadable checkpoint meta {meta_path}: {exc}")
        if meta.get("version") != FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint {sid} has format version {meta.get('version')!r}, "
                f"expected {FORMAT_VERSION}"
            )
        inputs = self._load(directory / "inputs.pkl")
        try:
            ctx = RepairContext(**inputs)
            for stage, artifacts in STAGE_ARTIFACTS:
                stage_path = directory / f"{stage}.pkl"
                if not stage_path.is_file():
                    continue
                payload = self._load(stage_path)
                for name in artifacts:
                    if name in payload:
                        setattr(ctx, name, payload[name])
            self._verify(sid, meta, ctx)
        except CheckpointError:
            raise
        except Exception as exc:
            # Damaged bytes can unpickle into damaged objects (a renamed
            # field, an instance missing an attribute) that only fail
            # once the context is built or fingerprinted.
            raise CheckpointError(
                f"checkpoint {sid} does not rebuild a context: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        return ctx

    def delete(self, sid: str) -> bool:
        """Remove the checkpoint from disk (False if none existed)."""
        directory = self.path(sid)
        if not directory.exists():
            return False
        shutil.rmtree(directory)
        return True

    # ------------------------------------------------------------------
    @staticmethod
    def _dump(path: Path, payload: dict) -> None:
        """Pickle ``payload`` to ``path``; its buffers of at least
        ``_OUT_OF_BAND_BYTES`` go to the ``.bin`` sidecar, written only
        when there is one."""
        buffers: list[memoryview] = []

        def out_of_band(buffer: pickle.PickleBuffer) -> bool:
            raw = buffer.raw()
            if raw.nbytes < _OUT_OF_BAND_BYTES:
                return True  # in band
            buffers.append(raw)
            return False

        try:
            with path.open("wb") as handle:
                pickle.dump(payload, handle, protocol=5, buffer_callback=out_of_band)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise CheckpointError(f"cannot serialize {path.name}: {exc}")
        if buffers:
            sizes = [raw.nbytes for raw in buffers]
            with path.with_suffix(".bin").open("wb") as handle:
                header = struct.pack(f"<{len(sizes) + 1}Q", len(sizes), *sizes)
                handle.write(header + bytes(_pad(len(header))))
                for raw in buffers:
                    handle.write(raw)
                    handle.write(bytes(_pad(raw.nbytes)))

    @staticmethod
    def _load(path: Path) -> dict:
        try:
            sidecar = path.with_suffix(".bin")
            buffers = _map_sidecar(sidecar) if sidecar.exists() else None
            with path.open("rb") as handle:
                payload = pickle.load(handle, buffers=buffers)
            if not isinstance(payload, dict):
                raise TypeError(f"expected a dict, found {type(payload).__name__}")
        except Exception as exc:
            # Damaged pickle bytes surface as nearly any exception type
            # (UnicodeDecodeError, OverflowError, MemoryError, ...); all
            # of them mean the same thing to the caller.
            raise CheckpointError(
                f"cannot deserialize {path}: {type(exc).__name__}: {exc}"
            ) from exc
        return payload

    @staticmethod
    def _verify(sid: str, meta: dict, ctx: RepairContext) -> None:
        saved = meta.get("fingerprints", {})
        current = ctx.fingerprints()
        if saved != current:
            raise CheckpointError(
                f"checkpoint {sid} failed fingerprint verification: "
                f"saved {saved}, rehydrated {current}"
            )
        saved_model = meta.get("model")
        if ctx.model is not None and saved_model is not None:
            current_model = ctx.model.content_fingerprint()
            if current_model != saved_model:
                raise CheckpointError(
                    f"checkpoint {sid} model fingerprint mismatch: "
                    f"saved {saved_model}, rehydrated {current_model}"
                )


def _pad(size: int) -> int:
    """Bytes of zeros that bring ``size`` to a multiple of ``_ALIGN``."""
    return -size % _ALIGN


def _map_sidecar(path: Path) -> list[memoryview]:
    """The buffers of a ``.bin`` sidecar, as slices of a copy-on-write map.

    The file's size must be exactly what its header describes, so a
    truncated, extended or empty sidecar (or a damaged header) is refused
    before anything is mapped.
    """
    with path.open("rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        if size < 8:
            raise ValueError(f"sidecar holds {size} bytes, no header")
        (count,) = struct.unpack("<Q", handle.read(8))
        if 8 * (count + 1) > size:
            raise ValueError(f"sidecar header names {count} buffers in {size} bytes")
        sizes = struct.unpack(f"<{count}Q", handle.read(8 * count))
        offset = 8 * (count + 1) + _pad(8 * (count + 1))
        starts = []
        for nbytes in sizes:
            starts.append(offset)
            offset += nbytes + _pad(nbytes)
        if offset != size:
            raise ValueError(f"sidecar holds {size} bytes, its header {offset}")
        mapped = mmap.mmap(handle.fileno(), size, access=mmap.ACCESS_COPY)
    view = memoryview(mapped)
    return [view[start : start + nbytes] for start, nbytes in zip(starts, sizes)]
