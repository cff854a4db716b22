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
        inputs.pkl    dataset, constraints, config, feedback, dictionaries
        detect.pkl    DetectionResult: noisy-cell set + the conflict
                      hypergraph's per-constraint tuple-id arrays
        compile.pkl   CompiledModel
        learn.pkl     learned weights + training losses + the digest
                      of the config and feedback they were learned from
        infer.pkl     marginals + the digest of the config and weights
                      they were inferred from

Since format 3 ``compile.pkl`` and ``infer.pkl`` hold no object per
variable: the catalog and the marginals are columnar in memory
(:mod:`repro.inference.variables`); since format 4 the DC factors are
columns too (:class:`~repro.inference.factor_graph.FactorColumns`), not
one object per factor.  Stage files are written only for
artifacts present on the context, so a session checkpointed mid-pipeline
rehydrates mid-pipeline and the staged plan resumes from exactly where it
stopped.  The digests (``weights_basis``, ``marginals_basis`` on the
context) let a rehydrated session with unchanged config and feedback skip
learn and infer and run apply alone.  A format-4 ``learn.pkl`` /
``infer.pkl`` written without them loads with the digests unset, so the
first plan run re-learns and re-infers (to the same weights) and the next
save writes the digests.
Writes go to a temporary sibling directory; the previous
checkpoint is renamed aside, the new one renamed in, and only then is the
old one deleted, so a crash at any point leaves a complete checkpoint —
between the two renames under its aside name, where :meth:`load` finds it.

Rehydration is verified: the loaded context's content fingerprints
must match the ones stamped at save time, and a loaded
:class:`~repro.core.compiler.CompiledModel` must reproduce its saved
:meth:`~repro.core.compiler.CompiledModel.content_fingerprint` — a
checkpoint written for one problem cannot silently resurrect another.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
from pathlib import Path

from repro.core.stages import RepairContext
from repro.obs import get_logger

log = get_logger("serve.checkpoint")

#: Bump when the on-disk layout changes; mismatched checkpoints are
#: rejected (the session simply pays a cold run).
FORMAT_VERSION = 4

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
        try:
            with path.open("wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise CheckpointError(f"cannot serialize {path.name}: {exc}")

    @staticmethod
    def _load(path: Path) -> dict:
        try:
            with path.open("rb") as handle:
                payload = pickle.load(handle)
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
