r"""Repair-as-a-service: the serving subsystem over the staged API.

The staged Detect→Compile→Learn→Infer→Apply plan
(:mod:`repro.core.stages`) was built so that a service could amortize
the expensive grounding work across requests; this package is that
service:

* :mod:`~repro.serve.store` — LRU :class:`SessionStore` of warm
  :class:`~repro.core.stages.RepairContext`\ s, keyed by dataset +
  constraint-set content fingerprints.
* :mod:`~repro.serve.checkpoint` — per-stage :class:`CheckpointStore`
  so evicted or restarted sessions rehydrate from disk without
  re-grounding, marginal-identical to the in-memory run.
* :mod:`~repro.serve.service` — :class:`RepairService`, the
  transport-independent core: request parsing, cold/warm/rehydrated
  execution paths, a bounded worker pool, admission control, and the
  ``serve.*`` metrics.
* :mod:`~repro.serve.server` — :class:`RepairServer`, the
  stdlib-asyncio HTTP JSON front end (``python -m repro serve``).

See ``docs/serving.md`` for the API reference and capacity model.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.serve.checkpoint import CheckpointError, CheckpointStore
    from repro.serve.server import RepairServer
    from repro.serve.service import (
        BadRequest,
        NotFound,
        RepairService,
        Saturated,
        ServiceError,
    )
    from repro.serve.store import Session, SessionKey, SessionStore

__all__ = [
    "BadRequest",
    "CheckpointError",
    "CheckpointStore",
    "NotFound",
    "RepairServer",
    "RepairService",
    "Saturated",
    "ServiceError",
    "Session",
    "SessionKey",
    "SessionStore",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.serve.checkpoint": ("CheckpointError", "CheckpointStore"),
        "repro.serve.server": ("RepairServer",),
        "repro.serve.service": (
            "BadRequest",
            "NotFound",
            "RepairService",
            "Saturated",
            "ServiceError",
        ),
        "repro.serve.store": ("Session", "SessionKey", "SessionStore"),
    },
)
