"""Stable content fingerprints for datasets, constraint sets, and configs.

The serving layer (:mod:`repro.serve`) identifies a repair session by
*what is being repaired* — the dataset contents and the constraint set —
so that two requests carrying the same problem land on the same warm
:class:`~repro.core.stages.RepairContext` regardless of who sent them.
The same hashes name checkpoint directories on disk and stamp every
:class:`~repro.obs.report.RunReport`, so one token compares a report, a
session, and a checkpoint.

All fingerprints are the first 12 hex digits of a SHA-256 digest:
short enough to read in a log line, long enough that collisions are
not a practical concern at session-store scale.

Like the rest of :mod:`repro.obs`, everything here is duck-typed —
this module imports nothing from :mod:`repro.core` or
:mod:`repro.dataset` (no cycles: every layer may depend on ``obs``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

#: Hex digits kept from each SHA-256 digest.
FINGERPRINT_HEX = 12


def config_encoding(config) -> str:
    """The canonical text of a configuration: its fields as sorted JSON.

    Accepts a dataclass (e.g. ``HoloCleanConfig``) or a plain mapping.
    Two configs encode identically exactly when their fields are equal.
    Fields are read shallowly, without the deep copy of
    ``dataclasses.asdict`` (learn and infer encode the config on every
    plan run): a config's fields are plain values and tuples.
    """
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        payload = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    else:
        payload = dict(config or {})
    return json.dumps(payload, sort_keys=True, default=str)


def config_fingerprint(config) -> str:
    """A stable short hash of a configuration.

    The first 12 hex digits of the SHA-256 of :func:`config_encoding`,
    so two runs compare configs by equality of one token.
    """
    encoded = config_encoding(config)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:FINGERPRINT_HEX]


def dataset_fingerprint(dataset) -> str:
    """A content hash of a dataset: schema plus every cell value.

    Duck-typed over :class:`~repro.dataset.dataset.Dataset` (needs
    ``schema`` — attributes with ``name`` and ``role`` — ``num_tuples`` and
    ``encoded(attribute)``).  The schema counts with its roles: the same
    rows with another source column are another repair problem.  Each
    attribute contributes its canonical code column (little-endian
    ``int32`` bytes) and value table, so equal content fingerprints equally
    whatever edits led to it, with no per-row Python.  The dataset's
    *name* is deliberately excluded — two uploads of the same rows under
    different names are the same repair problem and should share a warm
    session.  ``None`` cells hash distinctly from the string ``"None"``.
    """
    digest = hashlib.sha256()
    schema = [(attribute.name, attribute.role) for attribute in dataset.schema]
    digest.update(json.dumps([schema, dataset.num_tuples]).encode("utf-8"))
    for name, _ in schema:
        codes, values = dataset.encoded(name)
        digest.update(np.asarray(codes, dtype="<i4").tobytes())
        digest.update(json.dumps(values).encode("utf-8"))
    return digest.hexdigest()[:FINGERPRINT_HEX]


def constraints_fingerprint(constraints) -> str:
    """A content hash of an ordered constraint set.

    Each constraint contributes its textual form (``str(dc)``), one per
    line, plus the threshold of each similarity predicate, so the hash is
    independent of object identity and survives a parse → format → parse
    round-trip.  Order matters: constraint order is part of the grounding
    order and therefore of the problem.
    """
    digest = hashlib.sha256()
    for dc in constraints:
        digest.update(str(dc).encode("utf-8"))
        # The ≈ threshold is not in the text but changes what a
        # similarity predicate flags.
        for predicate in dc.predicates:
            if predicate.op.name in ("SIM", "NSIM"):
                digest.update(f" ~{predicate.sim_threshold!r}".encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()[:FINGERPRINT_HEX]


def combine_fingerprints(*parts: str) -> str:
    """Fold component fingerprints into one stable identifier.

    Used for session ids (dataset + constraint-set hashes) and full
    context fingerprints (dataset + constraints + config).
    """
    digest = hashlib.sha256(":".join(parts).encode("utf-8"))
    return digest.hexdigest()[:FINGERPRINT_HEX]
