"""Structured logging for the ``repro.*`` namespaces.

Library modules obtain loggers via :func:`get_logger` (all children of
the ``repro`` root logger); entry points (``repro``, ``repro trace``,
``repro serve``) call :func:`configure` once, mapping
``--verbose``/``--quiet`` flags to levels.  The handler resolves
``sys.stderr`` at emit time (not at creation), so output lands wherever
stderr currently points — the behaviour test harnesses that swap
``sys.stderr`` (pytest's capsys) expect from plain
``print(..., file=sys.stderr)`` calls.

Until :func:`configure` runs, the ``repro`` root logger stays
handler-less and silent apart from Python's last-resort WARNING
handler — library users who want our logs opt in with their own
logging configuration, per stdlib convention.
"""

from __future__ import annotations

import argparse
import logging
import sys

_FORMAT = "%(levelname)s %(name)s: %(message)s"
_configured = False


class _DynamicStderrHandler(logging.StreamHandler):
    """A StreamHandler that re-reads ``sys.stderr`` on every emit."""

    def __init__(self):
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, value):  # StreamHandler's ctor assigns; ignore it
        pass


def get_logger(name: str = "") -> logging.Logger:
    """A logger under the ``repro`` namespace (``repro.<name>``)."""
    if not name:
        return logging.getLogger("repro")
    if name.startswith("repro.") or name == "repro":
        return logging.getLogger(name)
    return logging.getLogger(f"repro.{name}")


def configure(verbosity: int = 0) -> logging.Logger:
    """Install the stderr handler and set the level from a verbosity.

    ``verbosity`` < 0 → ERROR (``--quiet``), 0 → INFO (default for the
    CLIs), ≥ 1 → DEBUG (``--verbose``).  Idempotent: repeated calls
    only adjust the level.
    """
    global _configured
    root = logging.getLogger("repro")
    if verbosity < 0:
        root.setLevel(logging.ERROR)
    elif verbosity == 0:
        root.setLevel(logging.INFO)
    else:
        root.setLevel(logging.DEBUG)
    if not _configured:
        handler = _DynamicStderrHandler()
        handler.setFormatter(logging.Formatter(_FORMAT))
        root.addHandler(handler)
        root.propagate = False
        _configured = True
    return root


def add_verbosity_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the standard ``--verbose``/``--quiet`` pair to a parser."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="debug-level logging (repeatable)",
    )
    group.add_argument("-q", "--quiet", action="store_true", help="errors only")


def verbosity_from(args: argparse.Namespace) -> int:
    """The verbosity implied by parsed :func:`add_verbosity_flags` args."""
    if getattr(args, "quiet", False):
        return -1
    return int(getattr(args, "verbose", 0))
