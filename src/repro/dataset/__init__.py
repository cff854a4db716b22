"""Relational substrate: schemas, datasets, cells and CSV input/output.

This package models the dirty relation ``D`` from the paper (Section 2.1):
a set of tuples, each a set of cells ``t[a]``, stored as code columns.
The empirical statistics over it (value frequencies and pairwise
co-occurrences, which drive Algorithm 2 and the Section 4.2 features) are
the engine's code tables, :class:`repro.engine.stats.EngineStatistics`.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.dataset.schema import Attribute, Schema
    from repro.dataset.dataset import Cell, Dataset, NULL
    from repro.dataset.csv_io import read_csv, write_csv

__all__ = [
    "Attribute",
    "Schema",
    "Cell",
    "Dataset",
    "NULL",
    "read_csv",
    "write_csv",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.dataset.schema": ("Attribute", "Schema"),
        "repro.dataset.dataset": ("Cell", "Dataset", "NULL"),
        "repro.dataset.csv_io": ("read_csv", "write_csv"),
    },
)
