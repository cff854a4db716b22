"""Relational substrate: schemas, datasets, cells, and dataset statistics.

This package models the dirty relation ``D`` from the paper (Section 2.1):
a set of tuples, each a set of cells ``t[a]``, together with the empirical
statistics (value frequencies and pairwise co-occurrences) that drive both
HoloClean's domain pruning (Algorithm 2) and its quantitative-statistics
features (Section 4.2).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.dataset.schema import Attribute, Schema
    from repro.dataset.dataset import Cell, Dataset, NULL
    from repro.dataset.stats import Statistics
    from repro.dataset.csv_io import read_csv, write_csv

__all__ = [
    "Attribute",
    "Schema",
    "Cell",
    "Dataset",
    "NULL",
    "Statistics",
    "read_csv",
    "write_csv",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.dataset.schema": ("Attribute", "Schema"),
        "repro.dataset.dataset": ("Cell", "Dataset", "NULL"),
        "repro.dataset.stats": ("Statistics",),
        "repro.dataset.csv_io": ("read_csv", "write_csv"),
    },
)
