"""CSV loading and saving for datasets.

The paper's datasets (Hospital, Flights, Food, Physicians) ship as CSV
files; this module reads them into :class:`~repro.dataset.Dataset` objects
with NULL normalisation (empty fields become NULL) and writes repaired
datasets back out.
"""

from __future__ import annotations

import csv
from pathlib import Path

from repro.dataset.dataset import Dataset
from repro.dataset.schema import Attribute, Schema


def read_csv(path: str | Path, name: str | None = None,
             source_attribute: str | None = None) -> Dataset:
    """Load a CSV file with a header row into a :class:`Dataset`.

    Parameters
    ----------
    path:
        File to read.  The first row is the schema.
    name:
        Dataset name; defaults to the file stem.
    source_attribute:
        If given, that column is marked with role ``"source"`` so the
        source-reliability featurizer can use it (the Flights dataset
        records which web source provided each tuple).
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path} is empty; expected a header row") from None
        attrs = [
            Attribute(col, role="source" if col == source_attribute else "data")
            for col in header
        ]
        schema = Schema(attrs)
        rows = list(reader)
    if set(map(len, rows)) - {len(header)}:
        lineno, row = next(
            (k, row) for k, row in enumerate(rows, start=2) if len(row) != len(header)
        )
        raise ValueError(
            f"{path}:{lineno}: row has {len(row)} fields, header has {len(header)}"
        )
    # One bulk encode; the load rule reads an empty field as NULL.
    return Dataset(schema, rows, name=name or path.stem)


def write_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset to CSV; NULL values become empty fields."""
    path = Path(path)
    columns = [dataset.decoded(attribute) for attribute in dataset.schema.names]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset.schema.names)
        writer.writerows(zip(*columns))  # the csv module writes None as ""
