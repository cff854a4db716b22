"""Error injection with exact ground-truth tracking.

Implements the error families observed in the paper's datasets:

* **typos** — character substitutions; the classic Hospital benchmark
  replaces one character with ``'x'``, Food exhibits arbitrary
  transcription typos;
* **domain swaps** — a cell takes another (wrong) value from its
  attribute's active domain (non-systematic Food errors);
* **systematic replacements** — the same wrong value applied across many
  tuples (Physicians' "Scaramento, CA" appearing in 321 entries);
* **nulls** — dropped values.

Every injector returns the set of cells whose value actually changed, so
precision/recall against the clean dataset are exact.
"""

from __future__ import annotations

import string

import numpy as np

from repro.dataset.dataset import Cell, Dataset


class ErrorInjector:
    """Seeded, ground-truth-tracking corruption of a dataset in place."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    # ------------------------------------------------------------------
    # Value-level corruptions
    # ------------------------------------------------------------------
    def typo(self, value: str, style: str = "x") -> str:
        """One character substitution.

        ``style="x"`` uses the Hospital benchmark's ``'x'`` replacement;
        ``style="random"`` substitutes a random letter/digit.
        """
        if not value:
            return value
        pos = int(self.rng.integers(0, len(value)))
        if style == "x":
            replacement = "x"
            if value[pos] == "x":
                replacement = "y"
        else:
            alphabet = string.ascii_lowercase + string.digits
            replacement = alphabet[int(self.rng.integers(0, len(alphabet)))]
            while replacement == value[pos].lower():
                replacement = alphabet[int(self.rng.integers(0, len(alphabet)))]
        return value[:pos] + replacement + value[pos + 1 :]

    # ------------------------------------------------------------------
    # Dataset-level injections
    # ------------------------------------------------------------------
    def inject_typos(
        self, dataset: Dataset, attributes: list[str], rate: float, style: str = "x"
    ) -> set[Cell]:
        """Corrupt a ``rate`` fraction of the given attributes' cells."""
        changed: set[Cell] = set()
        for attr in attributes:
            for tid in dataset.tuple_ids:
                if self.rng.random() >= rate:
                    continue
                value = dataset.value(tid, attr)
                if value is None:
                    continue
                corrupted = self.typo(value, style=style)
                if corrupted != value:
                    dataset.set_value(tid, attr, corrupted)
                    changed.add(Cell(tid, attr))
        return changed

    def inject_domain_swaps(
        self, dataset: Dataset, attributes: list[str], rate: float
    ) -> set[Cell]:
        """Replace cells with a different value from the active domain."""
        changed: set[Cell] = set()
        for attr in attributes:
            domain = dataset.active_domain(attr)
            if len(domain) < 2:
                continue
            for tid in dataset.tuple_ids:
                if self.rng.random() >= rate:
                    continue
                value = dataset.value(tid, attr)
                if value is None:
                    continue
                alternative = domain[int(self.rng.integers(0, len(domain)))]
                if alternative == value:
                    continue
                dataset.set_value(tid, attr, alternative)
                changed.add(Cell(tid, attr))
        return changed

    def inject_systematic(
        self,
        dataset: Dataset,
        attribute: str,
        mapping: dict[str, str],
        fraction: float = 1.0,
    ) -> set[Cell]:
        """Apply a wrong-value ``mapping`` to a fraction of matching cells.

        All corrupted cells share the *same* wrong value — the systematic
        error pattern of Physicians.
        """
        changed: set[Cell] = set()
        for tid in dataset.tuple_ids:
            value = dataset.value(tid, attribute)
            if value in mapping and self.rng.random() < fraction:
                wrong = mapping[value]
                if wrong != value:
                    dataset.set_value(tid, attribute, wrong)
                    changed.add(Cell(tid, attribute))
        return changed

    def inject_nulls(
        self, dataset: Dataset, attributes: list[str], rate: float
    ) -> set[Cell]:
        """Drop a fraction of values to NULL."""
        changed: set[Cell] = set()
        for attr in attributes:
            for tid in dataset.tuple_ids:
                if self.rng.random() >= rate:
                    continue
                if dataset.value(tid, attr) is None:
                    continue
                dataset.set_value(tid, attr, None)
                changed.add(Cell(tid, attr))
        return changed

    def inject_group_conflicts(
        self,
        dataset: Dataset,
        groups: list[list[int]],
        attribute: str,
        group_rate: float,
        clean: Dataset | None = None,
    ) -> set[Cell]:
        """Corrupt two rows of a group with two *different* wrong values.

        Creates the conflicting-evidence pattern (two contradictory wrong
        values inside one entity's records) that defeats single-value
        minimal-repair heuristics but not statistical majority signals.
        """
        changed: set[Cell] = set()
        domain = dataset.active_domain(attribute)
        if len(domain) < 3:
            return changed
        for group in groups:
            if len(group) < 3 or self.rng.random() >= group_rate:
                continue
            members = list(group)
            picked = self.rng.choice(len(members), size=2, replace=False)
            wrongs = []
            for k in picked:
                tid = members[int(k)]
                current = dataset.value(tid, attribute)
                if current is None:
                    continue
                truth = clean.value(tid, attribute) if clean is not None else None
                wrong = current
                while wrong == current or wrong in wrongs or wrong == truth:
                    wrong = domain[int(self.rng.integers(0, len(domain)))]
                wrongs.append(wrong)
                dataset.set_value(tid, attribute, wrong)
                changed.add(Cell(tid, attribute))
        return changed

    def misspell(self, value: str) -> str:
        """A plausible human misspelling: transpose two adjacent letters.

        ``"Sacramento" → "Scaramento"`` — the paper's running example of a
        systematic Physicians error.
        """
        if len(value) < 3:
            return self.typo(value, style="random")
        pos = int(self.rng.integers(1, len(value) - 1))
        swapped = value[:pos] + value[pos + 1] + value[pos] + value[pos + 2 :]
        if swapped == value:  # identical adjacent characters
            return self.typo(value, style="random")
        return swapped
