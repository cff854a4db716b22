"""Grounded factor graphs (Equation 1 of the paper).

A factor graph here is the output of grounding: a variable block, the
unary feature matrix (features × tied learnable weights), and the
*constraint factors* — the groundings of Algorithm 1's DDlog rules, each
an ``h_φ : candidates → {-1, +1}`` table with the constant weight ``w``
the algorithm takes as input ("Setting w = ∞ converts these factors to
hard constraints; HoloClean allows users to relax hard constraints to soft
constraints by assigning w to a constant value").

Evidence variables inside a grounded constraint are folded into the table
at grounding time, so factors only span query variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.ops import take_csr
from repro.inference.features import FeatureMatrix, FeatureSpace
from repro.inference.variables import VariableBlock


@dataclass
class FactorColumns:
    """Constraint factors over query variables, as columns.

    Factor ``i`` spans the variables ``var_ids[var_indptr[i]:var_indptr[i +
    1]]``; ``cells[cell_indptr[i]:cell_indptr[i + 1]]`` is its table in C
    order over their domain sizes (its shape, so none is stored): ``-1``
    where the candidate combination violates the constraint given the
    folded context, ``+1`` elsewhere.  It adds ``weights[i] ·
    table[assignment]`` to the log-density and grounds ``names[codes[i]]``.
    """

    var_indptr: np.ndarray
    var_ids: np.ndarray
    cell_indptr: np.ndarray
    cells: np.ndarray
    weights: np.ndarray
    codes: np.ndarray
    names: list[str]

    def __len__(self) -> int:
        return len(self.weights)

    @classmethod
    def rows(
        cls, var_ids: np.ndarray, tables: np.ndarray, weight: float, name: str
    ) -> FactorColumns:
        """Factors of one constraint and arity: factor ``k`` spans row ``k``
        of the ``(count, arity)`` ``var_ids`` and holds ``tables[k]``."""
        count, arity = var_ids.shape
        steps = np.arange(count + 1, dtype=np.int64)
        return cls(
            steps * arity,
            var_ids.astype(np.int64).ravel(),
            steps * int(np.prod(tables.shape[1:])),
            tables.astype(np.int8).ravel(),
            np.full(count, weight, dtype=np.float64),
            np.zeros(count, dtype=np.int32),
            [name],
        )

    @classmethod
    def concat(cls, parts: list[FactorColumns]) -> FactorColumns:
        """The factors of ``parts``, in order, over one names list."""
        names = list(dict.fromkeys(name for part in parts for name in part.names))

        def joined(arrays: list[np.ndarray], dtype) -> np.ndarray:
            return np.concatenate([np.empty(0, dtype)] + arrays)

        def indptr(column: str) -> np.ndarray:
            sizes = [np.diff(getattr(part, column)) for part in parts]
            return joined([np.zeros(1, np.int64)] + sizes, np.int64).cumsum()

        codes = [
            np.array([names.index(name) for name in part.names], np.int32)[part.codes]
            for part in parts
        ]
        return cls(
            indptr("var_indptr"),
            joined([part.var_ids for part in parts], np.int64),
            indptr("cell_indptr"),
            joined([part.cells for part in parts], np.int8),
            joined([part.weights for part in parts], np.float64),
            joined(codes, np.int32),
            names,
        )

    def take(self, order: np.ndarray) -> FactorColumns:
        """The factors ``order`` lists, in that order."""
        return FactorColumns(
            *take_csr(self.var_indptr, self.var_ids, order),
            *take_csr(self.cell_indptr, self.cells, order),
            self.weights[order],
            self.codes[order],
            self.names,
        )


@dataclass
class FactorGraph:
    """Variables + unary features + constraint factors + weight space.

    Factors arrive in batches, validated at append, and are joined into
    one :class:`FactorColumns` by the first read of :attr:`factors` after.
    """

    variables: VariableBlock
    matrix: FeatureMatrix
    space: FeatureSpace
    _parts: list[FactorColumns] = field(default_factory=list, init=False, repr=False)

    @property
    def factors(self) -> FactorColumns:
        """Every constraint factor, in grounding order."""
        if len(self._parts) != 1:
            self._parts = [FactorColumns.concat(self._parts)]
        return self._parts[0]

    def _domain_sizes(self, var_ids: np.ndarray) -> np.ndarray:
        count = len(self.variables)
        if len(var_ids) and (var_ids.min() < 0 or var_ids.max() >= count):
            raise ValueError(f"a factor variable id lies outside [0, {count})")
        return np.diff(self.variables.domain_indptr)[var_ids]

    def add_factors(self, factors: FactorColumns) -> int:
        """Append a batch of factors, in grounding order; returns its size.

        Every factor must span variables of this graph, each once, and hold
        one table cell per combination of their candidates.
        """
        sizes = self._domain_sizes(factors.var_ids)
        owner = np.repeat(np.arange(len(factors)), np.diff(factors.var_indptr))
        members = np.sort(owner * len(self.variables) + factors.var_ids)
        if np.any(members[1:] == members[:-1]):
            raise ValueError("a factor may reference each variable once")
        cells = np.ones(len(factors), dtype=np.int64)
        np.multiply.at(cells, owner, sizes)
        if np.any(np.diff(factors.cell_indptr) != cells):
            raise ValueError("a factor table's shape disagrees with its variables")
        self._parts.append(factors)
        return len(factors)

    def add_factor(self, var_ids, table, weight: float, name: str = "") -> None:
        """Append one factor: ``table[i, j, …]`` is its value when its
        variables take their candidates ``i, j, …``."""
        ids, table = np.array(var_ids, dtype=np.int64), np.asarray(table)
        shape = tuple(self._domain_sizes(ids).tolist())
        if table.shape != shape:
            raise ValueError(
                f"a factor table of {table.ndim} dimensions, shape {table.shape}, "
                f"over variables of domain sizes {shape}"
            )
        self.add_factors(FactorColumns.rows(ids[None], table[None], weight, name))

    def factor(self, i: int) -> tuple[tuple[int, ...], np.ndarray, float, str]:
        """Factor ``i`` as ``(var_ids, table, weight, constraint name)``,
        built on demand: a reader for tests, stored nowhere."""
        f = self.factors
        ids = f.var_ids[f.var_indptr[i] : f.var_indptr[i + 1]]
        table = f.cells[f.cell_indptr[i] : f.cell_indptr[i + 1]]
        table = table.reshape(np.diff(self.variables.domain_indptr)[ids])
        return tuple(ids.tolist()), table, float(f.weights[i]), f.names[f.codes[i]]

    # ------------------------------------------------------------------
    # Grounding-size accounting (used by the scalability experiments)
    # ------------------------------------------------------------------
    def size_report(self) -> dict[str, int]:
        """Counts the paper quotes when discussing grounding blow-up."""
        return {
            "variables": len(self.variables),
            "query_variables": int(np.count_nonzero(~self.variables.is_evidence)),
            "feature_entries": self.matrix.num_entries,
            "weights": len(self.space),
            "constraint_factors": len(self.factors),
            "factor_table_cells": int(self.factors.cell_indptr[-1]),
        }
