"""Conflict hypergraphs over detected violations.

Following Kolahi & Lakshmanan [26] and Section 5.1.2 of the paper: nodes
are cells that participate in detected violations; each hyperedge links the
cells involved in one violation and is annotated with the constraint that
produced it.  Algorithm 3 derives, per constraint, the connected components
of tuples — the groups inside which denial-constraint factors are grounded.

Storage is columnar: one :class:`ViolationBlock` per constraint and
detector pass, in emission order, holding the violating tuple ids as an
``(n, arity)`` array plus the attributes the constraint names per tuple
position.  Counts, cells, tuples and components are answered from the
arrays; :class:`Violation` objects exist only for callers that ask for
them (:attr:`ConflictHypergraph.violations`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.constraints.denial import DenialConstraint
from repro.dataset.dataset import Cell
from repro.engine.ops import sorted_unique
from repro.obs.trace import deep_span


@dataclass(frozen=True)
class Violation:
    """One hyperedge: a constraint together with the tuples/cells it links."""

    constraint_name: str
    tids: tuple[int, ...]
    cells: tuple[Cell, ...]

    def __post_init__(self) -> None:
        if not self.tids:
            raise ValueError("violation must involve at least one tuple")


class ViolationBlock(NamedTuple):
    """Violations of one constraint: row ``i`` links, for every tuple
    position ``p``, the cells ``(tids[i, p], a)`` for ``a`` in
    ``attributes[p]``."""

    constraint_name: str
    tids: np.ndarray
    attributes: tuple[tuple[str, ...], ...]


class _UnionFind:
    """Path-compressed union-find over arbitrary hashable items."""

    def __init__(self):
        self._parent: dict = {}

    def find(self, x):
        parent = self._parent.setdefault(x, x)
        if parent != x:
            root = self.find(parent)
            self._parent[x] = root
            return root
        return x

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra

    def components(self) -> list[set]:
        groups: dict = defaultdict(set)
        for x in self._parent:
            groups[self.find(x)].add(x)
        return list(groups.values())


class ConflictHypergraph:
    """All violations detected in a dataset, with per-constraint views."""

    def __init__(self, constraints: list[DenialConstraint] | None = None):
        self.blocks: list[ViolationBlock] = []
        self._constraints = {c.name: c for c in (constraints or [])}

    def add_block(self, constraint_name: str, tids, attributes) -> None:
        """Append violations of one constraint: ``tids`` is ``(n, arity)``
        tuple ids (array or row list), ``attributes`` the attribute names
        per tuple position.  An empty ``tids`` adds nothing."""
        attributes = tuple(tuple(attrs) for attrs in attributes)
        if not attributes:
            raise ValueError("violation must involve at least one tuple")
        tids = np.asarray(tids, dtype=np.int64).reshape(-1, len(attributes))
        if len(tids):
            self.blocks.append(ViolationBlock(constraint_name, tids, attributes))

    def _blocks_of(self, name: str | None) -> list[ViolationBlock]:
        if name is None:
            return self.blocks
        return [b for b in self.blocks if b.constraint_name == name]

    def _materialize(self, blocks: list[ViolationBlock]) -> list[Violation]:
        make_cell = Cell._make  # skips the per-field constructor frame
        out: list[Violation] = []
        with deep_span(
            "detect.materialize_violations",
            violations=sum(len(b.tids) for b in blocks),
        ):
            for name, tids, attributes in blocks:
                for row in tids.tolist():
                    cells = [
                        make_cell((tid, a))
                        for tid, attrs in zip(row, attributes)
                        for a in attrs
                    ]
                    out.append(Violation(name, tuple(row), tuple(cells)))
        return out

    @property
    def violations(self) -> list[Violation]:
        """Every violation as an object, in emission order.  Built on each
        access (one ``Violation`` + its cells per row) — array consumers
        read :attr:`blocks` instead."""
        return self._materialize(self.blocks)

    def by_constraint(self, name: str) -> list[Violation]:
        return self._materialize(self._blocks_of(name))

    @property
    def constraint_names(self) -> list[str]:
        return list(dict.fromkeys(b.constraint_name for b in self.blocks))

    def constraint(self, name: str) -> DenialConstraint | None:
        return self._constraints.get(name)

    def cells(self) -> set[Cell]:
        """All cells appearing in any violation (the noisy-cell candidates)."""
        if not self.blocks:
            return set()
        size = max(int(block.tids.max()) for block in self.blocks) + 1
        flagged: dict[str, np.ndarray] = defaultdict(lambda: np.zeros(size, bool))
        for _, tids, attributes in self.blocks:
            for position, attrs in enumerate(attributes):
                for attribute in attrs:
                    flagged[attribute][tids[:, position]] = True
        make_cell = Cell._make  # skips the per-field constructor frame
        return {
            make_cell((tid, attribute))
            for attribute, mask in flagged.items()
            for tid in np.flatnonzero(mask).tolist()
        }

    def tuples(self) -> set[int]:
        out: set[int] = set()
        for block in self.blocks:
            out.update(sorted_unique(block.tids.ravel()).tolist())
        return out

    def violation_count(self, constraint_name: str | None = None) -> int:
        return sum(len(b.tids) for b in self._blocks_of(constraint_name))

    # ------------------------------------------------------------------
    # Algorithm 3: per-constraint connected components of tuples
    # ------------------------------------------------------------------
    def tuple_components(self, constraint_name: str) -> list[set[int]]:
        """Connected components of the subgraph H_σ for one constraint.

        Tuples are connected when they co-occur in a violation of σ; each
        component is a group over which DC factors are grounded.
        Components come in order of their first tuple's first appearance
        in the violation rows.
        """
        rows = [b.tids for b in self._blocks_of(constraint_name)]
        if not rows:
            return []
        uf = _UnionFind()
        flat = np.concatenate([tids.ravel() for tids in rows])
        first_seen = np.sort(np.unique(flat, return_index=True)[1])
        for tid in flat[first_seen].tolist():
            uf.find(tid)  # registers singletons too, in appearance order
        stride = int(flat.max(initial=-1)) + 1
        for tids in rows:
            for position in range(1, tids.shape[1]):
                # The distinct (first, other) edges in lexicographic order.
                edges = sorted_unique(tids[:, 0] * stride + tids[:, position])
                firsts, others = divmod(edges, stride)
                for first, other in zip(firsts.tolist(), others.tolist()):
                    uf.union(first, other)
        return uf.components()

    def all_components(self) -> dict[str, list[set[int]]]:
        """Algorithm 3's output: constraint → list of tuple groups."""
        return {name: self.tuple_components(name) for name in self.constraint_names}

    def merge(self, other: "ConflictHypergraph") -> None:
        """Absorb another hypergraph (used by the ensemble detector)."""
        for name, dc in other._constraints.items():
            self._constraints.setdefault(name, dc)
        self.blocks.extend(other.blocks)

    def __len__(self) -> int:
        return self.violation_count()
