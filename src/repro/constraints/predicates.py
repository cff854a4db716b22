"""Predicates of denial constraints.

A predicate ``P_k`` has the form ``(t_i[A_n] o t_j[A_m])`` or
``(t_i[A_n] o α)`` where ``o ∈ B = {=, ≠, <, >, ≤, ≥, ≈}`` and ``α`` is a
constant (Section 3.1).  Ordering comparisons try numeric interpretation
first and fall back to lexicographic order, matching how the reference
implementation treats mixed string/number columns.  Any predicate touching
a NULL evaluates to False (it cannot contribute to a violation).
"""

from __future__ import annotations

import enum
import functools
import operator
from dataclasses import dataclass

import numpy as np

from repro.constraints.similarity import similar


class Operator(enum.Enum):
    """Comparison operators of the denial-constraint language."""

    EQ = "="
    NEQ = "!="
    LT = "<"
    GT = ">"
    LTE = "<="
    GTE = ">="
    SIM = "~"    # the paper's ≈
    NSIM = "!~"  # negated similarity: needed to express metric FDs [28]

    @property
    def negated(self) -> "Operator":
        """The complementary operator (used to reason about repairs)."""
        return _NEGATIONS[self]


_NEGATIONS = {
    Operator.EQ: Operator.NEQ,
    Operator.NEQ: Operator.EQ,
    Operator.LT: Operator.GTE,
    Operator.GTE: Operator.LT,
    Operator.GT: Operator.LTE,
    Operator.LTE: Operator.GT,
    Operator.SIM: Operator.NSIM,
    Operator.NSIM: Operator.SIM,
}

#: Element-wise comparison per ordering operator (vectorized path).
#: ``operator.*`` dispatches through the array protocol, which — unlike
#: the ``np.less`` ufunc family on older NumPy — also covers string
#: dtypes everywhere.
_ORDER_UFUNCS = {
    Operator.LT: operator.lt,
    Operator.GT: operator.gt,
    Operator.LTE: operator.le,
    Operator.GTE: operator.ge,
}


@dataclass(frozen=True)
class TupleRef:
    """Operand referring to attribute ``attribute`` of tuple ``t1`` or ``t2``."""

    tuple_index: int  # 1 or 2
    attribute: str

    def __post_init__(self) -> None:
        if self.tuple_index not in (1, 2):
            raise ValueError("tuple_index must be 1 or 2")

    def __str__(self) -> str:
        return f"t{self.tuple_index}.{self.attribute}"


@dataclass(frozen=True)
class Const:
    """Constant operand ``α``."""

    value: str

    def __str__(self) -> str:
        return f'"{self.value}"'


Operand = TupleRef | Const


def _coerce(a: str, b: str) -> tuple:
    """Try to compare numerically; otherwise lexicographically."""
    try:
        return float(a), float(b)
    except (TypeError, ValueError):
        return a, b


@dataclass(frozen=True)
class OrderKeys:
    """Vectorized comparison keys for one codebook's values.

    Ordering predicates coerce pairwise — numeric when *both* operands
    parse as floats, lexicographic otherwise — so the mixed comparator is
    not a total order and cannot be captured by sort ranks alone (codes
    cannot simply be re-numbered into an ordered codebook).  Instead each
    value carries its parsed float (NaN-padded), a numeric flag, and its
    string form; :meth:`Predicate.compare_coded` selects the numeric or
    lexicographic comparison per element, reproducing :func:`_coerce`
    exactly (including ``inf``/``nan`` parses and IEEE NaN semantics).

    Arrays are padded to length ≥ 1 so gathers with clamped NULL codes
    never index an empty array.
    """

    is_number: np.ndarray
    numbers: np.ndarray
    strings: np.ndarray

    @classmethod
    def from_values(cls, values: list[str]) -> "OrderKeys":
        n = max(len(values), 1)
        is_number = np.zeros(n, dtype=bool)
        numbers = np.full(n, np.nan, dtype=np.float64)
        for code, value in enumerate(values):
            try:
                numbers[code] = float(value)
            except (TypeError, ValueError):
                continue
            is_number[code] = True
        strings = np.array(list(values) + [""] * (n - len(values)))
        return cls(is_number=is_number, numbers=numbers, strings=strings)


@dataclass(frozen=True)
class Predicate:
    """A single comparison inside a denial constraint."""

    left: TupleRef
    op: Operator
    right: Operand
    sim_threshold: float = 0.8

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_binary(self) -> bool:
        """True when the predicate compares cells of two *different* tuples."""
        return (isinstance(self.right, TupleRef)
                and self.right.tuple_index != self.left.tuple_index)

    @property
    def attributes(self) -> set[str]:
        """All attributes mentioned by the predicate."""
        attrs = {self.left.attribute}
        if isinstance(self.right, TupleRef):
            attrs.add(self.right.attribute)
        return attrs

    def attributes_of(self, tuple_index: int) -> set[str]:
        """Attributes this predicate reads from the given tuple position."""
        attrs: set[str] = set()
        if self.left.tuple_index == tuple_index:
            attrs.add(self.left.attribute)
        if isinstance(self.right, TupleRef) and self.right.tuple_index == tuple_index:
            attrs.add(self.right.attribute)
        return attrs

    @property
    def is_equijoin(self) -> bool:
        """True for ``t1.A = t2.B`` — usable as a hash-join key."""
        return self.op is Operator.EQ and self.is_binary

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, values1: dict[str, str | None],
                 values2: dict[str, str | None] | None = None) -> bool:
        """Evaluate against tuple-1 (and tuple-2) attribute→value mappings.

        Returns False whenever an operand is NULL: a missing value can
        never witness a constraint violation.
        """
        lhs = self._resolve(self.left, values1, values2)
        rhs = (self.right.value if isinstance(self.right, Const)
               else self._resolve(self.right, values1, values2))
        if lhs is None or rhs is None:
            return False
        return self.compare(lhs, rhs)

    def compare(self, lhs: str, rhs: str) -> bool:
        """Apply the operator to two concrete (non-NULL) values."""
        op = self.op
        if op is Operator.EQ:
            return lhs == rhs
        if op is Operator.NEQ:
            return lhs != rhs
        if op is Operator.SIM:
            return similar(lhs, rhs, self.sim_threshold)
        if op is Operator.NSIM:
            return not similar(lhs, rhs, self.sim_threshold)
        a, b = _coerce(lhs, rhs)
        if op is Operator.LT:
            return a < b
        if op is Operator.GT:
            return a > b
        if op is Operator.LTE:
            return a <= b
        return a >= b  # GTE

    # ------------------------------------------------------------------
    # Code-space evaluation (vectorized grounding)
    # ------------------------------------------------------------------
    def evaluate_coded(self, left_codes: np.ndarray,
                       right_codes: np.ndarray | None,
                       book: "CodedValues") -> np.ndarray:
        """Vectorized :meth:`evaluate` over dictionary codes.

        The one code-space evaluator every grounding layer calls.
        ``left_codes`` / ``right_codes`` code the two references' values
        in ``book``'s codebook (``right_codes`` is ``None`` against a
        constant); operands broadcast like any NumPy arrays.  A constant
        is compared once per distinct code among the elements; every other
        predicate goes through :meth:`compare_coded` with the order keys or
        values its operator reads.
        """
        if isinstance(self.right, Const):
            alpha, values = self.right.value, book.values
            return _per_distinct_pair(
                left_codes, np.int64(0),
                lambda code, _: self.compare(values[code], alpha))
        if self.op in _ORDER_UFUNCS:
            return self.compare_coded(left_codes, right_codes,
                                      keys=book.order_keys)
        return self.compare_coded(left_codes, right_codes, values=book.values)

    def compare_coded(self, left_codes: np.ndarray, right_codes: np.ndarray,
                      keys: OrderKeys | None = None,
                      values: list[str] | None = None) -> np.ndarray:
        """Vectorized :meth:`compare` over dictionary codes.

        Both code arrays must be drawn from one shared codebook (equal
        strings ⇒ equal codes; see :class:`CodeSpace
        <repro.engine.space.CodeSpace>`); ordering
        operators additionally need that codebook's :class:`OrderKeys`,
        similarity its ``values`` (code ``i`` ↦ ``values[i]``), compared
        with :func:`similar` once per distinct non-NULL code pair.  NULL
        codes (``< 0``) never satisfy the predicate, mirroring
        :meth:`evaluate`.  Operands broadcast like any NumPy arrays.
        """
        op = self.op
        if op in (Operator.SIM, Operator.NSIM):
            if values is None:
                raise ValueError(f"similarity needs the codebook's values: {self}")
            return _per_distinct_pair(
                left_codes, right_codes,
                lambda a, b: self.compare(values[a], values[b]))
        valid = (left_codes >= 0) & (right_codes >= 0)
        if op is Operator.EQ:
            return (left_codes == right_codes) & valid
        if op is Operator.NEQ:
            return (left_codes != right_codes) & valid
        if keys is None:
            raise ValueError(f"ordering needs the codebook's OrderKeys: {self}")
        compare = _ORDER_UFUNCS[op]
        lhs = np.maximum(left_codes, 0)
        rhs = np.maximum(right_codes, 0)
        both_numeric = keys.is_number[lhs] & keys.is_number[rhs]
        # Evaluate only the branch(es) actually selected: an all-numeric
        # (or all-string) grid skips the dead comparison entirely instead
        # of materialising it for np.where to discard.
        if both_numeric.all():
            out = compare(keys.numbers[lhs], keys.numbers[rhs])
        elif not both_numeric.any():
            out = compare(keys.strings[lhs], keys.strings[rhs])
        else:
            out = np.where(both_numeric,
                           compare(keys.numbers[lhs], keys.numbers[rhs]),
                           compare(keys.strings[lhs], keys.strings[rhs]))
        return out & valid

    @staticmethod
    def _resolve(ref: TupleRef, values1: dict[str, str | None],
                 values2: dict[str, str | None] | None) -> str | None:
        if ref.tuple_index == 1:
            return values1.get(ref.attribute)
        if values2 is None:
            raise ValueError(f"predicate references t2 but no second tuple given: {ref}")
        return values2.get(ref.attribute)

    def __str__(self) -> str:
        return f"{self.left} {self.op.value} {self.right}"


class CodedValues:
    """One codebook as :meth:`Predicate.evaluate_coded` reads it: the
    decoded ``values`` (code ``i`` ↦ ``values[i]``) and, built on first
    use, their :class:`OrderKeys`."""

    def __init__(self, values: list[str]):
        self.values = values

    @functools.cached_property
    def order_keys(self) -> OrderKeys:
        return OrderKeys.from_values(self.values)


def _per_distinct_pair(left: np.ndarray, right: np.ndarray,
                       truth) -> np.ndarray:
    """``truth(left code, right code)`` once per distinct pair among the
    non-NULL elements of the broadcast operands, scattered back; elements
    with a NULL (negative) code are False.  The memo lives for one call
    and holds at most one entry per element."""
    left, right = np.broadcast_arrays(left, right)
    valid = (left >= 0) & (right >= 0)
    out = np.zeros(left.shape, dtype=bool)
    lhs = left[valid].astype(np.int64)
    rhs = right[valid].astype(np.int64)
    if not len(lhs):
        return out
    width = int(rhs.max()) + 1
    distinct, inverse = np.unique(lhs * width + rhs, return_inverse=True)
    truths = np.fromiter(
        (truth(key // width, key % width) for key in distinct.tolist()),
        dtype=bool, count=len(distinct))
    out[valid] = truths[inverse.reshape(-1)]
    return out
