"""Tests for denial-constraint predicates."""

import pytest

from repro.constraints.predicates import Const, Operator, Predicate, TupleRef

#: Every operator but similarity, in declaration order.
CODED_OPS = [op for op in Operator if op not in (Operator.SIM, Operator.NSIM)]


def pred(op, right=None):
    return Predicate(TupleRef(1, "A"), op, right or TupleRef(2, "A"))


class TestTupleRef:
    def test_valid_indices(self):
        assert TupleRef(1, "A").tuple_index == 1
        assert TupleRef(2, "A").tuple_index == 2

    def test_invalid_index(self):
        with pytest.raises(ValueError, match="1 or 2"):
            TupleRef(3, "A")

    def test_str(self):
        assert str(TupleRef(1, "City")) == "t1.City"
        assert str(Const("IL")) == '"IL"'


class TestEvaluation:
    def test_eq(self):
        assert pred(Operator.EQ).evaluate({"A": "x"}, {"A": "x"})
        assert not pred(Operator.EQ).evaluate({"A": "x"}, {"A": "y"})

    def test_neq(self):
        assert pred(Operator.NEQ).evaluate({"A": "x"}, {"A": "y"})

    def test_numeric_comparison(self):
        assert pred(Operator.LT).evaluate({"A": "9"}, {"A": "10"})
        assert pred(Operator.GT).evaluate({"A": "10"}, {"A": "9"})

    def test_lexicographic_fallback(self):
        # "10" < "9" lexicographically, but "9x" forces string comparison.
        assert pred(Operator.LT).evaluate({"A": "10x"}, {"A": "9x"})

    def test_lte_gte(self):
        assert pred(Operator.LTE).evaluate({"A": "5"}, {"A": "5"})
        assert pred(Operator.GTE).evaluate({"A": "5"}, {"A": "5"})

    def test_similarity_operator(self):
        p = Predicate(
            TupleRef(1, "A"), Operator.SIM, TupleRef(2, "A"), sim_threshold=0.8
        )
        assert p.evaluate({"A": "Chicago"}, {"A": "Cicago"})
        assert not p.evaluate({"A": "Chicago"}, {"A": "Boston"})

    def test_constant_operand(self):
        p = Predicate(TupleRef(1, "State"), Operator.EQ, Const("IL"))
        assert p.evaluate({"State": "IL"})
        assert not p.evaluate({"State": "MA"})

    def test_null_never_fires(self):
        assert not pred(Operator.EQ).evaluate({"A": None}, {"A": None})
        assert not pred(Operator.NEQ).evaluate({"A": None}, {"A": "x"})

    def test_missing_second_tuple_raises(self):
        with pytest.raises(ValueError, match="no second tuple"):
            pred(Operator.EQ).evaluate({"A": "x"})

    def test_same_tuple_reference(self):
        p = Predicate(TupleRef(1, "A"), Operator.NEQ, TupleRef(1, "B"))
        assert p.evaluate({"A": "x", "B": "y"})


class TestStructure:
    def test_is_binary(self):
        assert pred(Operator.EQ).is_binary
        p_const = Predicate(TupleRef(1, "A"), Operator.EQ, Const("x"))
        assert not p_const.is_binary
        p_same = Predicate(TupleRef(1, "A"), Operator.EQ, TupleRef(1, "B"))
        assert not p_same.is_binary

    def test_is_equijoin(self):
        assert pred(Operator.EQ).is_equijoin
        assert not pred(Operator.NEQ).is_equijoin

    def test_attributes(self):
        p = Predicate(TupleRef(1, "A"), Operator.EQ, TupleRef(2, "B"))
        assert p.attributes == {"A", "B"}

    def test_attributes_of_position(self):
        p = Predicate(TupleRef(1, "A"), Operator.EQ, TupleRef(2, "B"))
        assert p.attributes_of(1) == {"A"}
        assert p.attributes_of(2) == {"B"}

    def test_negated_operators(self):
        assert Operator.EQ.negated is Operator.NEQ
        assert Operator.LT.negated is Operator.GTE
        assert Operator.GTE.negated is Operator.LT

    def test_str(self):
        assert str(pred(Operator.EQ)) == "t1.A = t2.A"


class TestCodeSpaceEvaluation:
    """The vectorized evaluators must agree with ``compare`` exactly.

    The value set mixes numerics, strings, and numeric-looking strings
    whose numeric and lexicographic orders disagree ("10" < "9" as
    strings, 9 < 10 as floats), plus ``inf``/``nan`` parses — the cases
    where a rank-based "ordered codebook" would get pairwise coercion
    wrong.
    """

    VALUES = ["10", "9", "5a", "", "nan", "inf", "2.50", "2.5", "b", "-3"]

    @pytest.mark.parametrize("op", CODED_OPS)
    def test_compare_coded_matches_compare(self, op):
        import itertools

        import numpy as np

        from repro.constraints.predicates import OrderKeys

        predicate = pred(op)
        keys = OrderKeys.from_values(self.VALUES)
        pairs = list(itertools.product(range(len(self.VALUES)), repeat=2))
        left = np.array([a for a, _ in pairs])
        right = np.array([b for _, b in pairs])
        coded = predicate.compare_coded(left, right, keys)
        for (a, b), got in zip(pairs, coded.tolist()):
            expected = predicate.compare(self.VALUES[a], self.VALUES[b])
            assert got == expected, (self.VALUES[a], op, self.VALUES[b])

    def test_null_codes_never_satisfy(self):
        import numpy as np

        from repro.constraints.predicates import OrderKeys

        keys = OrderKeys.from_values(self.VALUES)
        left = np.array([-1, 0, -1])
        right = np.array([0, -1, -1])
        for op in (Operator.EQ, Operator.NEQ, Operator.LT, Operator.GTE):
            assert not pred(op).compare_coded(left, right, keys).any()

    @pytest.mark.parametrize("op", list(Operator))
    def test_constant_evaluate_coded_matches_compare(self, op):
        import numpy as np

        from repro.constraints.predicates import CodedValues

        predicate = Predicate(TupleRef(1, "A"), op, Const("2.5"), sim_threshold=0.5)
        codes = np.array([-1, *range(len(self.VALUES)), 3, -1])
        got = predicate.evaluate_coded(codes, None, CodedValues(self.VALUES))
        expected = [
            code >= 0 and predicate.compare(self.VALUES[code], "2.5")
            for code in codes.tolist()
        ]
        assert got.tolist() == expected, op

    @pytest.mark.parametrize("op", [Operator.SIM, Operator.NSIM])
    def test_similarity_evaluate_coded_matches_evaluate(self, op):
        import itertools

        import numpy as np

        from repro.constraints.predicates import CodedValues

        predicate = Predicate(
            TupleRef(1, "A"), op, TupleRef(2, "A"), sim_threshold=0.5
        )
        values = [*self.VALUES, "2.55", "Chicago", "Chicagoo"]
        codes = range(-1, len(values))
        decoded = {code: values[code] if code >= 0 else None for code in codes}
        pairs = list(itertools.product(codes, repeat=2))
        left = np.array([a for a, _ in pairs])
        right = np.array([b for _, b in pairs])
        got = predicate.evaluate_coded(left, right, CodedValues(values))
        for (a, b), hit in zip(pairs, got.tolist()):
            expected = predicate.evaluate({"A": decoded[a]}, {"A": decoded[b]})
            assert hit == expected, (a, op, b)
        assert 0 < got.sum() < len(pairs)

    def test_similarity_runs_once_per_distinct_value_pair(self):
        from unittest import mock

        import numpy as np

        from repro.constraints import predicates

        values = ["Chicago", "Chicagoo", "Boston"]
        left = np.array([[0, 0, 1, -1], [2, 0, 1, 1]])
        right = np.array([1, 1, 0, 2])  # broadcast against both rows
        with mock.patch.object(predicates, "similar", wraps=predicates.similar) as spy:
            got = pred(Operator.NSIM).compare_coded(left, right, values=values)
        seen = [call.args[:2] for call in spy.call_args_list]
        distinct = [(0, 1), (1, 0), (2, 1), (1, 2)]
        assert len(seen) == len(set(seen)) == len(distinct)
        assert set(seen) == {(values[a], values[b]) for a, b in distinct}
        assert got.tolist() == [
            [False, False, False, False],
            [True, False, False, True],
        ]

    def test_order_and_similarity_need_their_codebook(self):
        import numpy as np

        with pytest.raises(ValueError, match="OrderKeys"):
            pred(Operator.LT).compare_coded(np.array([0]), np.array([1]))
        with pytest.raises(ValueError, match="values"):
            pred(Operator.SIM).compare_coded(np.array([0]), np.array([1]))
