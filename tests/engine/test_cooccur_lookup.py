"""Pair-tied co-occurrence: the dense gather equals the binary search.

:meth:`VectorFeaturizer._joint_counts` reads a pair's joint counts off the
``(other, attribute)`` table Algorithm 2 already built, by one gather from
a transient dense table when ``(card_other + 1) × (card_attribute + 1)``
fits ``_DENSE_JOINT_CELLS`` and by a binary search of the table's keys
otherwise.  Whichever path each pair takes, the feature matrix and the
key list are byte-equal: every pair searched (budget 0), every pair dense
(the default), or a budget between two pairs' products (a mixed run).
Equality with the reference featurizers is
``tests/engine/test_featurization.py``'s contract.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import vector_featurize
from repro.core.compiler import ModelCompiler
from repro.core.config import HoloCleanConfig
from repro.core.featurize import FeaturizationContext
from repro.core.vector_featurize import VectorFeaturizer
from repro.data.generators.flights import generate_flights
from repro.data.generators.hospital import generate_hospital
from repro.dataset.dataset import Cell, Dataset
from repro.dataset.schema import Schema
from repro.detect.violations import ViolationDetector
from repro.engine import Engine
from repro.engine.stats import EngineStatistics
from repro.inference.features import FeatureMatrixBuilder, FeatureSpace
from tests.engine.test_featurization import DOMAIN, RANDOM_DCS, ROWS

DEFAULT_BUDGET = vector_featurize._DENSE_JOINT_CELLS
MATRIX = ("var_row_start", "row_ptr", "indices", "values")


@pytest.fixture(scope="module")
def hospital():
    return generate_hospital(num_rows=260)


@pytest.fixture(scope="module")
def flights():
    return generate_flights(num_flights=12)


@contextmanager
def lookups(budget):
    """Run under ``budget``; yields the list of ``(cells, searched)`` per
    pair lookup ``_cooccur`` makes, ``searched`` when it binary-searched."""
    made: list[tuple[int, bool]] = []
    inside: list[int] = []
    real_lookup = VectorFeaturizer._joint_counts
    real_search = np.searchsorted

    def joint_counts(self, attr, other, *args):
        store = self.engine.store
        cells = (store.cardinality(attr) + 1) * (store.cardinality(other) + 1)
        inside.append(len(made))
        made.append((cells, False))
        try:
            return real_lookup(self, attr, other, *args)
        finally:
            inside.pop()

    def searchsorted(*args, **kwargs):
        if inside:
            made[inside[-1]] = (made[inside[-1]][0], True)
        return real_search(*args, **kwargs)

    with (
        mock.patch.object(vector_featurize, "_DENSE_JOINT_CELLS", budget),
        mock.patch.object(VectorFeaturizer, "_joint_counts", joint_counts),
        mock.patch.object(np, "searchsorted", searchsorted),
    ):
        yield made


def compile_model(dataset, constraints, config):
    engine = Engine(dataset)
    detection = ViolationDetector(constraints, engine=engine).detect(dataset)
    return ModelCompiler(
        dataset, constraints, config, detection, engine=engine
    ).compile()


def matrix_bytes(matrix, keys):
    arrays = [getattr(matrix, name) for name in MATRIX]
    return [(a.dtype.str, a.tobytes()) for a in arrays], list(keys)


def compiled_bytes(budget, dataset, constraints, config):
    with lookups(budget) as made:
        model = compile_model(dataset, constraints, config)
    return matrix_bytes(model.graph.matrix, model.graph.space._keys), made


def generated_config(generated):
    return HoloCleanConfig(
        tau=generated.recommended_tau,
        source_entity_attributes=generated.source_entity_attributes,
    )


@pytest.mark.parametrize("name", ["hospital", "flights"])
def test_dense_searched_and_mixed_runs_are_byte_equal(name, request):
    generated = request.getfixturevalue(name)
    inputs = (generated.dirty, generated.constraints, generated_config(generated))
    dense, made = compiled_bytes(DEFAULT_BUDGET, *inputs)
    assert made and not any(searched for _, searched in made)
    searched, made = compiled_bytes(0, *inputs)
    assert all(searched for _, searched in made)
    assert searched == dense
    # A budget between two pairs' products: the smaller pairs gather, the
    # larger ones search, in one run.
    products = sorted({cells for cells, _ in made})
    assert len(products) >= 2
    budget = products[len(products) // 2 - 1]
    mixed, made = compiled_bytes(budget, *inputs)
    assert {searched for _, searched in made} == {False, True}
    assert all(searched == (cells > budget) for cells, searched in made)
    assert mixed == dense


def test_lookups_read_the_orientation_algorithm_2_built(hospital):
    # Every count table a default compile asks for is the (context,
    # attribute) orientation of an enclosing Algorithm 2 conditional or
    # co-occurrence lookup, so the featurizer never sorts a derived one.
    asked: list[tuple[str, str]] = []
    real_table = EngineStatistics.joint_code_counts
    real_conditional = EngineStatistics.conditional_table
    real_lookup = VectorFeaturizer._joint_counts

    def joint_code_counts(self, attr_a, attr_b):
        asked.append((attr_a, attr_b))
        return real_table(self, attr_a, attr_b)

    def expect(pair, real, self, attr, other, *args):
        before = len(asked)
        result = real(self, attr, other, *args)
        assert set(asked[before:]) <= {pair}
        del asked[before:]
        return result

    def conditional_table(self, attr, given_attr):
        pair = (given_attr, attr)
        return expect(pair, real_conditional, self, attr, given_attr)

    def joint_counts(self, attr, other, *args):
        return expect((other, attr), real_lookup, self, attr, other, *args)

    with (
        mock.patch.object(EngineStatistics, "joint_code_counts", joint_code_counts),
        mock.patch.object(EngineStatistics, "conditional_table", conditional_table),
        mock.patch.object(VectorFeaturizer, "_joint_counts", joint_counts),
    ):
        compile_model(hospital.dirty, hospital.constraints, generated_config(hospital))
    assert asked == []  # no table outside a lookup


def featurize(budget, dataset, specs):
    config = HoloCleanConfig(max_dc_feature_partners=2)
    engine = Engine(dataset)
    context = FeaturizationContext(dataset, engine.statistics(), config)
    builder = FeatureMatrixBuilder(FeatureSpace())
    builder.start_variables([len(domain) for _, domain in specs])
    with mock.patch.object(vector_featurize, "_DENSE_JOINT_CELLS", budget):
        VectorFeaturizer(engine, context, RANDOM_DCS).featurize(specs, builder)
    return builder.build(), builder.space._keys


@pytest.mark.parametrize("budget", [0, DEFAULT_BUDGET])
def test_extended_codes_and_null_contexts_count_zero(budget):
    # "ghost" and "phantom" are not in the data: their extended codes (2
    # and 3 past A's two values) must count 0, not alias into the key
    # space's next context row (B = "2", where "x" occurs); C is all NULL
    # and conditions nothing.
    dataset = Dataset(
        Schema(["A", "B", "C"]),
        [["x", "1", None], ["y", "1", None], ["x", "2", None], ["y", "2", None]],
    )
    specs = [
        (Cell(0, "A"), ["x", "y", "ghost", "phantom"]),
        (Cell(2, "A"), ["ghost", "x"]),
    ]
    matrix, keys = featurize(budget, dataset, specs)
    cooc = [key[0] == "cooc" or key == ("cooc*",) for key in keys]
    on_rows = matrix.entry_row_ids()[np.array(cooc)[matrix.indices]]
    assert on_rows.tolist() == [1, 1]  # "y" given B = "1": pair and back-off
    assert ("cooc", "A", "B") in keys and ("cooc", "A", "C") not in keys


def test_a_one_attribute_schema_has_no_cooccurrence():
    dataset = Dataset(Schema(["A"]), [["x"], ["y"], ["x"]])
    specs = [(Cell(0, "A"), ["x", "y"])]
    config = HoloCleanConfig(use_frequency=False, use_dc_feats=False)
    engine = Engine(dataset)
    context = FeaturizationContext(dataset, engine.statistics(), config)
    builder = FeatureMatrixBuilder(FeatureSpace())
    builder.start_variables([2])
    VectorFeaturizer(engine, context, []).featurize(specs, builder)
    assert builder.space._keys == [("minimality",)]


@settings(max_examples=40, deadline=None)
@given(rows=ROWS, tau=st.sampled_from([0.0, 0.5]))
def test_random_datasets_dense_equals_searched(rows, tau):
    dataset = Dataset(Schema(["A", "B", "C"]), [list(r) for r in rows])
    config = HoloCleanConfig(tau=tau, max_dc_feature_partners=2)
    dense, _ = compiled_bytes(DEFAULT_BUDGET, dataset, RANDOM_DCS, config)
    searched, _ = compiled_bytes(0, dataset, RANDOM_DCS, config)
    assert searched == dense


@settings(max_examples=40, deadline=None)
@given(rows=ROWS, data=st.data())
def test_specs_outside_the_data_dense_equals_searched(rows, data):
    dataset = Dataset(Schema(["A", "B", "C"]), [list(r) for r in rows])
    cells = data.draw(
        st.lists(
            st.tuples(st.integers(0, len(rows) - 1), st.sampled_from("ABC")),
            unique=True,
            min_size=1,
            max_size=10,
        )
    )
    specs = [(Cell(tid, attr), data.draw(DOMAIN)) for tid, attr in cells]
    searched, dense = (featurize(b, dataset, specs) for b in (0, DEFAULT_BUDGET))
    assert matrix_bytes(*searched) == matrix_bytes(*dense)
