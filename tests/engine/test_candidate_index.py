"""Candidate indexes gathered from the catalog equal the per-cell string walk.

``reference_index`` is ``ColumnStore.domain_code_index`` as it stood while
candidate domains travelled as ``dict[Cell, list[str]]``: every domain
encoded into a shared codebook cell by cell, in dict order, extending it
with values absent from the data.  The codebook starts as the store's value
tables of the space's sorted attributes, merged in first-seen order
(``store_codebook``).  The catalog path — :class:`CodeSpace`'s lookup
tables plus :meth:`ColumnStore.candidate_index`, and
``VectorPairEnumerator._combined_index`` on top — must produce the same
``indptr``, ``codes`` and code → value list byte for byte, for single- and
cross-attribute spaces, and so must the string-keyed adapter in the
attribute's own codes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.denial import DenialConstraint
from repro.constraints.predicates import Operator, Predicate, TupleRef
from repro.core.partition import VectorPairEnumerator
from repro.dataset.dataset import Cell, Dataset
from repro.dataset.schema import Schema
from repro.engine import Engine
from repro.engine.space import CodeSpace
from repro.inference.variables import VariableBlock, as_columns

VALUE = st.sampled_from(["a", "b", "c", "1", None])
ROWS = st.lists(st.tuples(VALUE, VALUE, VALUE), min_size=1, max_size=10)
# Candidates outside the data ("ghost", "zz") extend the codebooks.
DOMAINS = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=9), st.sampled_from("ABC")),
    st.lists(st.sampled_from(["a", "b", "1", "ghost", "zz"]), max_size=3, unique=True),
    max_size=10,
)
SPACES = [("A",), ("B",), ("A", "B"), ("C", "A"), ("B", "C")]


def store_codebook(store, *attributes):
    """Value → code over the sorted attributes' value tables: the first
    table's values, then each later table's values not seen before."""
    book = {}
    for attribute in sorted(attributes):
        for value in store.values(attribute):
            book.setdefault(value, len(book))
    return book


def reference_index(store, attribute, domains, codebook):
    """The per-cell walk: ``(indptr, codes)``, ``codebook`` extended."""
    lut = np.empty(max(len(store.values(attribute)), 1), dtype=np.int64)
    for code, value in enumerate(store.values(attribute)):
        lut[code] = codebook.setdefault(value, len(codebook))
    overrides = {
        cell.tid: [codebook.setdefault(v, len(codebook)) for v in domain]
        for cell, domain in domains.items()
        if cell.attribute == attribute
    }
    column = store.codes(attribute)
    counts = (column >= 0).astype(np.int64)
    for tid, codes in overrides.items():
        counts[tid] = len(codes)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    codes = np.empty(int(indptr[-1]), dtype=np.int64)
    stored = column >= 0
    stored[list(overrides)] = False
    codes[indptr[:-1][stored]] = lut[column[stored]]
    for tid, domain_codes in overrides.items():
        codes[indptr[tid] : indptr[tid + 1]] = domain_codes
    return indptr, codes


def assert_same(actual, expected):
    for got, want in zip(actual, expected):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def unseeded(domains):
    """``domains`` in a catalog whose tables start empty, not with the
    store's dictionaries: its codes are not store codes."""
    block = VariableBlock()
    block.add_block(list(domains), list(domains.values()), [-1] * len(domains), False)
    return block


def setup(rows, raw_domains):
    dataset = Dataset(Schema(["A", "B", "C"]), [list(r) for r in rows])
    domains = {
        Cell(tid, attribute): list(domain)
        for (tid, attribute), domain in raw_domains.items()
        if tid < dataset.num_tuples
    }
    return dataset, Engine(dataset), domains


@settings(max_examples=60, deadline=None)
@given(rows=ROWS, raw_domains=DOMAINS)
def test_code_space_equals_the_string_walk(rows, raw_domains):
    dataset, engine, domains = setup(rows, raw_domains)
    store = engine.store
    catalog = as_columns(domains, store)
    # A catalog not seeded with the store's dictionaries is re-encoded.
    recoded = as_columns(unseeded(domains), store)
    assert recoded.attributes == catalog.attributes
    assert recoded.tables == catalog.tables
    for name in ("tids", "attribute_codes", "domain_indptr", "domain_codes"):
        assert np.array_equal(getattr(recoded, name), getattr(catalog, name))
    for attrs in SPACES:
        codebook = store_codebook(store, *attrs)
        expected = {
            a: reference_index(store, a, domains, codebook) for a in sorted(attrs)
        }
        space = CodeSpace(store, attrs, catalog)
        assert space.values == list(codebook)
        # The store-level space: the same codes for the data's values.
        base = store.space(*attrs)
        assert base.values == list(store_codebook(store, *attrs))
        for attribute in attrs:
            index = space.csr(attribute)
            assert_same((index.indptr, index.codes), expected[attribute])
            own_book = store_codebook(store, attribute)
            own = reference_index(store, attribute, domains, own_book)
            adapted = store.domain_code_index(attribute, domains)
            assert_same((adapted.indptr, adapted.codes), own)
            # Fixed context: the whole column in the space's codes.
            column = store.decoded_column(attribute)
            recoded = [-1 if value is None else codebook[value] for value in column]
            assert space.fixed(attribute).tolist() == recoded
            assert base.fixed(attribute).tolist() == recoded


@settings(max_examples=60, deadline=None)
@given(rows=ROWS, raw_domains=DOMAINS)
def test_combined_index_equals_the_string_walk(rows, raw_domains):
    dataset, engine, domains = setup(rows, raw_domains)
    store = engine.store
    for left, right in (("A", "A"), ("A", "B"), ("C", "B")):
        dc = DenialConstraint(
            [Predicate(TupleRef(1, left), Operator.EQ, TupleRef(2, right))],
            name=f"{left}_{right}",
        )
        # The space's codebook grows in sorted attribute order.
        codebook = store_codebook(store, left, right)
        index = {
            a: reference_index(store, a, domains, codebook)
            for a in sorted({left, right})
        }
        first = index[left]
        if left == right:
            expected = first
        else:
            # Row t: the candidates of (t, left), then those of (t, right).
            second = index[right]
            rows = [
                [
                    *first[1][first[0][t] : first[0][t + 1]],
                    *second[1][second[0][t] : second[0][t + 1]],
                ]
                for t in range(dataset.num_tuples)
            ]
            expected = (
                np.cumsum([0, *map(len, rows)], dtype=np.int64),
                np.array([code for row in rows for code in row], dtype=np.int64),
            )
        for given_as in (domains, as_columns(domains, store), unseeded(domains)):
            enumerator = VectorPairEnumerator(engine, dataset, given_as)
            assert_same(enumerator._combined_index(dc), expected)
