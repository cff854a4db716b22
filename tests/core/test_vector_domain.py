"""Byte-equality of the vectorized Algorithm 2 path against its oracles.

:class:`VectorDomainPruner` (plus the weak-label vote and evidence
negative-merge helpers in ``core/vector_domain.py``) must reproduce the
naive per-cell implementations *exactly* — same candidate sets, same
ordering, same tie-breaks — on NULL-heavy data, score ties, ``max_domain``
truncation displacing the observed value, the ``active`` strategy, and
the empty-domain most-common fallback — and on the inputs that stress
where τ is tested (on the count table, not per cell).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import HoloCleanConfig
from repro.core.compiler import ModelCompiler
from repro.core.vector_domain import (
    EntityVoteModes,
    VectorDomainPruner,
    _lex_rank_table,
    merged_negative_domains,
)
from repro.data.generators.flights import generate_flights
from repro.data.generators.hospital import generate_hospital
from repro.dataset.dataset import Cell, Dataset
from repro.dataset.schema import Schema
from repro.detect.violations import ViolationDetector
from repro.engine import Engine
from repro.inference.variables import CellColumns
from repro.oracle import DomainPruner, EntityGroups, NaiveModelCompiler, Statistics
from tests.core.test_compiler import sampled_cells

# Few distinct values over few attributes: ties, NULL-heavy tuples, and
# shared co-occurrence structure are all likely under sampling.
VALUE = st.sampled_from(["a", "b", "c", "10", "9", None])
ROWS = st.lists(st.tuples(VALUE, VALUE, VALUE), min_size=1, max_size=24)


def all_cells(dataset):
    return [
        Cell(tid, attr)
        for tid in range(dataset.num_tuples)
        for attr in dataset.schema.data_attributes
    ]


def naive_for(dataset, **knobs):
    return DomainPruner(dataset, Statistics(dataset), **knobs)


def catalog(engine):
    """An empty catalog over the engine's dictionaries: candidate codes are
    the store's."""
    store = engine.store
    return CellColumns({a: store.values(a) for a in store.attributes})


class TestByteEquality:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=ROWS,
        tau=st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]),
        max_domain=st.integers(min_value=1, max_value=5),
        strategy=st.sampled_from(["cooccurrence", "active"]),
    )
    def test_matches_naive_oracle(self, rows, tau, max_domain, strategy):
        dataset = Dataset(Schema(["A", "B", "C"]), [list(r) for r in rows])
        naive = naive_for(dataset, tau=tau, max_domain=max_domain, strategy=strategy)
        vector = VectorDomainPruner(
            Engine(dataset),
            tau=tau,
            max_domain=max_domain,
            strategy=strategy,
        )
        cells = all_cells(dataset)
        assert vector.domains(cells) == naive.domains(cells)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=ROWS,
        tau=st.sampled_from([0.0, 0.5, 1.0]),
        max_domain=st.integers(min_value=1, max_value=5),
        strategy=st.sampled_from(["cooccurrence", "active"]),
        data=st.data(),
    )
    def test_csr_decodes_to_the_domains(self, rows, tau, max_domain, strategy, data):
        # What the compiler registers: one row of store codes per cell, in
        # the cells' order (a random one here), empty when a cell prunes to
        # nothing — NULL contexts, fallbacks and the active strategy included.
        dataset = Dataset(Schema(["A", "B", "C"]), [list(r) for r in rows])
        knobs = dict(tau=tau, max_domain=max_domain, strategy=strategy)
        vector = VectorDomainPruner(Engine(dataset), **knobs)
        store = vector.engine.store
        cells = data.draw(st.permutations(all_cells(dataset)))
        tids = np.array([cell.tid for cell in cells], dtype=np.int64)
        codes = [store.attributes.index(cell.attribute) for cell in cells]
        indptr, pruned = vector.prune(tids, np.array(codes, dtype=np.int64))
        assert len(indptr) == len(cells) + 1 and (pruned >= 0).all()
        bounds = zip(cells, indptr.tolist(), indptr[1:].tolist())
        decoded = [
            [store.values(cell.attribute)[code] for code in pruned[lo:hi].tolist()]
            for cell, lo, hi in bounds
        ]
        expected = naive_for(dataset, **knobs).domains(cells)
        assert decoded == [expected.get(cell, []) for cell in cells]
        assert vector.domains(cells) == expected

    # τ is tested once per count-table row and the survivors cached on
    # the pruner; the oracle tests it per cell, after expanding.
    POOL = [["pool", f"v{i}"] for i in range(10)] + [["pool", "big"]] * 6
    TABLE_CASES = {
        # one context value, 11 distinct co-occurring values, 1/tau = 4:
        # every table row but ("pool", "big") fails.
        "fixed-pool": (POOL, 0.25),
        # Pr[x|k] = Pr[y|k] = 1/2 == tau: kept, on both sides.
        "tie-at-half": ([["k", "x"], ["k", "y"], ["j", "x"]], 0.5),
        # Pr[v|k] = 1/4 == tau for four values.
        "tie-at-quarter": ([["k", v] for v in "wxyz"] + [["j", "w"]], 0.25),
        # tau = 0: nothing is filtered.
        "tau-zero": (POOL, 0.0),
        # NULL contexts contribute nothing; NULL cells get candidates.
        "null-context": (
            [["k", "x"], ["k", "x"], [None, "x"], ["k", None], [None, None]],
            0.5,
        ),
    }

    @pytest.mark.parametrize("case", TABLE_CASES)
    def test_tau_tested_on_the_count_table(self, case):
        rows, tau = self.TABLE_CASES[case]
        dataset = Dataset(Schema(["K", "V"]), [list(r) for r in rows])
        naive = naive_for(dataset, tau=tau, max_domain=50)
        vector = VectorDomainPruner(Engine(dataset), tau=tau, max_domain=50)
        cells = all_cells(dataset)
        expected = naive.domains(cells)
        assert vector.domains(cells) == expected
        # Second call on the same pruner: served from the cached survivors.
        assert vector.domains(cells) == expected
        assert vector.domains(cells[::-1]) == naive.domains(cells[::-1])

    def test_conditional_equal_to_tau_is_kept(self):
        rows, tau = self.TABLE_CASES["tie-at-quarter"]
        dataset = Dataset(Schema(["K", "V"]), [list(r) for r in rows])
        vector = VectorDomainPruner(Engine(dataset), tau=tau)
        assert vector.candidates(Cell(0, "V")) == ["w", "x", "y", "z"]
        assert vector.candidates(Cell(0, "V")) == naive_for(
            dataset, tau=tau
        ).candidates(Cell(0, "V"))

    def test_score_ties_break_lexicographically(self):
        # Pr[x|k] = Pr[y|k] = 1/3: the tie must break on the value string.
        dataset = Dataset(Schema(["K", "V"]), [["k", "y"], ["k", "x"], ["k", None]])
        naive = naive_for(dataset, tau=0.1)
        vector = VectorDomainPruner(Engine(dataset), tau=0.1)
        cell = Cell(2, "V")  # no init: only the tied conditionals remain
        assert naive.candidates(cell) == ["x", "y"]
        assert vector.candidates(cell) == ["x", "y"]
        cell = Cell(0, "V")  # init "y" at 1.0 outranks the tie
        expected = naive.candidates(cell)
        assert expected == ["y", "x"]
        assert vector.candidates(cell) == expected

    def test_truncation_displacing_init(self):
        rows = [["k", f"v{i}"] for i in range(10) for _ in range(2)]
        rows.append(["k", "rare"])
        dataset = Dataset(Schema(["K", "V"]), rows)
        naive = naive_for(dataset, tau=0.0, max_domain=3)
        vector = VectorDomainPruner(Engine(dataset), tau=0.0, max_domain=3)
        cell = Cell(20, "V")  # "rare" ranks past the cut; forced back
        expected = naive.candidates(cell)
        assert len(expected) == 3 and "rare" in expected
        assert vector.candidates(cell) == expected

    def test_null_context_most_common_fallback(self):
        dataset = Dataset(
            Schema(["A", "B"]),
            [["x", "common"], ["x", "common"], ["x", "rare"], [None, None]],
        )
        naive = naive_for(dataset, tau=0.5)
        vector = VectorDomainPruner(Engine(dataset), tau=0.5)
        cell = Cell(3, "B")  # no init, no context: most-common fallback
        assert naive.candidates(cell) == ["common"]
        assert vector.candidates(cell) == ["common"]

    def test_fully_null_attribute_prunes_to_nothing(self):
        dataset = Dataset(Schema(["A", "B"]), [["x", None], ["y", None]])
        naive = naive_for(dataset, tau=0.5)
        vector = VectorDomainPruner(Engine(dataset), tau=0.5)
        cells = [Cell(0, "B"), Cell(1, "B")]
        assert [vector.candidates(c) for c in cells] == [[], []]
        assert vector.domains(cells) == {} == naive.domains(cells)

    def test_active_strategy_generators(self):
        for generated in (
            generate_hospital(num_rows=80),
            generate_flights(num_flights=5),
        ):
            dataset = generated.dirty
            naive = naive_for(dataset, strategy="active", max_domain=6)
            vector = VectorDomainPruner(
                Engine(dataset),
                strategy="active",
                max_domain=6,
            )
            cells = all_cells(dataset)
            assert vector.domains(cells) == naive.domains(cells)

    @pytest.mark.parametrize("name", ["hospital", "flights"])
    def test_generators_on_the_compilers_cells(self, name):
        # The cell set production prunes: the compiler's query cells plus
        # its sampled evidence cells, at the generator's tau.
        if name == "hospital":
            generated = generate_hospital(num_rows=300)
        else:
            generated = generate_flights(num_flights=10)
        dataset = generated.dirty
        config = HoloCleanConfig(tau=generated.recommended_tau)
        detection = ViolationDetector(generated.constraints).detect(dataset)
        compiler = ModelCompiler(dataset, generated.constraints, config, detection)
        query = sorted(detection.noisy_cells)
        cells = query + sampled_cells(compiler, query)
        knobs = dict(tau=config.tau, max_domain=config.max_domain)
        expected = naive_for(dataset, **knobs).domains(cells)
        assert VectorDomainPruner(compiler.engine, **knobs).domains(cells) == expected
        assert any(len(d) > 1 for d in expected.values())
        # Every Flights cell is noisy, so only Hospital has evidence cells.
        assert (len(cells) > len(query)) == (name == "hospital")

    def test_unknown_strategy_rejected(self):
        dataset = Dataset(Schema(["A"]), [["x"]])
        with pytest.raises(ValueError, match="unknown domain strategy"):
            VectorDomainPruner(Engine(dataset), strategy="oracle")

    def test_prune_counters_accumulate(self):
        generated = generate_hospital(num_rows=60)
        vector = VectorDomainPruner(Engine(generated.dirty))
        cells = all_cells(generated.dirty)[:40]
        pruned = vector.domains(cells)
        assert vector.stats["prune_path"] == "vector"
        assert vector.stats["prune_cells"] == 40
        assert vector.stats["prune_candidates"] == sum(map(len, pruned.values()))


class TestWeakLabelVotes:
    def test_modes_match_entity_group_plurality(self):
        generated = generate_flights(num_flights=8)
        dataset = generated.dirty
        config = HoloCleanConfig(
            tau=generated.recommended_tau,
            source_entity_attributes=generated.source_entity_attributes,
        )
        engine = Engine(dataset)
        groups = EntityGroups(dataset, config.source_entity_attributes)
        voter = EntityVoteModes(engine, list(config.source_entity_attributes))
        store = engine.store
        for attr in dataset.schema.data_attributes:
            tids = np.arange(dataset.num_tuples)
            modes = voter.modes(attr, tids, _lex_rank_table(store.values(attr)))
            values = store.values(attr)
            index = dataset.schema.index_of(attr)
            for tid, code in zip(tids.tolist(), modes.tolist()):
                group = groups.of(int(tid))
                expected = None
                if len(group) >= 3:
                    votes: dict[str, int] = {}
                    for member in group:
                        value = dataset.row_ref(member)[index]
                        if value is not None:
                            votes[value] = votes.get(value, 0) + 1
                    if votes:
                        expected = max(sorted(votes), key=lambda v: votes[v])
                assert (values[code] if code >= 0 else None) == expected


class TestNegativeMerge:
    @settings(max_examples=25, deadline=None)
    @given(
        rows=ROWS,
        wanted=st.integers(min_value=0, max_value=4),
        max_domain=st.integers(min_value=1, max_value=6),
    )
    def test_matches_with_negatives(self, rows, wanted, max_domain):
        dataset = Dataset(Schema(["A", "B", "C"]), [list(r) for r in rows])
        engine = Engine(dataset)
        stats = engine.statistics()
        config = HoloCleanConfig(evidence_negatives=wanted, max_domain=max_domain)
        compiler = NaiveModelCompiler(
            dataset,
            [],
            config,
            ViolationDetector([]).detect(dataset),
            engine=engine,
        )
        pruner = VectorDomainPruner(engine, tau=0.3, max_domain=max_domain)
        cells = all_cells(dataset)
        domains = [pruner.candidates(cell) for cell in cells]
        expected = [
            compiler._with_negatives(cell, list(domain))
            for cell, domain in zip(cells, domains)
        ]
        columns = catalog(engine)
        tids, attributes, indptr, codes = columns.encode(cells, domains)
        merged = merged_negative_domains(
            engine,
            stats,
            attributes,
            indptr,
            codes,
            wanted,
            max_domain,
        )
        columns.append(tids, attributes, *merged)
        assert columns.domains_of() == expected
