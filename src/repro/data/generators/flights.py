"""Flights: multi-source conflicts over flight times (2,377 × 6).

Signature reproduced from the paper (Section 6.1 / [30]): many web
sources report departure/arrival times for the same flights; unreliable
sources copy from each other, so wrong values cluster into a handful of
popular alternatives per flight.  The majority of cells end up noisy;
ground truth is the authoritative schedule.  Four denial constraints say
a flight has a unique value for each time attribute, and the ``Source``
column carries the provenance feature HoloClean exploits to learn source
reliability.
"""

from __future__ import annotations

import numpy as np

from repro.constraints.fd import FunctionalDependency
from repro.data.base import GeneratedDataset, scaled
from repro.dataset.dataset import Cell, Dataset
from repro.dataset.schema import Attribute, Schema

_TIME_ATTRS = ["ScheduledDeparture", "ActualDeparture",
               "ScheduledArrival", "ActualArrival"]

_SCHEMA = Schema([
    Attribute("Source", role="source"),
    Attribute("Flight"),
    Attribute("ScheduledDeparture"),
    Attribute("ActualDeparture"),
    Attribute("ScheduledArrival"),
    Attribute("ActualArrival"),
])

_FDS = [FunctionalDependency(["Flight"], [attr]) for attr in _TIME_ATTRS]


def _random_time(rng: np.random.Generator) -> str:
    return f"{int(rng.integers(0, 24)):02d}:{int(rng.integers(0, 12)) * 5:02d}"


def _shifted(time: str, rng: np.random.Generator) -> str:
    """A plausible wrong time: the true one shifted by 5–120 minutes."""
    hours, minutes = map(int, time.split(":"))
    delta = int(rng.integers(1, 25)) * 5 * (1 if rng.random() < 0.5 else -1)
    total = (hours * 60 + minutes + delta) % (24 * 60)
    return f"{total // 60:02d}:{total % 60:02d}"


def generate_flights(num_flights: int | None = None, num_sources: int = 34,
                     unreliable_error_rate: float = 0.55,
                     alternative_concentration: float = 0.6,
                     reliable_sources: int = 4,
                     seed: int = 11) -> GeneratedDataset:
    """Generate the Flights analogue.

    Defaults give 70 × 34 = 2,380 tuples ≈ the paper's 2,377.  Reliable
    sources (airline/airport sites) err rarely; the long tail of
    aggregator sources reports a wrong time for over half their fields,
    with errors concentrated on a popular wrong alternative (sources copy
    from each other).  Nearly every flight field is conflicted, so the
    majority of cells are noisy; the true value remains the plurality but
    with many close calls — single-value repair heuristics face
    contradictory demands while statistical methods can still recover the
    truth.
    """
    flights_wanted = num_flights if num_flights is not None else scaled(70)
    rng = np.random.default_rng(seed)

    sources = [f"src_{s:02d}" for s in range(num_sources)]
    reliability = {
        source: (0.02 if s < reliable_sources else unreliable_error_rate)
        for s, source in enumerate(sources)
    }

    flights = []
    for f in range(flights_wanted):
        truth = {attr: _random_time(rng) for attr in _TIME_ATTRS}
        # Two popular wrong alternatives per field: copying between bad
        # sources concentrates errors on the same few values.
        alternatives = {
            attr: [_shifted(truth[attr], rng), _shifted(truth[attr], rng)]
            for attr in _TIME_ATTRS
        }
        flights.append((f"FL-{f:04d}", truth, alternatives))

    clean_rows, dirty_rows = [], []
    error_cells: set[Cell] = set()
    for flight_id, truth, alternatives in flights:
        for source in sources:
            clean_row = {"Source": source, "Flight": flight_id, **truth}
            dirty_row = dict(clean_row)
            for attr in _TIME_ATTRS:
                if rng.random() < reliability[source]:
                    options = alternatives[attr]
                    pick = 0 if rng.random() < alternative_concentration else 1
                    dirty_row[attr] = options[pick]
            tid = len(clean_rows)
            clean_rows.append([clean_row[a] for a in _SCHEMA.names])
            dirty_rows.append([dirty_row[a] for a in _SCHEMA.names])
            for attr in _TIME_ATTRS:
                if dirty_row[attr] != clean_row[attr]:
                    error_cells.add(Cell(tid, attr))

    clean = Dataset(_SCHEMA, clean_rows, name="flights-clean")
    dirty = Dataset(_SCHEMA, dirty_rows, name="flights")
    constraints = [dc for fd in _FDS for dc in fd.to_denial_constraints()]
    return GeneratedDataset(
        name="flights", dirty=dirty, clean=clean, constraints=constraints,
        error_cells=error_cells, recommended_tau=0.3,
        source_entity_attributes=("Flight",))
