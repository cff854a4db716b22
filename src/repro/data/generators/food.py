"""Food: Chicago food-inspection records (339,908 × 17 in the paper).

Signature reproduced from Section 6.1: establishments inspected many
times across years (heavy duplication of establishment attributes),
errors introduced in *non-systematic* ways — transcription typos and
arbitrary wrong values — captured by seven denial constraints.  The
default size is laptop-friendly; ``REPRO_SCALE`` raises it toward the
paper's row count.
"""

from __future__ import annotations

import numpy as np

from repro.constraints.fd import FunctionalDependency
from repro.constraints.matching import MatchingDependency, MatchPredicate
from repro.data.base import GeneratedDataset, scaled
from repro.data.errors import ErrorInjector
from repro.data import geo
from repro.dataset.dataset import Dataset
from repro.dataset.schema import Attribute, Schema
from repro.external.dictionary import ExternalDictionary

_FACILITY_TYPES = ["Restaurant", "Grocery Store", "Bakery", "School",
                   "Mobile Food Dispenser", "Catering"]
_RISKS = ["Risk 1 (High)", "Risk 2 (Medium)", "Risk 3 (Low)"]
_INSPECTION_TYPES = ["Canvass", "Complaint", "License", "Re-inspection"]
_RESULTS = ["Pass", "Fail", "Pass w/ Conditions", "No Entry"]

_SCHEMA = Schema([
    Attribute("InspectionID", role="id"),
    Attribute("DBAName"),
    Attribute("AKAName"),
    Attribute("License"),
    Attribute("FacilityType"),
    Attribute("Risk"),
    Attribute("Address"),
    Attribute("City"),
    Attribute("State"),
    Attribute("Zip"),
    Attribute("InspectionDate"),
    Attribute("InspectionType"),
    Attribute("Results"),
    Attribute("Violations"),
    Attribute("Latitude"),
    Attribute("Longitude"),
    Attribute("Location"),
])

#: Seven denial constraints (Table 2), echoing Figure 1's c1–c3.
_FDS = [
    FunctionalDependency(["DBAName"], ["Zip"]),
    FunctionalDependency(["Zip"], ["City"]),
    FunctionalDependency(["Zip"], ["State"]),
    FunctionalDependency(["License"], ["DBAName"]),
    FunctionalDependency(["License"], ["FacilityType"]),
    FunctionalDependency(["City", "State", "Address"], ["Zip"]),
    FunctionalDependency(["Address", "InspectionDate"], ["Results"]),
]

#: Zip errors are transcription typos (producing *invalid* zips, as in the
#: real data) rather than swaps to other valid zips — an invalid zip simply
#: fails dictionary lookups instead of misleading them.
_TYPO_ATTRIBUTES = ["DBAName", "City", "State", "Address", "Zip"]
_SWAP_ATTRIBUTES = ["FacilityType", "Results"]


def generate_food(num_rows: int | None = None, typo_rate: float = 0.02,
                  swap_rate: float = 0.02, duplicate_rate: float = 0.2,
                  seed: int = 23) -> GeneratedDataset:
    """Generate the Food analogue (default ≈ 5,000 rows at scale 1).

    ``duplicate_rate`` of the rows are duplicate filings of an earlier
    inspection (same establishment, date, and result under a fresh
    inspection id) — the paper notes the dataset "contains many
    duplicates as records span different years", and those duplicates are
    what makes result errors detectable through the
    ``Address, InspectionDate → Results`` constraint.
    """
    rows_wanted = num_rows if num_rows is not None else scaled(5000)
    rng = np.random.default_rng(seed)
    cities = geo.build_cities()
    # Chicago-like skew: most establishments live in a handful of cities.
    city_weights = np.array([1.0 / (1 + i) for i in range(len(cities))])
    city_weights /= city_weights.sum()

    num_establishments = max(6, rows_wanted // 6)
    addresses = geo.address_pool(rng, num_establishments)
    establishments = []
    for e in range(num_establishments):
        city = cities[int(rng.choice(len(cities), p=city_weights))]
        zipcode = city.zips[int(rng.integers(0, len(city.zips)))]
        name = f"EATERY {e:05d}"
        establishments.append({
            "DBAName": name,
            "AKAName": name.title(),
            "License": f"{200000 + e}",
            "FacilityType": _FACILITY_TYPES[e % len(_FACILITY_TYPES)],
            "Risk": _RISKS[e % len(_RISKS)],
            "Address": addresses[e],
            "City": city.name,
            "State": city.state,
            "Zip": zipcode,
            "Latitude": f"{41 + rng.random():.6f}",
            "Longitude": f"{-88 + rng.random():.6f}",
        })
        establishments[-1]["Location"] = (
            f"({establishments[-1]['Latitude']}, "
            f"{establishments[-1]['Longitude']})")

    rows = []
    inspection_id = 1_000_000
    row_count = 0
    seen_visits: set[tuple[str, str]] = set()
    previous_record: dict[str, str] | None = None
    while row_count < rows_wanted:
        if previous_record is not None and rng.random() < duplicate_rate:
            # Duplicate filing of the previous inspection.
            record = dict(previous_record)
            record["InspectionID"] = str(inspection_id)
            record["InspectionType"] = _INSPECTION_TYPES[
                int(rng.integers(0, len(_INSPECTION_TYPES)))]
        else:
            est = establishments[row_count % num_establishments]
            record = dict(est)
            while True:  # unique (address, date): clean data satisfies c7
                year = 2014 + (row_count // num_establishments) % 4
                month = int(rng.integers(1, 13))
                day = int(rng.integers(1, 28))
                date = f"{year:04d}-{month:02d}-{day:02d}"
                if (record["Address"], date) not in seen_visits:
                    seen_visits.add((record["Address"], date))
                    break
            record["InspectionID"] = str(inspection_id)
            record["InspectionDate"] = date
            record["InspectionType"] = _INSPECTION_TYPES[
                int(rng.integers(0, len(_INSPECTION_TYPES)))]
            record["Results"] = _RESULTS[int(rng.integers(0, len(_RESULTS)))]
            record["Violations"] = f"{int(rng.integers(0, 60))} observed"
            previous_record = record
        rows.append([record[a] for a in _SCHEMA.names])
        inspection_id += 1
        row_count += 1

    clean = Dataset(_SCHEMA, rows, name="food-clean")
    dirty = clean.copy(name="food")
    injector = ErrorInjector(np.random.default_rng(seed + 1))
    error_cells = injector.inject_typos(dirty, _TYPO_ATTRIBUTES,
                                        rate=typo_rate, style="random")
    error_cells |= injector.inject_domain_swaps(dirty, _SWAP_ATTRIBUTES,
                                                rate=swap_rate)
    # Conflicting wrong values inside establishment groups (the same
    # place filed under two different wrong zips across years).
    by_license: dict[str, list[int]] = {}
    for tid in dirty.tuple_ids:
        by_license.setdefault(dirty.value(tid, "License"), []).append(tid)
    groups = list(by_license.values())
    for attr in ("FacilityType", "Results"):
        error_cells |= injector.inject_group_conflicts(dirty, groups, attr,
                                                       group_rate=0.08,
                                                       clean=clean)

    dictionary = ExternalDictionary(
        "us-addresses", ["Ext_Zip", "Ext_City", "Ext_State"],
        geo.zip_city_state_entries(cities))
    matching = [
        MatchingDependency([MatchPredicate("Zip", "Ext_Zip")],
                           "City", "Ext_City", name="md_city"),
        MatchingDependency([MatchPredicate("Zip", "Ext_Zip")],
                           "State", "Ext_State", name="md_state"),
    ]

    constraints = [dc for fd in _FDS for dc in fd.to_denial_constraints()]
    return GeneratedDataset(
        name="food", dirty=dirty, clean=clean, constraints=constraints,
        error_cells=error_cells, dictionaries=[dictionary],
        matching_dependencies=matching, recommended_tau=0.5)
