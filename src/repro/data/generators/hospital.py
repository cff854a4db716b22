"""Hospital: the classic data-cleaning benchmark (1,000 × 19, ~5 % typos).

Signature reproduced from the paper (Section 6.1): a small dataset with
heavy duplication — each hospital's identifying attributes repeat across
its many quality-measure rows — and errors that are single-character
``'x'`` typos on ~5 % of cells.  Nine functional dependencies (compiled
to denial constraints) tie the duplicated attributes together; the
duplication is what lets repair methods recover the clean value.
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

_CONDITIONS = [
    "Heart Attack", "Heart Failure", "Pneumonia", "Surgical Infection",
    "Emergency Care",
]

_HOSPITAL_TYPES = ["Acute Care Hospitals", "Critical Access Hospitals"]
_OWNERS = [
    "Government - State", "Government - Local", "Proprietary",
    "Voluntary non-profit - Private", "Voluntary non-profit - Church",
]

_SCHEMA = Schema([
    Attribute("ProviderNumber"),
    Attribute("HospitalName"),
    Attribute("Address1"),
    Attribute("City"),
    Attribute("State"),
    Attribute("ZipCode"),
    Attribute("CountyName"),
    Attribute("PhoneNumber"),
    Attribute("HospitalType"),
    Attribute("HospitalOwner"),
    Attribute("EmergencyService"),
    Attribute("Condition"),
    Attribute("MeasureCode"),
    Attribute("MeasureName"),
    Attribute("Score"),
    Attribute("Sample"),
    Attribute("StateAvg"),
    Attribute("HospitalId"),
    Attribute("Region"),
])

#: The nine integrity constraints (Table 2: Hospital has 9 DCs).
_FDS = [
    FunctionalDependency(["ZipCode"], ["City"]),
    FunctionalDependency(["ZipCode"], ["State"]),
    FunctionalDependency(["PhoneNumber"], ["ZipCode"]),
    FunctionalDependency(["MeasureCode"], ["MeasureName"]),
    FunctionalDependency(["MeasureCode"], ["Condition"]),
    FunctionalDependency(["ProviderNumber"], ["HospitalName"]),
    FunctionalDependency(["HospitalName"], ["PhoneNumber"]),
    FunctionalDependency(["HospitalName"], ["ZipCode"]),
    FunctionalDependency(["City"], ["CountyName"]),
]

#: Attributes corrupted by the benchmark's typo process.
_ERROR_ATTRIBUTES = [
    "HospitalName", "City", "State", "ZipCode", "CountyName",
    "PhoneNumber", "Condition", "MeasureCode", "MeasureName",
]


def _measures(count: int = 24) -> list[dict[str, str]]:
    out = []
    for i in range(count):
        condition = _CONDITIONS[i % len(_CONDITIONS)]
        code = f"{condition.split()[0][:2].upper()}-{i + 1}"
        name = f"{condition} measure {i + 1}"
        out.append({"MeasureCode": code, "MeasureName": name,
                    "Condition": condition})
    return out


def generate_hospital(num_rows: int | None = None,
                      error_rate: float = 0.05,
                      seed: int = 7) -> GeneratedDataset:
    """Generate the Hospital benchmark analogue.

    Parameters
    ----------
    num_rows:
        Total rows; default 1,000 (Table 2) scaled by ``REPRO_SCALE``.
    error_rate:
        Per-cell typo probability on the constrained attributes (~5 %).
    seed:
        Generator seed; the dataset is fully deterministic given
        ``(num_rows, error_rate, seed)``.
    """
    rows_wanted = num_rows if num_rows is not None else scaled(1000)
    rng = np.random.default_rng(seed)
    cities = geo.build_cities()
    measures = _measures()

    num_hospitals = max(4, rows_wanted // len(measures) + 1)
    addresses = geo.address_pool(rng, num_hospitals)
    hospitals = []
    for h in range(num_hospitals):
        city = cities[int(rng.integers(0, len(cities)))]
        zipcode = city.zips[int(rng.integers(0, len(city.zips)))]
        hospitals.append({
            "ProviderNumber": f"{10000 + h}",
            "HospitalName": f"{city.name.upper()} MEDICAL CENTER {h}",
            "Address1": addresses[h],
            "City": city.name,
            "State": city.state,
            "ZipCode": zipcode,
            "CountyName": city.county,
            "PhoneNumber": f"{3000000000 + h * 1111}",
            "HospitalType": _HOSPITAL_TYPES[h % len(_HOSPITAL_TYPES)],
            "HospitalOwner": _OWNERS[h % len(_OWNERS)],
            "EmergencyService": "Yes" if h % 3 else "No",
            "HospitalId": f"H{h:04d}",
            "Region": f"Region-{h % 8}",
        })

    rows = []
    row_count = 0
    for h, hospital in enumerate(hospitals):
        for m, measure in enumerate(measures):
            if row_count >= rows_wanted:
                break
            record = dict(hospital)
            record.update(measure)
            # Scores and sample sizes repeat across hospitals in the real
            # benchmark (they are binned percentages/counts).
            record["Score"] = f"{int(rng.integers(8, 20)) * 5}%"
            record["Sample"] = f"{int(rng.integers(1, 9)) * 50} patients"
            record["StateAvg"] = f"{record['State']}_{measure['MeasureCode']}"
            rows.append([record[a] for a in _SCHEMA.names])
            row_count += 1

    clean = Dataset(_SCHEMA, rows, name="hospital-clean")
    dirty = clean.copy(name="hospital")
    injector = ErrorInjector(np.random.default_rng(seed + 1))
    error_cells = injector.inject_typos(dirty, _ERROR_ATTRIBUTES,
                                        rate=error_rate, style="x")

    dictionary = ExternalDictionary(
        "us-addresses", ["Ext_Zip", "Ext_City", "Ext_State"],
        geo.zip_city_state_entries(cities))
    matching = [
        MatchingDependency([MatchPredicate("ZipCode", "Ext_Zip")],
                           "City", "Ext_City", name="md_city"),
        MatchingDependency([MatchPredicate("ZipCode", "Ext_Zip")],
                           "State", "Ext_State", name="md_state"),
    ]

    constraints = [dc for fd in _FDS for dc in fd.to_denial_constraints()]
    return GeneratedDataset(
        name="hospital", dirty=dirty, clean=clean, constraints=constraints,
        error_cells=error_cells, dictionaries=[dictionary],
        matching_dependencies=matching, recommended_tau=0.5)
