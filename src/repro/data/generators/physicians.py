"""Physicians: Medicare "Physician Compare" (2,071,849 × 18 in the paper).

Signature reproduced from Section 6.1: professionals grouped under
organizations (strong duplication of organization attributes), with
*systematic* errors — the same misspelled city ("Scaramento, CA")
repeated across hundreds of entries, plus zip-to-state inconsistencies.
Zip codes use the ZIP+4 format while the external dictionary holds plain
5-digit zips: the format mismatch that made KATARA produce zero repairs
on this dataset (Table 3, footnote #).
"""

from __future__ import annotations

import numpy as np

from repro.constraints.fd import FunctionalDependency
from repro.constraints.matching import MatchingDependency, MatchPredicate
from repro.data.base import GeneratedDataset, scaled
from repro.data.errors import ErrorInjector
from repro.data import geo
from repro.dataset.dataset import Cell, Dataset
from repro.dataset.schema import Attribute, Schema
from repro.external.dictionary import ExternalDictionary

_LAST_NAMES = ["SMITH", "JOHNSON", "WILLIAMS", "BROWN", "JONES", "GARCIA",
               "MILLER", "DAVIS", "RODRIGUEZ", "MARTINEZ", "WILSON", "LOPEZ"]
_FIRST_NAMES = ["JAMES", "MARY", "ROBERT", "PATRICIA", "JOHN", "JENNIFER",
                "MICHAEL", "LINDA", "DAVID", "ELIZABETH", "SARAH", "DANIEL"]
_CREDENTIALS = ["MD", "DO", "NP", "PA", "DPM"]
_SPECIALTIES = ["INTERNAL MEDICINE", "FAMILY PRACTICE", "CARDIOLOGY",
                "DERMATOLOGY", "ORTHOPEDIC SURGERY", "PEDIATRIC MEDICINE",
                "NEUROLOGY", "GENERAL SURGERY"]
_SCHOOLS = ["STATE UNIVERSITY SOM", "CITY MEDICAL COLLEGE",
            "NORTHERN HEALTH SCIENCES", "ATLANTIC SCHOOL OF MEDICINE"]

_SCHEMA = Schema([
    Attribute("NPI", role="id"),
    Attribute("PACId"),
    Attribute("LastName"),
    Attribute("FirstName"),
    Attribute("MiddleName"),
    Attribute("Gender"),
    Attribute("Credential"),
    Attribute("MedicalSchool"),
    Attribute("GraduationYear"),
    Attribute("PrimarySpecialty"),
    Attribute("SecondarySpecialty"),
    Attribute("OrganizationLegalName"),
    Attribute("GroupPracticePACId"),
    Attribute("NumberGroupMembers"),
    Attribute("Address"),
    Attribute("City"),
    Attribute("State"),
    Attribute("Zip"),
])

#: Nine denial constraints (Table 2).
_FDS = [
    FunctionalDependency(["Zip"], ["City"]),
    FunctionalDependency(["Zip"], ["State"]),
    FunctionalDependency(["PACId"], ["LastName"]),
    FunctionalDependency(["PACId"], ["FirstName"]),
    FunctionalDependency(["GroupPracticePACId"], ["OrganizationLegalName"]),
    FunctionalDependency(["GroupPracticePACId"], ["NumberGroupMembers"]),
    FunctionalDependency(["GroupPracticePACId"], ["Address"]),
    FunctionalDependency(["GroupPracticePACId"], ["City"]),
    FunctionalDependency(["OrganizationLegalName"], ["GroupPracticePACId"]),
]


def generate_physicians(num_rows: int | None = None,
                        num_misspelled_cities: int = 6,
                        systematic_fraction: float = 0.25,
                        state_error_fraction: float = 0.25,
                        typo_rate: float = 0.002,
                        seed: int = 31) -> GeneratedDataset:
    """Generate the Physicians analogue (default ≈ 8,000 rows at scale 1).

    ``num_misspelled_cities`` city names receive a shared misspelling
    applied to ``systematic_fraction`` of their organizations' rows — the
    paper's systematic-error pattern.  A small rate of random typos on
    names adds background noise.
    """
    rows_wanted = num_rows if num_rows is not None else scaled(8000)
    rng = np.random.default_rng(seed)
    cities = geo.build_cities()

    num_orgs = max(4, rows_wanted // 40)
    addresses = geo.address_pool(rng, num_orgs)
    organizations = []
    for o in range(num_orgs):
        city = cities[int(rng.integers(0, len(cities)))]
        zipcode = city.zips[int(rng.integers(0, len(city.zips)))]
        organizations.append({
            "OrganizationLegalName": f"{city.name.upper()} HEALTH GROUP {o} LLC",
            "GroupPracticePACId": f"{4000000000 + o}",
            "NumberGroupMembers": str(int(rng.integers(5, 400))),
            "Address": addresses[o].upper(),
            "City": city.name,
            "State": city.state,
            "Zip": f"{zipcode}-{int(rng.integers(1000, 9999))}",  # ZIP+4
        })

    rows = []
    for i in range(rows_wanted):
        org = organizations[i % num_orgs]
        record = dict(org)
        record.update({
            "NPI": f"{1000000000 + i}",
            "PACId": f"{8000000000 + i}",
            "LastName": _LAST_NAMES[int(rng.integers(0, len(_LAST_NAMES)))],
            "FirstName": _FIRST_NAMES[int(rng.integers(0, len(_FIRST_NAMES)))],
            "MiddleName": chr(ord("A") + int(rng.integers(0, 26))),
            "Gender": "F" if rng.random() < 0.5 else "M",
            "Credential": _CREDENTIALS[int(rng.integers(0, len(_CREDENTIALS)))],
            "MedicalSchool": _SCHOOLS[int(rng.integers(0, len(_SCHOOLS)))],
            "GraduationYear": str(int(rng.integers(1970, 2015))),
            "PrimarySpecialty": _SPECIALTIES[
                int(rng.integers(0, len(_SPECIALTIES)))],
            "SecondarySpecialty": _SPECIALTIES[
                int(rng.integers(0, len(_SPECIALTIES)))],
        })
        rows.append([record[a] for a in _SCHEMA.names])

    clean = Dataset(_SCHEMA, rows, name="physicians-clean")
    dirty = clean.copy(name="physicians")
    injector = ErrorInjector(np.random.default_rng(seed + 1))

    # Systematic city misspellings: a shared wrong spelling applied to
    # many rows ("Sacramento, CA" → "Scaramento, CA" × 321).  Half the
    # affected cities get TWO distinct systematic misspellings (separate
    # transcription vendors), which puts contradictory wrong values into
    # the same organisation's records.
    used_cities = sorted({dirty.value(t, "City") for t in dirty.tuple_ids})
    picked = [used_cities[int(i)] for i in
              rng.choice(len(used_cities),
                         size=min(num_misspelled_cities, len(used_cities)),
                         replace=False)]
    first_map = {city: injector.misspell(city) for city in picked}
    error_cells = injector.inject_systematic(
        dirty, "City", first_map, fraction=systematic_fraction / 2)
    second_map = {}
    for city in picked[::2]:  # every other city gets a second misspelling
        alt = injector.misspell(city)
        while alt == first_map[city]:
            alt = injector.misspell(city)
        second_map[city] = alt
    error_cells |= injector.inject_systematic(
        dirty, "City", second_map, fraction=systematic_fraction / 2)

    # Systematic zip→state inconsistencies: a few zips report a wrong state.
    zips = sorted({dirty.value(t, "Zip") for t in dirty.tuple_ids})
    wrong_state_zips = [zips[int(i)] for i in
                        rng.choice(len(zips), size=min(4, len(zips)),
                                   replace=False)]
    state_pool = sorted({c.state for c in cities})
    for z in wrong_state_zips:
        wrong = state_pool[int(rng.integers(0, len(state_pool)))]
        for tid in dirty.tuple_ids:
            if dirty.value(tid, "Zip") == z and rng.random() < state_error_fraction:
                if dirty.value(tid, "State") != wrong:
                    dirty.set_value(tid, "State", wrong)
                    error_cells.add(Cell(tid, "State"))

    # Background random typos on name fields.
    error_cells |= injector.inject_typos(dirty, ["LastName", "FirstName"],
                                         rate=typo_rate, style="random")

    # External dictionary with PLAIN 5-digit zips: the format mismatch
    # that defeats KATARA on this dataset.
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
        name="physicians", dirty=dirty, clean=clean, constraints=constraints,
        error_cells=error_cells, dictionaries=[dictionary],
        matching_dependencies=matching, recommended_tau=0.7)
