"""Competing data-repairing methods from the paper's evaluation (Table 3).

* :class:`HolisticRepair` — Chu et al. [12]: denial-constraint driven
  repairs under the minimality principle, via the conflict hypergraph and
  an approximate vertex cover.
* :class:`KataraRepair` — Chu et al. [13]: knowledge-base powered
  cleaning; repairs only cells whose tuples confidently match a dictionary
  entry (high precision, coverage-limited recall).
* :class:`ScareRepair` — Yakout et al. [39]: maximal-likelihood value
  modification with bounded changes; no integrity constraints.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.baselines.base import MethodResult, MethodTimeout, RepairMethod
    from repro.baselines.holistic import HolisticRepair
    from repro.baselines.katara import KataraRepair
    from repro.baselines.scare import ScareRepair

__all__ = [
    "MethodResult",
    "MethodTimeout",
    "RepairMethod",
    "HolisticRepair",
    "KataraRepair",
    "ScareRepair",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.baselines.base": ("MethodResult", "MethodTimeout", "RepairMethod"),
        "repro.baselines.holistic": ("HolisticRepair",),
        "repro.baselines.katara": ("KataraRepair",),
        "repro.baselines.scare": ("ScareRepair",),
    },
)
