"""Result loading for the :mod:`repro.api` facade.

Calculations run through :class:`~repro.api.request.CalculationRequest`;
this module holds what has no request equivalent: :func:`load_result`,
which reads any saved result file back, and the facade's name for the
ground-state result type.
"""

from __future__ import annotations

import os

from repro.core.driver import LRTDDFTResult
from repro.dft.groundstate import GroundState
from repro.rt.tddft import RTResult
from repro.utils.serialization import SerializationError, load_payload

__all__ = ["SCFResult", "load_result"]

#: The facade's name for the ground-state result object.
SCFResult = GroundState

#: Result classes :func:`load_result` can dispatch to, by class tag.
_RESULT_CLASSES = {
    "GroundState": GroundState,
    "LRTDDFTResult": LRTDDFTResult,
    "RTResult": RTResult,
}


def load_result(path: str | os.PathLike):
    """Load any saved result file, dispatching on its embedded class tag."""
    payload = load_payload(path)
    tag = payload.get("class")
    cls = _RESULT_CLASSES.get(tag)
    if cls is None:
        raise SerializationError(
            f"{path}: unknown result class {tag!r}; "
            f"expected one of {sorted(_RESULT_CLASSES)}"
        )
    return cls.from_dict(payload["data"])
