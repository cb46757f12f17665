"""Result loading for the :mod:`repro.api` facade.

:func:`load_result` reads any saved result file back into its class;
:data:`SCFResult` is the facade's name for the ground-state result.
Calculations themselves are described by a
:class:`~repro.api.request.CalculationRequest`::

    from repro import api

    request = api.CalculationRequest(
        kind="scf", structure=cell, scf=api.SCFConfig(ecut=10.0)
    )
    gs = request.compute()                 # synchronous, in-process
    handle = request.submit()              # async, cached, warm-started
"""

from __future__ import annotations

import os

from repro.api.request import install_fft_fallback
from repro.core.driver import LRTDDFTResult
from repro.dft.groundstate import GroundState
from repro.rt.tddft import RTResult
from repro.utils.deprecation import reset_deprecation_warnings
from repro.utils.serialization import SerializationError, load_payload

__all__ = [
    "SCFResult",
    "install_fft_fallback",
    "load_result",
    "reset_deprecation_warnings",
]

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
