"""Cross-calculation batching: warm-started pipelines over structure sets.

See :func:`repro.batch.run_batch` (run through a ``kind="batch"``
:class:`repro.api.CalculationRequest`) and ``docs/batching.md``.
"""

from repro.batch.engine import run_batch
from repro.batch.results import BatchResult, FrameRecord, FrameResult
from repro.batch.trajectory import frame_fingerprint, perturbed_trajectory
from repro.batch.warm import BatchWarmState, assignment_drift

__all__ = [
    "BatchResult",
    "BatchWarmState",
    "FrameRecord",
    "FrameResult",
    "assignment_drift",
    "frame_fingerprint",
    "perturbed_trajectory",
    "run_batch",
]
