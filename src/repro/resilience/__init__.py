"""Resilience subsystem: checkpoint/restart, fault injection, recovery policies.

The production context of the paper (PWDFT on Cori at 12,288 cores)
assumes long-running jobs that survive node loss and restart
mid-iteration.  This package supplies the three ingredients for the
reproduction:

* :mod:`repro.resilience.checkpoint` — versioned on-disk snapshots for the
  three iterative loops (SCF, LOBPCG, the ISDF pipeline) plus real-time
  propagation, built on :mod:`repro.utils.serialization`;
* :mod:`repro.resilience.faults` — a fault-injection harness wired into
  the SPMD communicator and the checkpointing loops: kill a rank at a
  configured collective, or crash a loop at a configured step;
* :mod:`repro.resilience.policies` — whole-run retry-with-backoff and
  graceful degradation (scipy->numpy FFT, K-Means->QRCP selection,
  iterative->dense eigensolver).
"""

from repro.resilience.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointError,
    CheckpointManager,
    LoopCheckpointer,
)
from repro.resilience.events import (
    DegradationEvent,
    ResilienceLog,
    resilience_log,
)
from repro.resilience.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    InjectedRankFailure,
)
from repro.resilience.policies import (
    ResilientFFTEngine,
    RetryPolicy,
)

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointError",
    "CheckpointManager",
    "DegradationEvent",
    "LoopCheckpointer",
    "FAULT_KINDS",
    "ResilienceLog",
    "resilience_log",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "InjectedRankFailure",
    "ResilientFFTEngine",
    "RetryPolicy",
]
