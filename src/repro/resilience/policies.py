"""Recovery policies: whole-run retry and graceful degradation.

* **retry** — :class:`RetryPolicy` holds the retry-with-backoff knobs of
  :func:`repro.parallel.spmd_run_resilient`, which re-launches an SPMD run
  whose rank died of a transient fault;
* **backend** — :class:`ResilientFFTEngine` delegates to the preferred
  (scipy) engine and permanently drops to the numpy reference engine the
  moment a transform call fails;
* **algorithm** — K-Means -> QRCP point selection on non-convergence and
  iterative -> dense eigensolver fallback live with their call sites
  (:func:`repro.core.isdf.isdf_decompose` and
  :func:`repro.api.execute_request`), driven by ``ResilienceConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backend.fft_engine import FFTEngine, NumpyFFTEngine, default_fft_engine
from repro.parallel.comm import MessageTimeout
from repro.resilience.faults import InjectedFault
from repro.utils.validation import require

__all__ = ["ResilientFFTEngine", "RetryPolicy"]

#: How a backend transform failure surfaces: a backend bug/limitation
#: (RuntimeError), a shape/plan problem (ValueError), numerical trouble
#: (ArithmeticError covers FloatingPointError) or exhaustion (MemoryError).
#: Anything else — KeyboardInterrupt, injected faults, programming errors —
#: must propagate instead of silently degrading the backend.
_TRANSFORM_FAILURES = (RuntimeError, ValueError, ArithmeticError, MemoryError)


@dataclass(frozen=True)
class RetryPolicy:
    """Retry-with-exponential-backoff parameters.

    ``retry_on`` limits which exceptions are considered transient; by
    default only injected faults and message timeouts are retried, so
    genuine programming errors still fail fast.
    """

    max_retries: int = 3
    backoff: float = 0.01
    backoff_factor: float = 2.0
    retry_on: tuple[type[BaseException], ...] = (InjectedFault, MessageTimeout)

    def __post_init__(self) -> None:
        require(self.max_retries >= 0, "max_retries must be >= 0")
        require(self.backoff >= 0.0, "backoff must be >= 0")
        require(self.backoff_factor >= 1.0, "backoff_factor must be >= 1")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        return self.backoff * self.backoff_factor**attempt


class ResilientFFTEngine(FFTEngine):
    """Delegate to a preferred FFT engine, fall back to numpy on failure.

    The first transform call that raises switches the wrapper permanently
    to the reference :class:`NumpyFFTEngine` (with the real fast path
    matching the primary's capability, so in-flight ``rfftn`` callers keep
    working) and replays the failed call there.
    """

    name = "resilient"

    def __init__(self, primary: FFTEngine | None = None) -> None:
        super().__init__()
        self._primary = primary or default_fft_engine()
        self._fallback = NumpyFFTEngine(use_rfft=self._primary.supports_real)
        self._active = self._primary
        self.degraded = False
        self.supports_real = self._primary.supports_real
        self.workers = self._primary.workers

    def _call(self, method: str, *args):
        try:
            return getattr(self._active, method)(*args)
        except _TRANSFORM_FAILURES:
            if self._active is self._fallback:
                raise
            self._active = self._fallback
            self.degraded = True
            self.workers = self._fallback.workers
            return getattr(self._active, method)(*args)

    def fftn(self, a, axes):
        return self._call("fftn", a, axes)

    def ifftn(self, a, axes):
        return self._call("ifftn", a, axes)

    def rfftn(self, a, axes):
        return self._call("rfftn", a, axes)

    def irfftn(self, a, s, axes):
        return self._call("irfftn", a, s, axes)

    def describe(self) -> str:
        state = "degraded->numpy" if self.degraded else f"primary={self._primary.name}"
        return f"ResilientFFTEngine({state})"
