"""Thread budget: pinned through the environment, verified through ctypes.

:func:`pin` must run before numpy is imported anywhere in the process: both
OpenBLAS builds (numpy's and scipy's) read ``OPENBLAS_NUM_THREADS`` once, at
load time, and ``repro``'s scipy FFT engine reads ``REPRO_FFT_WORKERS`` when
it is built (without it, it uses ``os.cpu_count()`` workers).

:func:`live` reads the thread counts back from the loaded libraries, so a
run records what the process actually uses, not what it asked for.
"""

from __future__ import annotations

import ctypes
import glob
import os

#: Every variable that sizes a thread pool the program can reach.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "REPRO_FFT_WORKERS",
)

#: ``(package, exported getter)`` of each bundled OpenBLAS.
_OPENBLAS_GETTERS = (
    ("numpy", "scipy_openblas_get_num_threads64_"),
    ("scipy", "scipy_openblas_get_num_threads"),
)


class ThreadBudgetError(RuntimeError):
    """The live thread counts differ from the requested budget."""


def pin(threads: int) -> None:
    """Set every thread-pool variable to ``threads``; call before numpy loads."""
    import sys

    if "numpy" in sys.modules:
        raise ThreadBudgetError("numpy was imported before the thread budget was set")
    for name in THREAD_VARS:
        os.environ[name] = str(threads)


def _openblas_threads(package: str, symbol: str) -> int:
    module = __import__(package)
    libs = os.path.join(
        os.path.dirname(os.path.dirname(module.__file__)), f"{package}.libs"
    )
    found = sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so")))
    if not found:
        raise ThreadBudgetError(f"no bundled OpenBLAS under {libs}")
    getter = getattr(ctypes.CDLL(found[0]), symbol)
    getter.restype = ctypes.c_int
    return int(getter())


def live() -> dict:
    """Thread counts the loaded libraries report right now."""
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

    from repro.backend.fft_engine import default_fft_engine

    counts = {
        f"{package}_openblas": _openblas_threads(package, symbol)
        for package, symbol in _OPENBLAS_GETTERS
    }
    counts["repro_fft_workers"] = int(getattr(default_fft_engine(), "workers", 1))
    return counts


def verify(threads: int) -> dict:
    """Return :func:`live` counts; raise if any differs from ``threads``."""
    counts = live()
    wrong = {name: value for name, value in counts.items() if value != threads}
    if wrong:
        raise ThreadBudgetError(
            f"live thread counts {wrong} differ from the budget of {threads}"
        )
    return counts
