"""Real-space FFT grids.

The paper fixes the grid by the kinetic-energy cutoff:

    (N_r)_i = sqrt(2 * E_cut) * L_i / pi          (Section 6.1)

e.g. Si_4096 at E_cut = 20 Ha gives 166^3 = 4,574,296 points.  We use the
same rule, rounded up to the next 2/3/5-smooth integer so numpy's pocketfft
stays on fast code paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from repro.pw.cell import UnitCell
from repro.utils.validation import check_positive


def good_fft_size(n: int) -> int:
    """Smallest 5-smooth integer >= ``n`` (and >= 2)."""
    n = max(int(n), 2)
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def grid_shape_for_cutoff(cell: UnitCell, ecut: float) -> tuple[int, int, int]:
    """Grid dimensions from the paper's rule, rounded to FFT-friendly sizes."""
    check_positive(ecut, "ecut")
    gmax = np.sqrt(2.0 * ecut)
    raw = np.ceil(gmax * cell.lengths / np.pi).astype(int)
    return tuple(good_fft_size(int(n)) for n in raw)  # type: ignore[return-value]


@lru_cache(maxsize=16)
def fractional_grid_points(shape: tuple[int, int, int]) -> np.ndarray:
    """``(N_r, 3)`` fractional coordinates of a grid shape, in C (FFT) order.

    Shared read-only per shape, like :func:`repro.pw.gvectors.miller_table`,
    so stored ground states do not each pin a copy.
    """
    n1, n2, n3 = shape
    mesh = np.stack(
        np.meshgrid(
            np.arange(n1) / n1, np.arange(n2) / n2, np.arange(n3) / n3, indexing="ij"
        ),
        axis=-1,
    )
    points = mesh.reshape(-1, 3)
    points.flags.writeable = False
    return points


@dataclass(frozen=True)
class RealSpaceGrid:
    """A uniform real-space grid over a :class:`UnitCell`."""

    cell: UnitCell
    shape: tuple[int, int, int]

    @classmethod
    def from_cutoff(cls, cell: UnitCell, ecut: float) -> "RealSpaceGrid":
        """Build the grid mandated by ``ecut`` via the paper's rule."""
        return cls(cell, grid_shape_for_cutoff(cell, ecut))

    @property
    def n_points(self) -> int:
        """Total number of grid points N_r."""
        n1, n2, n3 = self.shape
        return n1 * n2 * n3

    @property
    def dv(self) -> float:
        """Quadrature weight per point, Omega / N_r."""
        return self.cell.volume / self.n_points

    @property
    def fractional_points(self) -> np.ndarray:
        """``(N_r, 3)`` fractional coordinates in C (row-major) FFT order (shared, read-only)."""
        return fractional_grid_points(tuple(self.shape))

    @cached_property
    def cartesian_points(self) -> np.ndarray:
        """``(N_r, 3)`` Cartesian coordinates in Bohr, same ordering."""
        return self.fractional_points @ self.cell.lattice

    def reshape_to_grid(self, flat: np.ndarray) -> np.ndarray:
        """View a ``(..., N_r)`` array as ``(..., n1, n2, n3)``."""
        return flat.reshape(flat.shape[:-1] + self.shape)

    def flatten_from_grid(self, grid: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`reshape_to_grid`."""
        return grid.reshape(grid.shape[:-3] + (self.n_points,))

    def integrate(self, values: np.ndarray) -> float | complex | np.ndarray:
        """Trapezoid-free periodic quadrature: ``dV * sum`` over the last axis."""
        return values.sum(axis=-1) * self.dv
