"""Reciprocal-space (G-vector) machinery.

For an FFT grid of shape ``(n1, n2, n3)`` over a cell with reciprocal
vectors ``b_i``, every grid frequency ``m = (m1, m2, m3)`` (numpy fftfreq
ordering) carries the plane wave ``exp(i G . r)`` with ``G = m1 b1 + m2 b2 +
m3 b3``.  Wavefunctions live on the sphere ``|G|^2 / 2 <= E_cut``; densities
and potentials use the full grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from repro.pw.cell import UnitCell
from repro.pw.grid import RealSpaceGrid


def fft_integer_frequencies(n: int) -> np.ndarray:
    """Integer FFT frequencies ``0, 1, ..., -1`` matching numpy's layout."""
    return np.rint(np.fft.fftfreq(n) * n).astype(np.int64)


@lru_cache(maxsize=16)
def miller_table(shape: tuple[int, int, int]) -> np.ndarray:
    """``(N_r, 3)`` integer Miller indices of a grid shape, in FFT ordering.

    The table depends on the grid shape alone, so every :class:`GVectors`
    of that shape shares one read-only copy: stored ground states do not
    each pin their own.
    """
    n1, n2, n3 = shape
    mesh = np.stack(
        np.meshgrid(
            fft_integer_frequencies(n1),
            fft_integer_frequencies(n2),
            fft_integer_frequencies(n3),
            indexing="ij",
        ),
        axis=-1,
    )
    table = mesh.reshape(-1, 3)
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class GVectors:
    """All G-vectors of an FFT grid plus the cutoff sphere.

    Attributes are flat over the grid in C order, matching
    :meth:`repro.pw.grid.RealSpaceGrid.fractional_points`.
    """

    grid: RealSpaceGrid
    ecut: float

    @property
    def cell(self) -> UnitCell:
        return self.grid.cell

    @property
    def miller(self) -> np.ndarray:
        """``(N_r, 3)`` integer Miller indices in FFT ordering (shared, read-only)."""
        return miller_table(tuple(self.grid.shape))

    @cached_property
    def g(self) -> np.ndarray:
        """``(N_r, 3)`` Cartesian G-vectors in Bohr^-1."""
        return self.miller @ self.cell.reciprocal_lattice

    @cached_property
    def g2(self) -> np.ndarray:
        """``(N_r,)`` squared norms |G|^2."""
        return np.einsum("ij,ij->i", self.g, self.g)

    @cached_property
    def sphere(self) -> np.ndarray:
        """Indices (into the flat grid) of the sphere |G|^2/2 <= E_cut.

        Sorted by |G|^2 then lexicographically by Miller index so the basis
        ordering is deterministic across runs and platforms.
        """
        mask = self.g2 <= 2.0 * self.ecut + 1e-12
        idx = np.flatnonzero(mask)
        m = self.miller[idx]
        order = np.lexsort((m[:, 2], m[:, 1], m[:, 0], np.round(self.g2[idx], 10)))
        return idx[order]

    @property
    def n_pw(self) -> int:
        """Number of plane waves N_pw in the cutoff sphere."""
        return int(self.sphere.size)

    # The sphere restrictions are gathered on each access rather than cached:
    # they are read once per Hamiltonian, and a stored ground state should
    # not pin them.

    @property
    def g2_sphere(self) -> np.ndarray:
        """|G|^2 restricted to the sphere (kinetic-energy diagonal x2)."""
        return self.g2[self.sphere]

    @property
    def g_sphere(self) -> np.ndarray:
        """``(N_pw, 3)`` Cartesian G-vectors of the sphere."""
        return self.g[self.sphere]

    def structure_factor(self, fractional_position: np.ndarray) -> np.ndarray:
        """``exp(-i G . tau)`` over the full grid for one atom at ``tau``."""
        phase = self.miller @ np.asarray(fractional_position, dtype=float)
        return np.exp(-2j * np.pi * phase)

    def structure_factor_sphere(self, fractional_position: np.ndarray) -> np.ndarray:
        """``exp(-i G . tau)`` restricted to the cutoff sphere."""
        m = self.miller[self.sphere]
        phase = m @ np.asarray(fractional_position, dtype=float)
        return np.exp(-2j * np.pi * phase)
