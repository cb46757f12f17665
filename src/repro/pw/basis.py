"""The plane-wave basis: cutoff sphere + transforms for orbitals.

Orbital convention: a band is a coefficient vector ``c`` of length ``N_pw``
over the cutoff sphere with

    psi(r) = (1 / sqrt(Omega)) * sum_G c_G exp(i G . r),

so ``sum_G |c_G|^2 = 1  <=>  integral |psi|^2 dr = 1``.  Real-space orbitals
returned by :meth:`PlaneWaveBasis.to_real` therefore carry the physical
``1/sqrt(Bohr^3)`` units the LR-TDDFT pair products expect.

At the Gamma point a real orbital has ``c_{-G} = c_G^*``, so it is fully
described by ``N_pw`` real numbers.  :meth:`PlaneWaveBasis.pack` maps it to
the cos/sin basis of the inversion-symmetric sphere,

    [c_0,  (c_G + c_{-G}) / sqrt(2),  -i (c_G - c_{-G}) / sqrt(2)],

one real coordinate per self-conjugate point (``G = 0``) and one cos and
one sin coordinate per ``(G, -G)`` pair.  The map is unitary, and the
Kohn-Sham Hamiltonian is real-symmetric in it, so the SCF band solve runs
in float64 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.pw.cell import UnitCell
from repro.pw.fft import FourierGrid
from repro.pw.grid import RealSpaceGrid
from repro.pw.gvectors import GVectors
from repro.utils.hot import array_contract
from repro.utils.validation import check_positive, require

_SQRT_HALF = np.sqrt(0.5)


@dataclass(frozen=True)
class PlaneWaveBasis:
    """Everything needed to work in a plane-wave basis at the Gamma point."""

    cell: UnitCell
    ecut: float
    grid: RealSpaceGrid = field(init=False)
    gvectors: GVectors = field(init=False)
    fft: FourierGrid = field(init=False)

    def __post_init__(self) -> None:
        check_positive(self.ecut, "ecut")
        grid = RealSpaceGrid.from_cutoff(self.cell, self.ecut)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "gvectors", GVectors(grid, self.ecut))
        object.__setattr__(self, "fft", FourierGrid(grid))

    # -- sizes ------------------------------------------------------------

    @property
    def n_pw(self) -> int:
        """Number of plane waves in the cutoff sphere."""
        return self.gvectors.n_pw

    @property
    def n_r(self) -> int:
        """Number of real-space grid points N_r."""
        return self.grid.n_points

    @property
    def volume(self) -> float:
        return self.cell.volume

    @cached_property
    def kinetic_diagonal(self) -> np.ndarray:
        """``|G|^2 / 2`` over the sphere — the kinetic operator diagonal."""
        return 0.5 * self.gvectors.g2_sphere

    # -- transforms -------------------------------------------------------

    def to_real(self, coeffs: np.ndarray) -> np.ndarray:
        """Sphere coefficients ``(..., N_pw)`` -> real-space ``(..., N_r)``.

        The zero-padded full-spectrum staging block is drawn from the FFT
        engine's scratch pool, so the SCF/propagator inner loops reuse one
        buffer instead of allocating ``O(n_bands N_r)`` per application.
        """
        coeffs = np.asarray(coeffs)
        full = self.fft.fft_engine.scratch(
            coeffs.shape[:-1] + (self.n_r,), complex
        )
        full.fill(0)
        full[..., self.gvectors.sphere] = coeffs
        out = self.fft.backward(full)
        out /= np.sqrt(self.volume)
        return out

    def to_recip(self, psi_real: np.ndarray) -> np.ndarray:
        """Real-space ``(..., N_r)`` -> sphere coefficients ``(..., N_pw)``.

        This is a projection: grid content outside the sphere is discarded
        (exactly what applying the cutoff means).
        """
        full = self.fft.forward(np.asarray(psi_real, dtype=complex))
        return full[..., self.gvectors.sphere] * np.sqrt(self.volume)

    # -- the real packed basis ---------------------------------------------

    @cached_property
    def packing(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sphere positions ``(self_conjugate, plus, minus)`` of the packed basis.

        ``minus[j]`` is the sphere position of ``-G`` for ``G`` at
        ``plus[j]``; ``self_conjugate`` holds the points equal to their own
        inverse on the grid (``G = 0``, and Nyquist points).  Packed
        coordinates are ordered ``[self_conjugate, cos pairs, sin pairs]``.
        """
        gvec = self.gvectors
        shape = np.asarray(self.grid.shape)
        inverse = (-gvec.miller[gvec.sphere]) % shape
        flat_inverse = np.ravel_multi_index(tuple(inverse.T), self.grid.shape)
        position = np.full(self.n_r, -1, dtype=np.int64)
        position[gvec.sphere] = np.arange(self.n_pw)
        partner = position[flat_inverse]
        require(
            bool((partner >= 0).all()),
            "cutoff sphere is not inversion-symmetric on this grid",
        )
        own = np.arange(self.n_pw)
        self_conjugate = np.flatnonzero(partner == own)
        plus = np.flatnonzero(partner > own)
        return self_conjugate, plus, partner[plus]

    @cached_property
    def packed_kinetic_diagonal(self) -> np.ndarray:
        """``|G|^2 / 2`` in packed order (a pair's cos and sin share it)."""
        self_conjugate, plus, _ = self.packing
        return self.kinetic_diagonal[np.concatenate([self_conjugate, plus, plus])]

    @array_contract(
        shapes={"coeffs": ("...", "n_pw")},
        dtypes={"coeffs": ("float64", "complex128")},
        returns={"dtype": "float64"},
    )
    def pack(self, coeffs: np.ndarray) -> np.ndarray:
        """Sphere coefficients ``(..., N_pw)`` -> real packed ``(..., N_pw)``.

        Exact for real orbitals (``c_{-G} = c_G^*``).  For any other block it
        packs the real part of the real-space function, which is what
        rounding leaves behind after a real-space multiply.
        """
        self_conjugate, plus, minus = self.packing
        n_s, n_pair = self_conjugate.size, plus.size
        c_plus = coeffs[..., plus]
        c_minus = coeffs[..., minus]
        out = np.empty(coeffs.shape)  # repro-lint: disable=no-alloc-in-hot -- the returned block is the kernel's one output buffer
        out[..., :n_s] = coeffs[..., self_conjugate].real
        np.add(c_plus.real, c_minus.real, out=out[..., n_s : n_s + n_pair])
        np.subtract(c_plus.imag, c_minus.imag, out=out[..., n_s + n_pair :])
        out[..., n_s:] *= _SQRT_HALF
        return out

    @array_contract(
        shapes={"packed": ("...", "n_pw")},
        dtypes={"packed": "float64"},
        returns={"dtype": "complex128"},
    )
    def unpack(self, packed: np.ndarray) -> np.ndarray:
        """Real packed ``(..., N_pw)`` -> sphere coefficients ``(..., N_pw)``.

        The inverse of :meth:`pack`: the result satisfies
        ``c_{-G} = c_G^*``, i.e. it is a real orbital.
        """
        self_conjugate, plus, minus = self.packing
        n_s, n_pair = self_conjugate.size, plus.size
        out = np.empty(packed.shape, dtype=complex)  # repro-lint: disable=no-alloc-in-hot -- the returned block is the kernel's one output buffer
        out[..., self_conjugate] = packed[..., :n_s]
        cos = packed[..., n_s : n_s + n_pair] * _SQRT_HALF
        sin = packed[..., n_s + n_pair :] * _SQRT_HALF
        out[..., plus] = cos + 1j * sin
        out[..., minus] = cos - 1j * sin
        return out

    def random_coefficients(
        self, n_bands: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Random normalized complex sphere coefficients ``(n_bands, N_pw)``.

        Damped by a soft kinetic envelope so the guess is smooth; used as
        the start of band solves away from Gamma, where orbitals are complex.
        """
        coeffs = rng.standard_normal((n_bands, self.n_pw)) + 1j * rng.standard_normal(
            (n_bands, self.n_pw)
        )
        envelope = 1.0 / (1.0 + self.kinetic_diagonal)
        coeffs *= envelope
        norms = np.linalg.norm(coeffs, axis=1, keepdims=True)
        return coeffs / norms

    def random_packed(self, n_bands: int, rng: np.random.Generator) -> np.ndarray:
        """Random normalized real packed coefficients ``(n_bands, N_pw)``.

        The Gamma-point SCF start.  Damped by a soft kinetic envelope so the
        initial guess is smooth — this materially reduces LOBPCG iterations
        in the first SCF cycle.
        """
        coeffs = rng.standard_normal((n_bands, self.n_pw))
        coeffs /= 1.0 + self.packed_kinetic_diagonal
        coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
        return coeffs

    def describe(self) -> str:
        n1, n2, n3 = self.grid.shape
        return (
            f"PlaneWaveBasis(Ecut={self.ecut:g} Ha, grid={n1}x{n2}x{n3}"
            f" (N_r={self.n_r}), N_pw={self.n_pw})"
        )
