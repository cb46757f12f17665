"""The ground-state container handed from KS-DFT to LR-TDDFT.

LR-TDDFT (Algorithm 1 of the paper) consumes exactly three things from the
ground state: orbital energies, occupations, and *real-valued* real-space
orbitals.  At the Gamma point of a real potential the KS orbitals can always
be chosen real; the SCF solves for them directly as real vectors in the
packed cos/sin basis, and :func:`realify_orbitals` maps those to the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.pw.basis import PlaneWaveBasis
from repro.pw.cell import UnitCell
from repro.utils.serialization import SerializableResult
from repro.utils.validation import require


def realify_orbitals(packed: np.ndarray, basis: PlaneWaveBasis) -> np.ndarray:
    """Real-space orbitals of real packed Gamma-point bands.

    Packed bands (:meth:`repro.pw.basis.PlaneWaveBasis.pack`) are already
    real H-eigenvectors, so this is the transform plus a sign convention:
    each orbital's largest-magnitude grid value is positive.

    Parameters
    ----------
    packed:
        ``(n_bands, N_pw)`` real packed coefficients (rows = bands).

    Returns
    -------
    ``(n_bands, N_r)`` float64 orbitals, orthonormal under the grid metric.
    """
    psi = np.ascontiguousarray(basis.to_real(basis.unpack(packed)).real)
    peak = np.abs(psi).argmax(axis=1)
    psi *= np.sign(psi[np.arange(psi.shape[0]), peak])[:, None]
    return psi


@dataclass
class GroundState(SerializableResult):
    """Converged (or synthetic) ground-state data.

    Attributes
    ----------
    basis:
        The plane-wave basis the orbitals live on.
    energies:
        ``(n_bands,)`` KS eigenvalues, ascending, in Hartree.
    orbitals_real:
        ``(n_bands, N_r)`` real orbitals, ``int |psi|^2 dr = 1``.
    occupations:
        ``(n_bands,)`` occupation numbers.
    density:
        ``(N_r,)`` electron density.
    total_energy:
        Total energy (Hartree); carries the usual G=0 convention constant.
    converged:
        SCF convergence flag (synthetic states set it True by construction).
    history:
        Per-SCF-iteration diagnostics.
    """

    basis: PlaneWaveBasis
    energies: np.ndarray
    orbitals_real: np.ndarray
    occupations: np.ndarray
    density: np.ndarray
    total_energy: float = 0.0
    converged: bool = True
    history: list[dict] = field(default_factory=list)

    def __post_init__(self) -> None:
        nb = self.energies.shape[0]
        require(
            self.orbitals_real.shape == (nb, self.basis.n_r),
            f"orbitals must be ({nb}, {self.basis.n_r}), "
            f"got {self.orbitals_real.shape}",
        )
        require(
            self.occupations.shape == (nb,),
            f"occupations must be ({nb},), got {self.occupations.shape}",
        )

    @property
    def n_bands(self) -> int:
        return self.energies.shape[0]

    @property
    def n_electrons(self) -> float:
        return float(self.occupations.sum())

    @property
    def n_occupied(self) -> int:
        """Number of (essentially) filled bands."""
        return int((self.occupations > 1.0).sum())

    def homo_lumo_gap(self) -> float:
        """KS gap between highest occupied and lowest empty computed band."""
        n_occ = self.n_occupied
        require(0 < n_occ < self.n_bands, "need both occupied and empty bands")
        return float(self.energies[n_occ] - self.energies[n_occ - 1])

    def select_transition_space(
        self, n_valence: int | None = None, n_conduction: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Split into the (psi_v, eps_v, psi_c, eps_c) blocks LR-TDDFT uses.

        Defaults: all occupied bands as valence, all computed empty bands as
        conduction.  Explicit ``n_valence`` takes the *topmost* occupied
        bands (the ones that matter for low excitations).
        """
        n_occ = self.n_occupied
        require(n_occ >= 1, "no occupied bands")
        require(self.n_bands > n_occ, "no conduction bands were computed")
        nv = n_occ if n_valence is None else min(n_valence, n_occ)
        nc = (
            self.n_bands - n_occ
            if n_conduction is None
            else min(n_conduction, self.n_bands - n_occ)
        )
        v_slice = slice(n_occ - nv, n_occ)
        c_slice = slice(n_occ, n_occ + nc)
        return (
            self.orbitals_real[v_slice],
            self.energies[v_slice],
            self.orbitals_real[c_slice],
            self.energies[c_slice],
        )

    # -- serialization (see repro.utils.serialization) ----------------------

    def to_dict(self) -> dict:
        """Payload dict: the cell geometry + cutoff rebuild the basis."""
        cell = self.basis.cell
        return {
            "cell": {
                "lattice": np.asarray(cell.lattice, dtype=float),
                "species": list(cell.species),
                "fractional_positions": np.asarray(
                    cell.fractional_positions, dtype=float
                ),
            },
            "ecut": float(self.basis.ecut),
            "energies": self.energies,
            "orbitals_real": self.orbitals_real,
            "occupations": self.occupations,
            "density": self.density,
            "total_energy": float(self.total_energy),
            "converged": bool(self.converged),
            "history": self.history,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GroundState":
        cell_data = data["cell"]
        cell = UnitCell(
            lattice=np.array(cell_data["lattice"], dtype=float),
            species=tuple(cell_data["species"]),
            fractional_positions=np.array(
                cell_data["fractional_positions"], dtype=float
            ),
        )
        basis = PlaneWaveBasis(cell, float(data["ecut"]))
        return cls(
            basis=basis,
            energies=np.array(data["energies"]),
            orbitals_real=np.array(data["orbitals_real"]),
            occupations=np.array(data["occupations"]),
            density=np.array(data["density"]),
            total_energy=float(data["total_energy"]),
            converged=bool(data["converged"]),
            history=[dict(h) for h in data.get("history") or []],
        )
