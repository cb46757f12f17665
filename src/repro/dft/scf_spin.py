"""Collinear spin-polarized SCF (unrestricted LSDA).

Extension beyond the (spin-restricted) paper: two spin channels sharing
the Hartree potential of the total density but each seeing its own
``v_xc^sigma`` from :func:`repro.dft.xc_spin.lsda_potentials`.  Enables
open-shell references (H atom, radicals) and genuine spin physics (the
majority channel binds deeper).

Occupations fill both channels from a common Fermi level (1 electron per
spin-orbital); an initial magnetization bias breaks the up/down symmetry
so magnetic solutions can be found.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.atoms.elements import valence_electron_count
from repro.dft.density import atomic_guess_density
from repro.dft.ewald import ewald_energy
from repro.dft.groundstate import realify_orbitals
from repro.dft.hamiltonian import KohnShamHamiltonian
from repro.dft.hartree import hartree_potential
from repro.dft.mixing import AndersonMixer
from repro.dft.xc_spin import lsda_potentials
from repro.eigen.lobpcg import lobpcg
from repro.pw.basis import PlaneWaveBasis
from repro.pw.cell import UnitCell
from repro.utils.rng import default_rng
from repro.utils.validation import check_positive, require


@dataclass
class SpinGroundState:
    """Converged unrestricted ground state (channels: 0 = up, 1 = down)."""

    basis: PlaneWaveBasis
    energies: np.ndarray  #: (2, n_bands)
    orbitals_real: np.ndarray  #: (2, n_bands, N_r)
    occupations: np.ndarray  #: (2, n_bands), each in [0, 1]
    densities: np.ndarray  #: (2, N_r)
    converged: bool = True
    history: list[dict] = field(default_factory=list)

    @property
    def n_bands(self) -> int:
        return self.energies.shape[1]

    @property
    def total_density(self) -> np.ndarray:
        return self.densities.sum(axis=0)

    @property
    def magnetization_density(self) -> np.ndarray:
        return self.densities[0] - self.densities[1]

    @property
    def total_magnetization(self) -> float:
        """Integrated spin moment in units of mu_B (electrons up - down)."""
        return float(self.magnetization_density.sum() * self.basis.grid.dv)

    @property
    def n_electrons(self) -> float:
        return float(self.occupations.sum())


def _common_fermi_occupations(
    energies_up: np.ndarray,
    energies_down: np.ndarray,
    n_electrons: float,
    width: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Fill both channels (1 e per spin-orbital) from one Fermi level."""
    merged = np.concatenate([energies_up, energies_down])
    if width <= 0.0:
        order = np.argsort(merged, kind="stable")
        n_fill = int(round(n_electrons))
        require(
            abs(n_electrons - n_fill) < 1e-9,
            "fractional electron count needs smearing_width > 0",
        )
        require(n_fill <= merged.size, "not enough spin-orbitals")
        occ = np.zeros(merged.size)
        occ[order[:n_fill]] = 1.0
    else:
        lo = merged.min() - 10 * width - 1.0
        hi = merged.max() + 10 * width + 1.0
        for _ in range(200):
            mu = 0.5 * (lo + hi)
            x = np.clip((merged - mu) / width, -200, 200)
            total = float((1.0 / (1.0 + np.exp(x))).sum())
            if total < n_electrons:
                lo = mu
            else:
                hi = mu
        mu = 0.5 * (lo + hi)
        x = np.clip((merged - mu) / width, -200, 200)
        occ = 1.0 / (1.0 + np.exp(x))
        occ *= n_electrons / occ.sum()
    n_up = energies_up.shape[0]
    return occ[:n_up], occ[n_up:]


def run_scf_spin(
    cell: UnitCell,
    *,
    ecut: float = 10.0,
    n_bands: int | None = None,
    initial_magnetization: float = 1.0,
    tol: float = 1e-6,
    max_iter: int = 80,
    mixing_beta: float = 0.4,
    smearing_width: float = 0.0,
    eig_tol_final: float = 1e-8,
    seed: int | None = None,
    verbose: bool = False,
) -> SpinGroundState:
    """Unrestricted LSDA SCF.

    Parameters
    ----------
    initial_magnetization:
        Electrons moved from the down to the up channel in the starting
        density (breaks symmetry; 0.0 converges to the restricted
        solution for closed-shell systems).
    """
    check_positive(ecut, "ecut")
    n_electrons = valence_electron_count(cell.species)
    if n_bands is None:
        n_bands = max(int(np.ceil(n_electrons / 2.0)) + 4, 4)

    basis = PlaneWaveBasis(cell, ecut)
    require(n_bands <= basis.n_pw, "n_bands exceeds basis size; raise ecut")
    hams = [KohnShamHamiltonian(basis), KohnShamHamiltonian(basis)]
    rng = default_rng(seed)
    coeffs = [basis.random_packed(n_bands, rng) for _ in range(2)]

    guess = atomic_guess_density(basis)
    m0 = min(abs(initial_magnetization), n_electrons) * np.sign(
        initial_magnetization or 1.0
    )
    densities = np.stack(
        [
            guess * (0.5 + 0.5 * m0 / max(n_electrons, 1e-30)),
            guess * (0.5 - 0.5 * m0 / max(n_electrons, 1e-30)),
        ]
    )

    mixers = [AndersonMixer(mixing_beta), AndersonMixer(mixing_beta)]
    energies = np.zeros((2, n_bands))
    occupations = np.zeros((2, n_bands))
    history: list[dict] = []
    converged = False
    residual = np.inf

    def update_potentials(dens: np.ndarray) -> None:
        v_h = hartree_potential(dens.sum(axis=0), basis)
        v_up, v_down = lsda_potentials(dens[0], dens[1])
        for sigma, v_xc in enumerate((v_up, v_down)):
            ham = hams[sigma]
            ham.v_hartree = v_h
            ham.v_xc = v_xc
            ham._v_eff = ham.v_local + v_h + v_xc

    for iteration in range(1, max_iter + 1):
        update_potentials(densities)
        eig_tol = float(np.clip(0.03 * residual, eig_tol_final, 1e-3))
        new_densities = np.empty_like(densities)
        psi_real = [None, None]
        for sigma in range(2):
            result = lobpcg(
                hams[sigma].apply_columns,
                coeffs[sigma].T,
                preconditioner=hams[sigma].preconditioner,
                tol=eig_tol,
                max_iter=100,
            )
            coeffs[sigma] = result.eigenvectors.T
            energies[sigma] = result.eigenvalues
            psi_real[sigma] = basis.to_real(basis.unpack(coeffs[sigma]))

        occupations[0], occupations[1] = _common_fermi_occupations(
            energies[0], energies[1], n_electrons, smearing_width
        )
        for sigma in range(2):
            new_densities[sigma] = np.einsum(
                "b,br->r", occupations[sigma], np.abs(psi_real[sigma]) ** 2
            )

        delta = new_densities - densities
        residual = float(
            np.sqrt((delta * delta).sum() * basis.grid.dv) / max(n_electrons, 1.0)
        )
        mag = float(
            (new_densities[0] - new_densities[1]).sum() * basis.grid.dv
        )
        history.append(
            {"iteration": iteration, "residual": residual, "magnetization": mag}
        )
        if verbose:  # pragma: no cover
            print(f"spin-SCF {iteration:3d}: residual={residual:.3e}, m={mag:+.4f}")
        if residual < tol:
            converged = True
            densities = new_densities
            break
        for sigma in range(2):
            densities[sigma] = mixers[sigma].mix(
                densities[sigma], new_densities[sigma]
            )

    # Final polish per channel.
    update_potentials(densities)
    orbitals = np.empty((2, n_bands, basis.n_r))
    for sigma in range(2):
        result = lobpcg(
            hams[sigma].apply_columns,
            coeffs[sigma].T,
            preconditioner=hams[sigma].preconditioner,
            tol=eig_tol_final,
            max_iter=200,
        )
        coeffs[sigma] = result.eigenvectors.T
        energies[sigma] = result.eigenvalues
        orbitals[sigma] = realify_orbitals(coeffs[sigma], basis)
    occupations[0], occupations[1] = _common_fermi_occupations(
        energies[0], energies[1], n_electrons, smearing_width
    )
    for sigma in range(2):
        densities[sigma] = np.einsum(
            "b,br->r", occupations[sigma], orbitals[sigma] ** 2
        )

    return SpinGroundState(
        basis=basis,
        energies=energies.copy(),
        orbitals_real=orbitals,
        occupations=occupations.copy(),
        densities=densities,
        converged=converged,
        history=history,
    )
