"""Tests for the GroundState container and orbital realification."""

import numpy as np
import pytest

from repro.dft.groundstate import GroundState
from repro.synthetic import synthetic_ground_state
from repro.atoms import silicon_primitive_cell


class TestGroundState:
    def test_shape_validation(self):
        gs = synthetic_ground_state(silicon_primitive_cell(), ecut=5.0, seed=0)
        with pytest.raises(ValueError):
            GroundState(
                basis=gs.basis,
                energies=gs.energies,
                orbitals_real=gs.orbitals_real[:, :-1],
                occupations=gs.occupations,
                density=gs.density,
            )

    def test_n_electrons(self, si2_ground_state):
        assert si2_ground_state.n_electrons == pytest.approx(8.0)

    def test_select_transition_space_defaults(self, si2_ground_state):
        psi_v, eps_v, psi_c, eps_c = si2_ground_state.select_transition_space()
        assert psi_v.shape[0] == 4
        assert psi_c.shape[0] == si2_ground_state.n_bands - 4
        assert (eps_c.min() > eps_v.max()) or np.isclose(eps_c.min(), eps_v.max())

    def test_select_transition_space_truncation(self, si2_ground_state):
        psi_v, eps_v, psi_c, eps_c = si2_ground_state.select_transition_space(2, 3)
        assert psi_v.shape[0] == 2
        assert psi_c.shape[0] == 3
        # Topmost valence bands are selected.
        assert eps_v[0] == pytest.approx(si2_ground_state.energies[2])

    def test_requested_more_than_available_is_clipped(self, si2_ground_state):
        psi_v, *_ = si2_ground_state.select_transition_space(99, 99)
        assert psi_v.shape[0] == 4

    def test_homo_lumo_gap_positive(self, si2_ground_state):
        assert si2_ground_state.homo_lumo_gap() > 0


class TestRealification:
    def test_real_orbitals_diagonalize_h(self, si2_ground_state):
        """After realification the orbitals must still be H-eigenvectors:
        verified via residuals ||H psi - e psi|| in coefficient space."""
        from repro.dft import KohnShamHamiltonian

        gs = si2_ground_state
        ham = KohnShamHamiltonian(gs.basis)
        ham.update_density(gs.density)
        coeffs = gs.basis.to_recip(gs.orbitals_real.astype(complex))
        h_coeffs = ham.apply(coeffs)
        residuals = np.linalg.norm(
            h_coeffs - coeffs * gs.energies[:, None], axis=1
        )
        assert residuals.max() < 1e-5

    def test_imaginary_content_is_negligible(self, si2_ground_state):
        """Realified orbitals round-trip through the sphere staying real."""
        gs = si2_ground_state
        coeffs = gs.basis.to_recip(gs.orbitals_real.astype(complex))
        back = gs.basis.to_real(coeffs)
        assert np.abs(back.imag).max() < 1e-10

    def test_sign_convention_peak_is_positive(self, si2_ground_state):
        """Each orbital's largest-magnitude grid value is positive."""
        psi = si2_ground_state.orbitals_real
        peaks = psi[np.arange(psi.shape[0]), np.abs(psi).argmax(axis=1)]
        assert (peaks > 0).all()

    def test_orbitals_are_orthonormal(self, si2_ground_state):
        gs = si2_ground_state
        overlap = gs.orbitals_real @ gs.orbitals_real.T * gs.basis.grid.dv
        np.testing.assert_allclose(overlap, np.eye(gs.n_bands), atol=1e-12)
