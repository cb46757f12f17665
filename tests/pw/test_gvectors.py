"""Tests for G-vector generation and the cutoff sphere."""

import numpy as np
import pytest

from repro.pw import GVectors, RealSpaceGrid, UnitCell
from repro.pw.gvectors import fft_integer_frequencies


@pytest.fixture()
def gvec():
    cell = UnitCell.cubic(8.0)
    grid = RealSpaceGrid(cell, (12, 12, 12))
    return GVectors(grid, ecut=4.0)


def test_fft_integer_frequencies_layout():
    np.testing.assert_array_equal(fft_integer_frequencies(4), [0, 1, -2, -1])
    np.testing.assert_array_equal(fft_integer_frequencies(5), [0, 1, 2, -2, -1])


def test_miller_shape(gvec):
    assert gvec.miller.shape == (gvec.grid.n_points, 3)


def test_g_zero_is_first_grid_point(gvec):
    np.testing.assert_array_equal(gvec.miller[0], [0, 0, 0])
    assert gvec.g2[0] == 0.0


def test_sphere_within_cutoff(gvec):
    assert (gvec.g2_sphere <= 2.0 * gvec.ecut + 1e-9).all()


def test_points_outside_sphere_exceed_cutoff(gvec):
    mask = np.ones(gvec.grid.n_points, dtype=bool)
    mask[gvec.sphere] = False
    assert (gvec.g2[mask] > 2.0 * gvec.ecut).all()


def test_sphere_is_inversion_symmetric(gvec):
    """Needed for realifiable Gamma-point orbitals: G in sphere => -G in sphere."""
    miller_set = {tuple(m) for m in gvec.miller[gvec.sphere]}
    for m in miller_set:
        assert (-m[0], -m[1], -m[2]) in miller_set


def test_sphere_sorted_by_magnitude(gvec):
    g2 = gvec.g2_sphere
    assert (np.diff(np.round(g2, 10)) >= 0).all()


def test_pw_count_matches_analytic_estimate():
    """N_pw ~ Omega * (2 Ecut)^(3/2) / (6 pi^2) for large spheres."""
    cell = UnitCell.cubic(12.0)
    grid = RealSpaceGrid.from_cutoff(cell, 10.0)
    gvec = GVectors(grid, 10.0)
    estimate = cell.volume * (2 * 10.0) ** 1.5 / (6 * np.pi**2)
    assert gvec.n_pw == pytest.approx(estimate, rel=0.05)


def test_structure_factor_at_origin_is_one(gvec):
    sf = gvec.structure_factor(np.zeros(3))
    np.testing.assert_allclose(sf, 1.0)


def test_structure_factor_translation_phase(gvec):
    """S(G; tau) for tau = half lattice vector flips sign of odd Miller rows."""
    sf = gvec.structure_factor(np.array([0.5, 0.0, 0.0]))
    odd = gvec.miller[:, 0] % 2 == 1
    np.testing.assert_allclose(sf[odd].real, -1.0, atol=1e-12)
    np.testing.assert_allclose(sf[~odd].real, 1.0, atol=1e-12)


def test_structure_factor_sphere_consistent(gvec):
    tau = np.array([0.3, 0.1, 0.7])
    full = gvec.structure_factor(tau)
    np.testing.assert_allclose(gvec.structure_factor_sphere(tau), full[gvec.sphere])


def test_g_vectors_match_miller_times_reciprocal(gvec):
    recon = gvec.miller @ gvec.cell.reciprocal_lattice
    np.testing.assert_allclose(gvec.g, recon)


def test_miller_table_is_shared_and_read_only(gvec):
    """One read-only table per grid shape, whatever the cell."""
    other = GVectors(RealSpaceGrid(UnitCell.cubic(8.5), gvec.grid.shape), ecut=4.0)
    assert other.miller is gvec.miller
    assert not gvec.miller.flags.writeable
