"""Tests for the plane-wave basis orbital conventions."""

import numpy as np
import pytest

from repro.atoms import silicon_primitive_cell
from repro.pw import PlaneWaveBasis, UnitCell
from repro.utils.rng import default_rng


@pytest.fixture()
def basis():
    return PlaneWaveBasis(silicon_primitive_cell(), ecut=8.0)


def test_invalid_ecut():
    with pytest.raises(ValueError):
        PlaneWaveBasis(UnitCell.cubic(5.0), ecut=-1.0)


def test_kinetic_diagonal_nonnegative_and_bounded(basis):
    assert (basis.kinetic_diagonal >= 0).all()
    assert (basis.kinetic_diagonal <= basis.ecut + 1e-9).all()


def test_to_real_normalization(basis):
    """Unit coefficient vector => unit L2 norm in real space."""
    rng = default_rng(0)
    c = basis.random_coefficients(1, rng)
    psi = basis.to_real(c)
    norm = (np.abs(psi[0]) ** 2).sum() * basis.grid.dv
    assert norm == pytest.approx(1.0)


def test_roundtrip_within_sphere(basis):
    rng = default_rng(1)
    c = basis.random_coefficients(4, rng)
    c2 = basis.to_recip(basis.to_real(c))
    np.testing.assert_allclose(c2, c, atol=1e-12)


def test_to_recip_projects_out_high_g(basis):
    """Fields outside the sphere are discarded by to_recip (projection)."""
    rng = default_rng(2)
    noise = rng.standard_normal(basis.n_r)
    c = basis.to_recip(noise.astype(complex))
    psi = basis.to_real(c)
    c2 = basis.to_recip(psi)
    np.testing.assert_allclose(c2, c, atol=1e-12)


def test_constant_orbital_coefficient(basis):
    """psi = 1/sqrt(Omega) corresponds to c = e_0 (the G=0 coefficient)."""
    psi = np.full(basis.n_r, 1.0 / np.sqrt(basis.volume), dtype=complex)
    c = basis.to_recip(psi)
    assert c[0] == pytest.approx(1.0)
    np.testing.assert_allclose(c[1:], 0.0, atol=1e-12)


def test_random_coefficients_are_normalized(basis):
    rng = default_rng(3)
    c = basis.random_coefficients(5, rng)
    np.testing.assert_allclose(np.linalg.norm(c, axis=1), 1.0, atol=1e-12)


def test_random_coefficients_deterministic(basis):
    a = basis.random_coefficients(3, default_rng(7))
    b = basis.random_coefficients(3, default_rng(7))
    np.testing.assert_array_equal(a, b)


def test_describe_mentions_sizes(basis):
    text = basis.describe()
    assert str(basis.n_pw) in text
    assert "Ecut" in text


def test_batched_to_real_matches_loop(basis):
    rng = default_rng(4)
    c = basis.random_coefficients(3, rng)
    batched = basis.to_real(c)
    for i in range(3):
        np.testing.assert_allclose(batched[i], basis.to_real(c[i]))


# -- the real packed basis -----------------------------------------------------


def test_unpack_is_unitary(basis):
    """unpack's matrix (columns = unpacked unit vectors) is unitary."""
    u = basis.unpack(np.eye(basis.n_pw))
    np.testing.assert_allclose(u.conj().T @ u, np.eye(basis.n_pw), atol=1e-14)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(basis.n_pw), atol=1e-14)


def test_pack_unpack_roundtrip(basis):
    packed = basis.random_packed(4, default_rng(8))
    np.testing.assert_allclose(basis.pack(basis.unpack(packed)), packed, rtol=0, atol=1e-15)
    # A real orbital on the grid packs losslessly.
    psi = basis.to_real(basis.unpack(packed)).real
    coeffs = basis.to_recip(psi)
    np.testing.assert_allclose(basis.unpack(basis.pack(coeffs)), coeffs, atol=1e-14)
    np.testing.assert_allclose(basis.pack(coeffs), packed, atol=1e-14)


def test_unpacked_orbitals_are_real_and_normalized(basis):
    packed = basis.random_packed(3, default_rng(9))
    psi = basis.to_real(basis.unpack(packed))
    assert np.abs(psi.imag).max() < 1e-14
    norms = (psi.real**2).sum(axis=1) * basis.grid.dv
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_packing_pairs_inverse_g_vectors(basis):
    self_conjugate, plus, minus = basis.packing
    miller = basis.gvectors.miller[basis.gvectors.sphere]
    np.testing.assert_array_equal(miller[plus], -miller[minus])
    np.testing.assert_array_equal(self_conjugate, [0])
    assert self_conjugate.size + 2 * plus.size == basis.n_pw
    np.testing.assert_allclose(
        basis.packed_kinetic_diagonal,
        basis.kinetic_diagonal[np.concatenate([self_conjugate, plus, minus])],
        rtol=1e-14,
    )


def test_random_packed_is_real_normalized_and_deterministic(basis):
    a = basis.random_packed(3, default_rng(7))
    assert a.dtype == np.float64
    np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(a, basis.random_packed(3, default_rng(7)))
