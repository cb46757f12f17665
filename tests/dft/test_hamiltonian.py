"""Tests for the matrix-free Kohn-Sham Hamiltonian."""

import numpy as np
import pytest

from repro.atoms import silicon_primitive_cell
from repro.dft import KohnShamHamiltonian, atomic_guess_density
from repro.pw import PlaneWaveBasis
from repro.utils.rng import default_rng


@pytest.fixture(scope="module")
def ham():
    basis = PlaneWaveBasis(silicon_primitive_cell(), ecut=8.0)
    h = KohnShamHamiltonian(basis)
    h.update_density(atomic_guess_density(basis))
    return h


def test_hermitian(ham):
    rng = default_rng(0)
    a = ham.basis.random_coefficients(1, rng)[0]
    b = ham.basis.random_coefficients(1, rng)[0]
    lhs = np.vdot(a, ham.apply(b))
    rhs = np.vdot(b, ham.apply(a)).conjugate()
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_linear(ham):
    rng = default_rng(1)
    a = ham.basis.random_coefficients(1, rng)[0]
    b = ham.basis.random_coefficients(1, rng)[0]
    np.testing.assert_allclose(
        ham.apply(1.5 * a - 0.5j * b),
        1.5 * ham.apply(a) - 0.5j * ham.apply(b),
        atol=1e-12,
    )


def test_kinetic_limit_for_high_g(ham):
    """A pure high-|G| plane wave is dominated by its kinetic eigenvalue."""
    idx = int(np.argmax(ham.basis.kinetic_diagonal))
    c = np.zeros(ham.basis.n_pw, dtype=complex)
    c[idx] = 1.0
    expect = ham.basis.kinetic_diagonal[idx]
    got = np.vdot(c, ham.apply(c)).real
    # Potential contribution is bounded by max|V|, small relative to T here.
    assert got == pytest.approx(expect + ham.v_effective.mean(), abs=np.abs(ham.v_effective).max())


def test_update_density_changes_potential(ham):
    v_before = ham.v_effective.copy()
    ham.update_density(ham.basis.grid.dv * 0 + atomic_guess_density(ham.basis) * 1.0)
    np.testing.assert_allclose(ham.v_effective, v_before)  # same density
    bumped = atomic_guess_density(ham.basis)
    bumped = bumped * (8.0 / (bumped.sum() * ham.basis.grid.dv))
    ham.update_density(bumped * 1.2 / 1.2)  # no-op scale, still same
    np.testing.assert_allclose(ham.v_effective, v_before)


def test_wrong_density_shape_rejected(ham):
    with pytest.raises(ValueError, match="density"):
        ham.update_density(np.zeros(7))


def test_apply_columns_transposition(ham):
    """The packed real operator is the complex one, conjugated by pack."""
    rng = default_rng(2)
    basis = ham.basis
    block = basis.random_packed(3, rng)
    np.testing.assert_allclose(
        ham.apply_columns(block.T),
        basis.pack(ham.apply(basis.unpack(block))).T,
        atol=1e-13,
    )


def test_apply_columns_is_real_symmetric_with_projectors():
    """On Si2, u^T H v = v^T H u to 1e-12 with the KB projectors on."""
    from repro.atoms import silicon_primitive_cell as si2

    basis = PlaneWaveBasis(si2(), ecut=8.0)
    h = KohnShamHamiltonian(basis)
    h.update_density(atomic_guess_density(basis))
    assert h.projectors.n_projectors > 0
    assert np.abs(h.packed_projectors).max() > 0
    rng = default_rng(5)
    uv = basis.random_packed(2, rng).T
    hu_hv = h.apply_columns(uv)
    assert hu_hv.dtype == np.float64
    lhs = uv[:, 0] @ hu_hv[:, 1]
    rhs = uv[:, 1] @ hu_hv[:, 0]
    assert abs(lhs - rhs) < 1e-12


def test_packed_projectors_are_the_packed_complex_ones(ham):
    """beta(-G) = beta(G)^*: packing the KB projectors loses nothing."""
    beta = ham.projectors.beta.T
    np.testing.assert_allclose(
        ham.basis.unpack(ham.packed_projectors), beta, atol=1e-14
    )


def test_preconditioner_damps_high_g(ham):
    rng = default_rng(3)
    r = ham.basis.random_packed(2, rng).T
    out = ham.preconditioner(r, np.zeros(2))
    assert out.dtype == np.float64
    kinetic = ham.basis.packed_kinetic_diagonal
    hi = kinetic > 0.8 * kinetic.max()
    lo = kinetic < 0.2 * kinetic.max()
    damp_hi = np.abs(out[hi]).mean() / np.abs(r[hi]).mean()
    damp_lo = np.abs(out[lo]).mean() / np.abs(r[lo]).mean()
    assert damp_hi < damp_lo


def test_diagonal_has_kinetic_shape(ham):
    d = ham.diagonal()
    kinetic = ham.basis.packed_kinetic_diagonal
    assert d.shape == (ham.basis.n_pw,)
    np.testing.assert_allclose(d - d[0], kinetic - kinetic[0])
