"""Tests for the dense linear-algebra helpers under the eigensolvers."""

import numpy as np
import pytest

from repro.utils.linalg import (
    orthonormalize,
    orthonormalize_against,
    rayleigh_ritz,
    relative_error,
    stable_generalized_eigh,
    symmetrize,
    whitened_generalized_eigh,
)


class TestSymmetrize:
    def test_output_is_hermitian(self, rng):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        s = symmetrize(a)
        np.testing.assert_allclose(s, s.conj().T)

    def test_hermitian_input_unchanged(self, rng):
        a = rng.standard_normal((5, 5))
        a = a + a.T
        np.testing.assert_allclose(symmetrize(a), a)


class TestOrthonormalize:
    def test_columns_become_orthonormal(self, rng):
        x = rng.standard_normal((40, 6))
        q = orthonormalize(x)
        np.testing.assert_allclose(q.conj().T @ q, np.eye(6), atol=1e-12)

    def test_span_is_preserved(self, rng):
        x = rng.standard_normal((30, 4))
        q = orthonormalize(x)
        # x must be representable in the q basis exactly.
        residual = x - q @ (q.T @ x)
        assert np.linalg.norm(residual) < 1e-10 * np.linalg.norm(x)

    def test_complex_input(self, rng):
        x = rng.standard_normal((25, 3)) + 1j * rng.standard_normal((25, 3))
        q = orthonormalize(x)
        np.testing.assert_allclose(q.conj().T @ q, np.eye(3), atol=1e-12)

    def test_rank_deficient_block_does_not_crash(self, rng):
        x = rng.standard_normal((20, 4))
        x[:, 3] = x[:, 0]  # exact dependence
        q = orthonormalize(x)
        assert np.all(np.isfinite(q))

    def test_nearly_dependent_columns(self, rng):
        x = rng.standard_normal((30, 3))
        x[:, 2] = x[:, 0] + 1e-14 * rng.standard_normal(30)
        q = orthonormalize(x)
        assert np.all(np.isfinite(q))


class TestOrthonormalizeAgainst:
    def test_result_orthogonal_to_basis(self, rng):
        basis = orthonormalize(rng.standard_normal((50, 5)))
        block = rng.standard_normal((50, 3))
        q = orthonormalize_against(block, basis)
        np.testing.assert_allclose(basis.conj().T @ q, 0.0, atol=1e-12)
        np.testing.assert_allclose(q.conj().T @ q, np.eye(3), atol=1e-12)


class TestRayleighRitz:
    def test_recovers_eigenvalues_in_invariant_subspace(self, rng):
        a = rng.standard_normal((30, 30))
        a = (a + a.T) / 2
        evals, evecs = np.linalg.eigh(a)
        s = evecs[:, :4]
        theta, coeffs = rayleigh_ritz(s, a @ s)
        np.testing.assert_allclose(theta, evals[:4], atol=1e-12)

    def test_nev_truncation(self, rng):
        a = rng.standard_normal((20, 20))
        a = (a + a.T) / 2
        s = rng.standard_normal((20, 6))
        theta, coeffs = rayleigh_ritz(s, a @ s, nev=2)
        assert theta.shape == (2,)
        assert coeffs.shape == (6, 2)


class TestStableGeneralizedEigh:
    def test_matches_scipy_for_well_conditioned(self, rng):
        a = rng.standard_normal((12, 12))
        a = (a + a.T) / 2
        b = rng.standard_normal((12, 12))
        b = b @ b.T + 12 * np.eye(12)
        import scipy.linalg as sla

        ref = sla.eigh(a, b, eigvals_only=True)
        got, _ = stable_generalized_eigh(a, b)
        np.testing.assert_allclose(got, ref, atol=1e-9)

    def test_b_orthonormal_vectors(self, rng):
        a = rng.standard_normal((10, 10))
        a = (a + a.T) / 2
        b = rng.standard_normal((10, 10))
        b = b @ b.T + 10 * np.eye(10)
        _, vecs = stable_generalized_eigh(a, b)
        np.testing.assert_allclose(vecs.T @ b @ vecs, np.eye(10), atol=1e-9)

    def test_singular_b_drops_directions(self, rng):
        a = np.diag(np.arange(1.0, 6.0))
        b = np.eye(5)
        b[4, 4] = 0.0  # singular metric
        evals, vecs = stable_generalized_eigh(a, b)
        assert evals.shape[0] == 4
        assert np.all(np.isfinite(vecs))

    def test_zero_b_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            stable_generalized_eigh(np.eye(3), np.zeros((3, 3)))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_cholesky_matches_whitening(self, rng, dtype):
        """On a well-conditioned pencil the Cholesky Rayleigh-Ritz and the
        whitening solve agree to 1e-12 (vectors up to a phase)."""
        n = 24
        a = rng.standard_normal((n, n)).astype(dtype)
        s = rng.standard_normal((n, n)).astype(dtype)
        if dtype is complex:
            a += 1j * rng.standard_normal((n, n))
            s += 1j * rng.standard_normal((n, n))
        a = symmetrize(a) + np.diag(np.arange(n, dtype=float))
        b = symmetrize(s @ s.conj().T) + n * np.eye(n)
        evals, vecs = stable_generalized_eigh(a, b)
        ref_evals, ref_vecs = whitened_generalized_eigh(a, b)
        np.testing.assert_allclose(evals, ref_evals, rtol=0, atol=1e-12)
        phase = np.sum(ref_vecs.conj() * vecs, axis=0)
        phase /= np.abs(phase)
        np.testing.assert_allclose(vecs, ref_vecs * phase, rtol=0, atol=1e-12)

    def test_well_conditioned_pencil_skips_the_fallback(self, rng, monkeypatch):
        import repro.utils.linalg as linalg

        calls = []
        monkeypatch.setattr(
            linalg, "whitened_generalized_eigh",
            lambda *args, **kw: calls.append(1) or whitened_generalized_eigh(*args, **kw),
        )
        b = rng.standard_normal((8, 8))
        linalg.stable_generalized_eigh(np.eye(8), b @ b.T + 8 * np.eye(8))
        assert calls == []

    @pytest.mark.parametrize("rank_deficient", ["singular", "ill-conditioned"])
    def test_rank_deficient_overlap_takes_the_fallback(
        self, rng, monkeypatch, rank_deficient
    ):
        import repro.utils.linalg as linalg

        calls = []
        monkeypatch.setattr(
            linalg, "whitened_generalized_eigh",
            lambda *args, **kw: calls.append(1) or whitened_generalized_eigh(*args, **kw),
        )
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        spectrum = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.0])
        if rank_deficient == "ill-conditioned":
            spectrum[-1] = 1e-14  # Cholesky succeeds, cond(B) > the bound
        b = q @ np.diag(spectrum) @ q.T
        evals, vecs = linalg.stable_generalized_eigh(np.diag(np.arange(1.0, 7.0)), b)
        assert calls == [1]
        assert evals.shape[0] == 5
        assert np.all(np.isfinite(vecs))


class TestRelativeError:
    def test_zero_for_identical(self, rng):
        x = rng.standard_normal(10)
        assert relative_error(x, x) == 0.0

    def test_scale_invariance(self, rng):
        x = rng.standard_normal(10)
        assert relative_error(1.01 * x, x) == pytest.approx(0.01, rel=1e-10)

    def test_zero_reference_returns_absolute(self):
        assert relative_error(np.array([3.0, 4.0]), np.zeros(2)) == pytest.approx(5.0)

    def test_scalar_inputs(self):
        assert relative_error(1.1, 1.0) == pytest.approx(0.1)
