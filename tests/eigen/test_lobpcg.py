"""Tests for the LOBPCG implementation (paper Algorithm 2)."""

import numpy as np
import pytest

from repro.eigen import dense_lowest, lobpcg
from repro.utils.rng import default_rng


def _random_symmetric(n, rng, spread=1.0):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2 + np.diag(spread * np.arange(n, dtype=float))


class TestConvergence:
    def test_matches_dense_reference(self, rng):
        a = _random_symmetric(200, rng)
        ref, _ = dense_lowest(a, 5)
        res = lobpcg(lambda x: a @ x, rng.standard_normal((200, 5)), tol=1e-9)
        assert res.converged
        np.testing.assert_allclose(res.eigenvalues, ref, atol=1e-8)

    def test_eigenvectors_are_accurate(self, rng):
        a = _random_symmetric(100, rng)
        res = lobpcg(lambda x: a @ x, rng.standard_normal((100, 4)), tol=1e-10)
        for j in range(4):
            v = res.eigenvectors[:, j]
            np.testing.assert_allclose(
                a @ v, res.eigenvalues[j] * v, atol=1e-8
            )

    def test_eigenvectors_orthonormal(self, rng):
        a = _random_symmetric(80, rng)
        res = lobpcg(lambda x: a @ x, rng.standard_normal((80, 6)), tol=1e-9)
        gram = res.eigenvectors.T @ res.eigenvectors
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-8)

    def test_complex_hermitian(self, rng):
        n = 120
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = (a + a.conj().T) / 2 + np.diag(np.arange(n, dtype=float))
        ref = np.linalg.eigvalsh(a)[:4]
        x0 = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
        res = lobpcg(lambda x: a @ x, x0, tol=1e-9, max_iter=400)
        assert res.converged
        np.testing.assert_allclose(res.eigenvalues, ref, atol=1e-8)

    def test_diagonal_matrix_converges_fast(self, rng):
        d = np.arange(1.0, 51.0)
        res = lobpcg(lambda x: d[:, None] * x, rng.standard_normal((50, 3)), tol=1e-10)
        assert res.converged
        np.testing.assert_allclose(res.eigenvalues, [1.0, 2.0, 3.0], atol=1e-9)

    def test_preconditioner_accelerates_ill_conditioned(self, rng):
        """Diagonally dominant matrix with huge spread: the Jacobi-style
        preconditioner must reduce iteration count substantially."""
        n = 300
        d = np.logspace(0, 5, n)
        off = rng.standard_normal((n, n))
        a = np.diag(d) + 0.1 * (off + off.T)
        x0 = rng.standard_normal((n, 4))

        def precond(r, theta):
            denom = np.maximum(np.abs(d[:, None] - theta[None, :]), 1e-1)
            return r / denom

        plain = lobpcg(lambda x: a @ x, x0, tol=1e-8, max_iter=500)
        prec = lobpcg(lambda x: a @ x, x0, preconditioner=precond, tol=1e-8, max_iter=500)
        assert prec.converged
        assert prec.iterations < plain.iterations


class TestRobustness:
    def test_degenerate_eigenvalues(self, rng):
        evals = np.array([1.0, 1.0, 1.0, 2.0, 3.0] + list(range(4, 50)))
        q, _ = np.linalg.qr(rng.standard_normal((len(evals), len(evals))))
        a = q @ np.diag(evals) @ q.T
        res = lobpcg(lambda x: a @ x, rng.standard_normal((len(evals), 4)), tol=1e-9)
        assert res.converged
        np.testing.assert_allclose(res.eigenvalues, [1, 1, 1, 2], atol=1e-8)

    def test_k_equals_n(self, rng):
        a = _random_symmetric(8, rng)
        res = lobpcg(lambda x: a @ x, rng.standard_normal((8, 8)), tol=1e-9)
        np.testing.assert_allclose(
            np.sort(res.eigenvalues), np.linalg.eigvalsh(a), atol=1e-7
        )

    def test_full_space_when_block_would_span_it(self, rng):
        """3k >= n: one Rayleigh-Ritz on the whole space, exact in one step."""
        a = _random_symmetric(16, rng)
        calls = []

        def apply_h(x):
            calls.append(x.shape[1])
            return a @ x

        res = lobpcg(apply_h, rng.standard_normal((16, 6)), tol=1e-8)
        assert calls == [16]
        assert res.converged and res.iterations == 1
        np.testing.assert_allclose(res.eigenvalues, np.linalg.eigvalsh(a)[:6], atol=1e-12)
        np.testing.assert_allclose(
            a @ res.eigenvectors, res.eigenvectors * res.eigenvalues, atol=1e-12
        )

    def test_iterates_when_block_is_below_a_third(self, rng):
        a = _random_symmetric(16, rng)
        res = lobpcg(lambda x: a @ x, rng.standard_normal((16, 5)), tol=1e-8)
        assert res.converged and res.iterations > 1
        np.testing.assert_allclose(res.eigenvalues, np.linalg.eigvalsh(a)[:5], atol=1e-8)

    def test_k_larger_than_n_rejected(self, rng):
        with pytest.raises(ValueError):
            lobpcg(lambda x: x, rng.standard_normal((3, 5)))

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            lobpcg(lambda x: x, np.zeros((5, 0)))

    def test_history_is_recorded(self, rng):
        a = _random_symmetric(60, rng)
        res = lobpcg(lambda x: a @ x, rng.standard_normal((60, 3)), tol=1e-9)
        assert len(res.history) == res.iterations
        assert res.history[-1] <= res.history[0]

    def test_max_iter_returns_unconverged(self, rng):
        a = _random_symmetric(200, rng, spread=0.01)
        res = lobpcg(lambda x: a @ x, rng.standard_normal((200, 3)), tol=1e-14, max_iter=3)
        assert not res.converged
        assert res.iterations == 3

    def test_near_convergence_stability(self, rng):
        """Running far past convergence must not corrupt the results
        (regression: the P-recurrence once amplified rounding noise and
        produced eigenvalues below the true spectrum)."""
        a = _random_symmetric(150, rng)
        ref = np.linalg.eigvalsh(a)[:4]
        res = lobpcg(
            lambda x: a @ x, rng.standard_normal((150, 4)),
            tol=1e-15, max_iter=300,
        )
        # May or may not flag converged at this tol; values must stay sane.
        np.testing.assert_allclose(res.eigenvalues, ref, atol=1e-6)
        assert res.eigenvalues.min() >= ref[0] - 1e-6

    def test_warm_start_beats_cold_start(self, rng):
        """Convergence rate is CG-like (gap-limited), but a warm start must
        still save iterations over a random start."""
        a = _random_symmetric(100, rng)
        _, vecs = np.linalg.eigh(a)
        warm0 = vecs[:, :4] + 1e-6 * rng.standard_normal((100, 4))
        cold0 = rng.standard_normal((100, 4))
        warm = lobpcg(lambda x: a @ x, warm0, tol=1e-8, max_iter=500)
        cold = lobpcg(lambda x: a @ x, cold0, tol=1e-8, max_iter=500)
        assert warm.converged
        assert warm.iterations < cold.iterations

    def test_exact_eigenvector_start_converges_immediately(self, rng):
        a = _random_symmetric(100, rng)
        _, vecs = np.linalg.eigh(a)
        res = lobpcg(lambda x: a @ x, vecs[:, :4], tol=1e-8)
        assert res.iterations == 1
