"""Tests for robust Cholesky helpers."""

import numpy as np
import pytest

from repro.gp.linalg import (
    CholeskyError,
    jitter_cholesky,
    log_det_from_cholesky,
    solve_cholesky,
)


class TestJitterCholesky:
    def test_spd_matrix_exact(self, rng):
        a = rng.normal(size=(6, 6))
        mat = a @ a.T + 6 * np.eye(6)
        chol = jitter_cholesky(mat)
        np.testing.assert_allclose(chol @ chol.T, mat, rtol=1e-10, atol=1e-10)

    def test_semidefinite_gets_jitter(self, rng):
        v = rng.normal(size=(8, 2))
        mat = v @ v.T  # rank 2, PSD but singular
        chol = jitter_cholesky(mat)
        assert np.all(np.isfinite(chol))

    def test_indefinite_raises(self):
        mat = np.diag([1.0, -5.0])
        with pytest.raises(CholeskyError):
            jitter_cholesky(mat, max_tries=3)

    def test_error_names_the_last_jitter_tried(self, monkeypatch):
        """Regression: the message named the rung after the last one tried."""
        import scipy.linalg as sla

        tried = []
        cholesky = sla.cholesky

        def spy(a, *args, **kwargs):
            tried.append(np.array(a))
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(sla, "cholesky", spy)
        mat = -2.0 * np.eye(3)
        with pytest.raises(CholeskyError, match=r"last jitter 1e-06\)"):
            jitter_cholesky(mat)
        # attempt 0 adds nothing, then 1e-10 .. 1e-6 (mean(diag) <= 0 -> 1)
        assert [float(a[0, 0] - mat[0, 0]) for a in tried] == pytest.approx(
            [0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6], rel=1e-6
        )
        np.testing.assert_array_equal(tried[-1], mat + 10.0**-6 * np.eye(3))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            jitter_cholesky(np.zeros((2, 3)))

    def test_first_jitter_rung_is_documented_value(self):
        """The first retry adds exactly ``1e-10 * mean(diag)``, bitwise."""
        import scipy.linalg as sla

        from repro.gp.linalg import JITTER_START

        assert JITTER_START == 1e-10
        mat = np.array([[1.0, 1.0], [1.0, 1.0]])  # singular: plain Cholesky fails
        diag_mean = float(np.mean(np.diag(mat)))
        expected = sla.cholesky(
            mat + (1e-10 * diag_mean) * np.eye(2), lower=True
        )
        np.testing.assert_array_equal(jitter_cholesky(mat), expected)


class TestSolvers:
    def test_solve_cholesky(self, rng):
        a = rng.normal(size=(5, 5))
        mat = a @ a.T + 5 * np.eye(5)
        chol = jitter_cholesky(mat)
        rhs = rng.normal(size=5)
        x = solve_cholesky(chol, rhs)
        np.testing.assert_allclose(mat @ x, rhs, rtol=1e-9, atol=1e-9)

    def test_log_det(self, rng):
        a = rng.normal(size=(4, 4))
        mat = a @ a.T + 4 * np.eye(4)
        chol = jitter_cholesky(mat)
        expected = np.linalg.slogdet(mat)[1]
        assert log_det_from_cholesky(chol) == pytest.approx(expected, rel=1e-10)


class TestBatchedLinalg:
    def make_stack(self, rng, s=4, m=6):
        mats = []
        for _ in range(s):
            a = rng.normal(size=(m, m))
            mats.append(a @ a.T + m * np.eye(m))
        return np.stack(mats)

    def test_lapack_cholesky_matches_scipy(self, rng):
        from repro.gp.linalg import lapack_jitter_cholesky

        for _ in range(5):
            a = rng.normal(size=(6, 6))
            mat = a @ a.T + 6 * np.eye(6)
            np.testing.assert_array_equal(
                lapack_jitter_cholesky(mat), jitter_cholesky(mat)
            )

    def test_lapack_cholesky_jitter_fallback(self, rng):
        """A semidefinite matrix routes through the jitter ladder."""
        from repro.gp.linalg import lapack_jitter_cholesky

        v = rng.normal(size=5)
        mat = np.outer(v, v)  # rank-1, dpotrf fails
        chol = lapack_jitter_cholesky(mat)
        np.testing.assert_allclose(chol @ chol.T, mat, atol=1e-6)

    def test_batched_cholesky_matches_per_slice(self, rng):
        from repro.gp.linalg import batched_jitter_cholesky

        mats = self.make_stack(rng)
        chols = batched_jitter_cholesky(mats)
        for mat, chol in zip(mats, chols):
            np.testing.assert_array_equal(chol, jitter_cholesky(mat))

    def test_batched_cholesky_rejects_bad_shape(self):
        from repro.gp.linalg import batched_jitter_cholesky
        import pytest as _pytest

        with _pytest.raises(ValueError):
            batched_jitter_cholesky(np.zeros((3, 4)))
        with _pytest.raises(ValueError):
            batched_jitter_cholesky(np.zeros((2, 3, 4)))
