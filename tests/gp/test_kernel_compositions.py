"""Tests for the RationalQuadratic kernel."""

import numpy as np
import pytest

from repro.gp.kernels import RBF, RationalQuadratic, make_kernel


class TestRationalQuadratic:
    def test_psd(self, rng):
        k = RationalQuadratic(3, alpha=1.5)
        x = rng.normal(size=(10, 3))
        eigs = np.linalg.eigvalsh(k(x))
        assert np.all(eigs > -1e-9)

    def test_large_alpha_approaches_rbf(self, rng):
        x = rng.normal(size=(6, 2))
        rq = RationalQuadratic(2, alpha=1e6)
        rbf = RBF(2)
        np.testing.assert_allclose(rq(x), rbf(x), rtol=1e-3)

    def test_heavier_tails_than_rbf(self):
        """At large distance the RQ kernel decays slower than the RBF."""
        rq = RationalQuadratic(1, alpha=1.0)
        rbf = RBF(1)
        far = np.array([[0.0], [5.0]])
        assert rq(far)[0, 1] > rbf(far)[0, 1]

    def test_gradients_match_finite_difference(self, rng):
        k = RationalQuadratic(2, lengthscales=[0.7, 1.2], alpha=1.3)
        x = rng.normal(size=(5, 2))
        grads = k.gradients(x)
        params = k.get_params()
        eps = 1e-6
        for i in range(k.n_params):
            p = params.copy()
            p[i] += eps
            k.set_params(p)
            up = k(x)
            p[i] -= 2 * eps
            k.set_params(p)
            down = k(x)
            k.set_params(params)
            np.testing.assert_allclose(
                grads[i], (up - down) / (2 * eps), rtol=1e-4, atol=1e-8
            )

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            RationalQuadratic(1, alpha=0.0)

    def test_factory_name(self):
        assert isinstance(make_kernel("rq", 2), RationalQuadratic)
