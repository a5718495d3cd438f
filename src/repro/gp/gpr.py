"""Exact Gaussian-process regression with MLE hyper-parameter fitting.

Implements the baseline surrogate of the paper (Sec. II-C, eq. 3–4):
constant mean, explicit kernel, Gaussian noise, with hyper-parameters
``theta = [kernel params, log sigma_n^2, mu_0]`` estimated by multi-restart
L-BFGS-B on the exact marginal likelihood with analytic gradients.

Complexity (paper Sec. III-D): training is dominated by the Cholesky
factorization of the ``N x N`` matrix — O(N^3); each predictive variance is
O(N^2).  This is the scaling the neural-network model is built to escape,
and ``benchmarks/bench_complexity.py`` measures exactly this contrast.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg as sla

from repro.gp.kernels import Kernel, RBF
from repro.gp.linalg import jitter_cholesky, log_det_from_cholesky
from repro.gp.mean import ConstantMean
from repro.utils.rng import ensure_rng
from repro.utils.scaling import StandardScaler
from repro.utils.validation import check_finite, check_matrix_2d, check_vector_1d

# Log-space box constraints keep L-BFGS-B away from degenerate optima
# (zero-lengthscale interpolation, infinite noise).  Inputs are expected in
# roughly unit scale — the BO layer always feeds the unit box.
_LOG_SN2_BOUNDS = (np.log(1e-8), np.log(1e2))
_MEAN_BOUNDS = (-1e3, 1e3)


class GPRegression:
    """Exact GP regression model ``y ~ N(m(x) + f(x), sigma_n^2)``.

    Parameters
    ----------
    kernel:
        Covariance function; defaults to an ARD :class:`RBF` built at fit
        time (the paper's Gaussian kernel).
    noise_variance:
        Initial observation-noise variance sigma_n^2.
    normalize_y:
        Z-score targets internally (recommended; FOM values of circuits can
        be O(100) dB or O(1e-5) A).
    n_restarts:
        Number of random restarts for the MLE in addition to the current
        hyper-parameters.
    seed:
        RNG seed for restart sampling.
    """

    def __init__(
        self,
        kernel: Kernel | None = None,
        noise_variance: float = 1e-4,
        normalize_y: bool = True,
        n_restarts: int = 4,
        optimize: bool = True,
        seed=None,
    ):
        if noise_variance <= 0:
            raise ValueError(f"noise_variance must be positive, got {noise_variance}")
        self.kernel = kernel
        self.log_noise_variance = float(np.log(noise_variance))
        self.mean = ConstantMean(0.0)
        self.normalize_y = bool(normalize_y)
        self.n_restarts = int(n_restarts)
        self.optimize = bool(optimize)
        self._rng = ensure_rng(seed)
        self._x_train: np.ndarray | None = None
        self._z_train: np.ndarray | None = None
        self._y_scaler = StandardScaler()
        self._chol: np.ndarray | None = None
        self._alpha: np.ndarray | None = None

    # -- public API -----------------------------------------------------------

    @property
    def noise_variance(self) -> float:
        """Observation-noise variance sigma_n^2 (in normalized-target units)."""
        return float(np.exp(self.log_noise_variance))

    @property
    def num_train(self) -> int:
        """Number of stored training points."""
        return 0 if self._x_train is None else self._x_train.shape[0]

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GPRegression":
        """Store data, run the MLE (if enabled), and precompute the posterior."""
        x = check_matrix_2d(x, "x")
        y = check_vector_1d(y, "y", length=x.shape[0])
        check_finite(x, "x")
        check_finite(y, "y")
        if x.shape[0] < 2:
            raise ValueError("GP regression needs at least 2 training points")
        if self.kernel is None:
            self.kernel = RBF(x.shape[1])
        elif self.kernel.input_dim != x.shape[1]:
            raise ValueError(
                f"kernel dim {self.kernel.input_dim} != data dim {x.shape[1]}"
            )
        self._x_train = x
        if self.normalize_y:
            self._z_train = self._y_scaler.fit_transform(y)
        else:
            self._y_scaler.fit(np.array([0.0, 1.0]))
            self._y_scaler.mean_, self._y_scaler.scale_ = 0.0, 1.0
            self._z_train = y.copy()
        if self.optimize:
            self._optimize_hyperparams()
        self._update_posterior()
        return self

    def predict(
        self, x: np.ndarray, include_noise: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at query points (eq. 3).

        Returns arrays of shape ``(n,)`` in the original target units.
        """
        self._require_fitted()
        x = check_matrix_2d(x, "x", self._x_train.shape[1])
        k_star = self.kernel(x, self._x_train)  # (n, N)
        z_mean = self.mean(x) + k_star @ self._alpha
        v = sla.solve_triangular(self._chol, k_star.T, lower=True)
        z_var = self.kernel.diag(x) - np.sum(v**2, axis=0)
        if include_noise:
            z_var = z_var + self.noise_variance
        z_var = np.maximum(z_var, 1e-12)
        mean = self._y_scaler.inverse_transform(z_mean)
        var = self._y_scaler.inverse_transform_variance(z_var)
        return mean, var

    def log_marginal_likelihood(self, params: np.ndarray | None = None) -> float:
        """Exact log marginal likelihood (eq. 4) at ``params`` (or current)."""
        self._require_data()
        if params is None:
            params = self._get_theta()
        value, _ = self._nll_and_grad(np.asarray(params, dtype=float))
        return -value

    # -- hyper-parameter plumbing ----------------------------------------------

    def _get_theta(self) -> np.ndarray:
        return np.concatenate(
            [
                self.kernel.get_params(),
                [self.log_noise_variance, self.mean.value],
            ]
        )

    def _set_theta(self, theta: np.ndarray):
        nk = self.kernel.n_params
        self.kernel.set_params(theta[:nk])
        self.log_noise_variance = float(theta[nk])
        self.mean.value = float(theta[nk + 1])

    def _theta_bounds(self) -> list[tuple[float, float]]:
        return self.kernel.param_bounds() + [_LOG_SN2_BOUNDS, _MEAN_BOUNDS]

    def _sample_theta(self) -> np.ndarray:
        """Random restart point, scaled to the observed input ranges."""
        span = np.ptp(self._x_train, axis=0)
        span = np.where(span > 0, span, 1.0)
        kernel_theta = self.kernel.sample_params(self._rng, span)
        log_sn2 = np.log(self._rng.uniform(1e-6, 1e-2))
        mean = float(np.mean(self._z_train)) + self._rng.normal(0.0, 0.1)
        theta = np.concatenate([kernel_theta, [log_sn2, mean]])
        lo = np.array([b[0] for b in self._theta_bounds()])
        hi = np.array([b[1] for b in self._theta_bounds()])
        return np.clip(theta, lo, hi)

    # -- likelihood internals ---------------------------------------------------

    def _nll_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """Negative log marginal likelihood and its gradient (GPML eq. 5.9)."""
        saved = self._get_theta()
        try:
            self._set_theta(theta)
            x, z = self._x_train, self._z_train
            n = x.shape[0]
            k_mat = self.kernel(x) + self.noise_variance * np.eye(n)
            chol = jitter_cholesky(k_mat)
            resid = z - self.mean(x)
            alpha = sla.cho_solve((chol, True), resid)
            nll = 0.5 * float(resid @ alpha)
            nll += 0.5 * log_det_from_cholesky(chol)
            nll += 0.5 * n * np.log(2.0 * np.pi)

            k_inv = sla.cho_solve((chol, True), np.eye(n))
            outer = np.outer(alpha, alpha)
            trace_mat = outer - k_inv  # d logL / d theta = 1/2 tr(trace_mat dK)
            grad = np.empty_like(theta)
            kernel_grads = self.kernel.gradients(x)
            for i in range(self.kernel.n_params):
                grad[i] = -0.5 * float(np.sum(trace_mat * kernel_grads[i]))
            noise_grad_mat = self.noise_variance * np.eye(n)
            grad[self.kernel.n_params] = -0.5 * float(
                np.sum(trace_mat * noise_grad_mat)
            )
            grad[self.kernel.n_params + 1] = -float(np.sum(alpha))
            return nll, grad
        finally:
            self._set_theta(saved)

    def _optimize_hyperparams(self):
        """Multi-restart L-BFGS-B on the exact NLL with analytic gradients."""
        # imported here: the NN-GP engine loads this package for its
        # linear algebra, and only these baselines' fits need the optimizer
        from scipy import optimize as sopt

        bounds = self._theta_bounds()
        lo = np.array([b[0] for b in bounds])
        hi = np.array([b[1] for b in bounds])
        starts = [np.clip(self._get_theta(), lo, hi)]
        starts += [self._sample_theta() for _ in range(self.n_restarts)]
        best_theta, best_nll = None, np.inf
        for theta0 in starts:
            try:
                res = sopt.minimize(
                    self._nll_and_grad,
                    theta0,
                    jac=True,
                    method="L-BFGS-B",
                    bounds=bounds,
                    options={"maxiter": 200},
                )
            except (FloatingPointError, np.linalg.LinAlgError):
                continue
            if np.isfinite(res.fun) and res.fun < best_nll:
                best_nll, best_theta = float(res.fun), res.x.copy()
        if best_theta is not None:
            self._set_theta(best_theta)

    def _update_posterior(self):
        n = self._x_train.shape[0]
        k_mat = self.kernel(self._x_train) + self.noise_variance * np.eye(n)
        self._chol = jitter_cholesky(k_mat)
        resid = self._z_train - self.mean(self._x_train)
        self._alpha = sla.cho_solve((self._chol, True), resid)

    def _require_data(self):
        if self._x_train is None:
            raise RuntimeError("model has no training data; call fit() first")

    def _require_fitted(self):
        self._require_data()
        if self._chol is None:
            raise RuntimeError("posterior not computed; call fit() first")
