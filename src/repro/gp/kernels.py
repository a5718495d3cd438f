"""Covariance kernels with analytic gradients w.r.t. log hyper-parameters.

The paper's baseline surrogate (eq. after Sec. II-C) is the ARD Gaussian
kernel

    k(x_i, x_j) = sigma_f^2 * exp(-1/2 (x_i - x_j)^T Lambda^{-1} (x_i - x_j)),
    Lambda = diag(l_1^2, ..., l_d^2).

(The paper's formula writes ``sigma_n^2`` for the prefactor; that is a typo
for the signal variance — the noise enters separately in eq. 3.)

All hyper-parameters are handled in log space so maximum-likelihood
optimization is unconstrained and scale-free.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_matrix_2d


def _sq_dists_per_dim(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Per-dimension squared differences with shape ``(n1, n2, d)``."""
    return (x1[:, None, :] - x2[None, :, :]) ** 2


class Kernel:
    """Base class: positive-definite kernel with log-space parameters.

    Parameter vector layout: ``[log l_1, ..., log l_d, log sigma_f^2]``.
    """

    def __init__(self, input_dim: int, lengthscales=None, signal_variance: float = 1.0):
        if input_dim <= 0:
            raise ValueError(f"input_dim must be positive, got {input_dim}")
        self.input_dim = int(input_dim)
        if lengthscales is None:
            lengthscales = np.ones(input_dim)
        lengthscales = np.asarray(lengthscales, dtype=float).ravel()
        if lengthscales.shape[0] != input_dim:
            raise ValueError(
                f"need {input_dim} lengthscales, got {lengthscales.shape[0]}"
            )
        if np.any(lengthscales <= 0) or signal_variance <= 0:
            raise ValueError("lengthscales and signal variance must be positive")
        self.log_lengthscales = np.log(lengthscales)
        self.log_signal_variance = float(np.log(signal_variance))

    # -- parameter plumbing ---------------------------------------------------

    @property
    def n_params(self) -> int:
        """Number of log-space hyper-parameters."""
        return self.input_dim + 1

    def get_params(self) -> np.ndarray:
        """Log-space parameter vector ``[log l_1..d, log sigma_f^2]``."""
        return np.append(self.log_lengthscales, self.log_signal_variance)

    def set_params(self, params: np.ndarray):
        """Write a log-space parameter vector."""
        params = np.asarray(params, dtype=float).ravel()
        if params.shape[0] != self.n_params:
            raise ValueError(f"expected {self.n_params} params, got {params.shape[0]}")
        self.log_lengthscales = params[: self.input_dim].copy()
        self.log_signal_variance = float(params[self.input_dim])

    def param_bounds(self) -> list[tuple[float, float]]:
        """Log-space box bounds per parameter, for MLE optimizers."""
        ls = (np.log(1e-3), np.log(1e3))
        sf2 = (np.log(1e-6), np.log(1e6))
        return [ls] * self.input_dim + [sf2]

    def sample_params(self, rng, span: np.ndarray) -> np.ndarray:
        """Random restart point scaled to the data span per dimension."""
        log_ls = np.log(span * rng.uniform(0.1, 1.0, size=self.input_dim))
        log_sf2 = np.log(rng.uniform(0.25, 4.0))
        theta = np.append(log_ls, log_sf2)
        lo = np.array([b[0] for b in self.param_bounds()])
        hi = np.array([b[1] for b in self.param_bounds()])
        return np.clip(theta, lo, hi)

    @property
    def lengthscales(self) -> np.ndarray:
        """Positive ARD lengthscales."""
        return np.exp(self.log_lengthscales)

    @property
    def signal_variance(self) -> float:
        """Positive signal variance sigma_f^2."""
        return float(np.exp(self.log_signal_variance))

    # -- kernel evaluations ---------------------------------------------------

    def __call__(self, x1: np.ndarray, x2: np.ndarray | None = None) -> np.ndarray:
        """Covariance matrix between two point sets (x2 defaults to x1)."""
        raise NotImplementedError

    def diag(self, x: np.ndarray) -> np.ndarray:
        """Diagonal of ``self(x, x)`` without forming the full matrix."""
        x = check_matrix_2d(x, "x", self.input_dim)
        return np.full(x.shape[0], self.signal_variance)

    def gradients(self, x: np.ndarray) -> np.ndarray:
        """Stack of ``dK/d(log theta_i)`` over the training set.

        Returns an array of shape ``(n_params, n, n)`` used by the marginal-
        likelihood gradient (trace formula in GPML eq. 5.9).
        """
        raise NotImplementedError


class RBF(Kernel):
    """ARD squared-exponential ("Gaussian") kernel — the paper's baseline."""

    def __call__(self, x1, x2=None):
        x1 = check_matrix_2d(x1, "x1", self.input_dim)
        x2 = x1 if x2 is None else check_matrix_2d(x2, "x2", self.input_dim)
        scaled = _sq_dists_per_dim(x1, x2) / np.exp(2.0 * self.log_lengthscales)
        return self.signal_variance * np.exp(-0.5 * scaled.sum(axis=2))

    def gradients(self, x):
        x = check_matrix_2d(x, "x", self.input_dim)
        per_dim = _sq_dists_per_dim(x, x) / np.exp(2.0 * self.log_lengthscales)
        k = self.signal_variance * np.exp(-0.5 * per_dim.sum(axis=2))
        grads = np.empty((self.n_params, x.shape[0], x.shape[0]))
        for d in range(self.input_dim):
            # d k / d log l_d = k * (x_d - x'_d)^2 / l_d^2
            grads[d] = k * per_dim[:, :, d]
        grads[self.input_dim] = k  # d k / d log sigma_f^2 = k
        return grads


class Matern52(Kernel):
    """ARD Matérn 5/2 kernel, the common robust alternative in BO."""

    _SQRT5 = np.sqrt(5.0)

    def _scaled_r(self, x1, x2):
        per_dim = _sq_dists_per_dim(x1, x2) / np.exp(2.0 * self.log_lengthscales)
        return np.sqrt(np.maximum(per_dim.sum(axis=2), 0.0)), per_dim

    def __call__(self, x1, x2=None):
        x1 = check_matrix_2d(x1, "x1", self.input_dim)
        x2 = x1 if x2 is None else check_matrix_2d(x2, "x2", self.input_dim)
        r, _ = self._scaled_r(x1, x2)
        s5r = self._SQRT5 * r
        return self.signal_variance * (1.0 + s5r + s5r**2 / 3.0) * np.exp(-s5r)

    def gradients(self, x):
        x = check_matrix_2d(x, "x", self.input_dim)
        r, per_dim = self._scaled_r(x, x)
        s5r = self._SQRT5 * r
        k = self.signal_variance * (1.0 + s5r + s5r**2 / 3.0) * np.exp(-s5r)
        # dk/dr = -sigma_f^2 * (5 r / 3) (1 + sqrt5 r) exp(-sqrt5 r); combined with
        # dr/d log l_d = -per_dim_d / r the r in the denominator cancels.
        common = self.signal_variance * (5.0 / 3.0) * (1.0 + s5r) * np.exp(-s5r)
        grads = np.empty((self.n_params, x.shape[0], x.shape[0]))
        for d in range(self.input_dim):
            grads[d] = common * per_dim[:, :, d]
        grads[self.input_dim] = k
        return grads


class RationalQuadratic(Kernel):
    """ARD rational-quadratic kernel: a scale mixture of RBFs.

    ``k = sigma_f^2 (1 + r^2 / (2 alpha))^(-alpha)`` with the ARD scaled
    squared distance ``r^2``.  The mixture parameter ``alpha`` is a fixed
    constructor argument (not optimized), matching common BO practice.
    """

    def __init__(self, input_dim, lengthscales=None, signal_variance=1.0,
                 alpha: float = 2.0):
        super().__init__(input_dim, lengthscales, signal_variance)
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.alpha = float(alpha)

    def _scaled_sq(self, x1, x2):
        return _sq_dists_per_dim(x1, x2) / np.exp(2.0 * self.log_lengthscales)

    def __call__(self, x1, x2=None):
        x1 = check_matrix_2d(x1, "x1", self.input_dim)
        x2 = x1 if x2 is None else check_matrix_2d(x2, "x2", self.input_dim)
        r2 = self._scaled_sq(x1, x2).sum(axis=2)
        return self.signal_variance * (1.0 + r2 / (2.0 * self.alpha)) ** (-self.alpha)

    def gradients(self, x):
        x = check_matrix_2d(x, "x", self.input_dim)
        per_dim = self._scaled_sq(x, x)
        r2 = per_dim.sum(axis=2)
        base = 1.0 + r2 / (2.0 * self.alpha)
        k = self.signal_variance * base ** (-self.alpha)
        # dk/d log l_d = k * alpha * (per_dim_d / alpha) / base = k * per_dim_d / base
        grads = np.empty((self.n_params, x.shape[0], x.shape[0]))
        for d in range(self.input_dim):
            grads[d] = k * per_dim[:, :, d] / base
        grads[self.input_dim] = k
        return grads


KERNELS = {
    "rbf": RBF,
    "gaussian": RBF,
    "matern52": Matern52,
    "rq": RationalQuadratic,
}


def make_kernel(name: str, input_dim: int, **kwargs) -> Kernel:
    """Construct a kernel by lowercase name (``rbf``/``gaussian``/``matern52``)."""
    try:
        cls = KERNELS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown kernel {name!r}; choose from {sorted(KERNELS)}"
        ) from None
    return cls(input_dim, **kwargs)
