"""The per-member NN-GP engine: the reference the stacked engine is pinned to.

``repro.core`` trains the paper's surrogate (Sec. III) one way: every
ensemble member of every modelled quantity is a slice of one stacked
program (:class:`~repro.core.batched_gp.SurrogateBank`,
:class:`~repro.core.trainer.BatchedFeatureGPTrainer`).  This module keeps
the engine it replaced, one model at a time, so the equivalence tests can
check the stacked engine slice for slice against it:

* :class:`NeuralFeatureGP` — weight-space GP over learned features
  (eq. 8-11), with its own :class:`Sequential` network (:func:`make_mlp`,
  :class:`Linear`, the six numpy activation layers);
* :class:`FeatureGPTrainer` — per-member likelihood training (eq. 12) with
  a scalar :class:`Adam` and the optional MSE warm start (:func:`mse_loss`);
* :class:`DeepEnsemble` — moment matching over K members (eq. 13);
* :func:`serial_reference_bank` — per-member models seeded exactly like a
  bank's slices.

It sits at the root of ``tests/``: pytest puts that directory on
``sys.path`` when it loads ``tests/conftest.py``, before collecting any
test directory, and ``benchmarks/conftest.py`` adds it for the benches.
Import it as ``per_member_engine``.  The code is the one-at-a-time engine
as it ran in ``repro.core``/``repro.nn``, moved without edits apart from
dropping ``NeuralFeatureGP.condition_on`` and the optimizer base class;
change it only together with the stacked engine.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg as sla

from repro.core.trainer import LOG_NOISE_BOUNDS, LOG_PRIOR_BOUNDS
from repro.gp.linalg import jitter_cholesky, log_det_from_cholesky
from repro.nn.initializers import he_normal, xavier_uniform
from repro.nn.layers import Layer
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.scaling import StandardScaler
from repro.utils.validation import check_finite, check_matrix_2d, check_vector_1d



# -- activations (numpy) -----------------------------------------------------------


class _Activation(Layer):
    """Common caching logic for parameter-free element-wise layers."""

    def __init__(self):
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = np.asarray(x, dtype=float)
        return self._value(self._x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward() called before forward()")
        return np.asarray(grad_out, dtype=float) * self._derivative(self._x)

    def _value(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _derivative(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:
        return type(self).__name__ + "()"


class ReLU(_Activation):
    """Rectified linear unit — the activation in the paper's Fig. 1 network."""

    def _value(self, x):
        return np.maximum(x, 0.0)

    def _derivative(self, x):
        return (x > 0.0).astype(float)


class LeakyReLU(_Activation):
    """Leaky rectifier; ``alpha`` is the negative-side slope."""

    def __init__(self, alpha: float = 0.01):
        super().__init__()
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        self.alpha = float(alpha)

    def _value(self, x):
        return np.where(x > 0.0, x, self.alpha * x)

    def _derivative(self, x):
        return np.where(x > 0.0, 1.0, self.alpha)

    def __repr__(self) -> str:
        return f"LeakyReLU(alpha={self.alpha})"


class Tanh(_Activation):
    """Hyperbolic tangent (DNGO's choice; available for ablations)."""

    def _value(self, x):
        return np.tanh(x)

    def _derivative(self, x):
        return 1.0 - np.tanh(x) ** 2


class Sigmoid(_Activation):
    """Logistic sigmoid."""

    def _value(self, x):
        return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))

    def _derivative(self, x):
        s = self._value(x)
        return s * (1.0 - s)


class Softplus(_Activation):
    """Smooth rectifier ``log(1 + exp(x))``; numerically stabilized."""

    def _value(self, x):
        return np.logaddexp(0.0, x)

    def _derivative(self, x):
        return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


class Identity(_Activation):
    """Pass-through layer (linear output layer marker)."""

    def _value(self, x):
        return x

    def _derivative(self, x):
        return np.ones_like(x)


ACTIVATIONS = {
    "relu": ReLU,
    "leaky_relu": LeakyReLU,
    "tanh": Tanh,
    "sigmoid": Sigmoid,
    "softplus": Softplus,
    "identity": Identity,
}


def make_activation(name: str) -> Layer:
    """Construct an activation layer from its lowercase name."""
    try:
        return ACTIVATIONS[name.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r}; choose from {sorted(ACTIVATIONS)}"
        ) from None


# -- layers and networks -----------------------------------------------------------


class Linear(Layer):
    """Fully-connected layer ``y = x @ W + b``.

    Parameters
    ----------
    in_dim, out_dim:
        Input/output widths.
    weight_init:
        Callable ``(shape, rng) -> ndarray`` for the weight matrix.
    rng:
        Generator used for the random initialization (ensemble members pass
        independent generators, paper Sec. III-C).
    """

    def __init__(self, in_dim: int, out_dim: int, weight_init=he_normal, rng=None):
        if in_dim <= 0 or out_dim <= 0:
            raise ValueError(f"layer dims must be positive, got {in_dim}x{out_dim}")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weight = np.asarray(weight_init((in_dim, out_dim), rng), dtype=float)
        self.bias = np.zeros(out_dim)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(
                f"Linear({self.in_dim}->{self.out_dim}) got input shape {x.shape}"
            )
        self._x = x
        return x @ self.weight + self.bias

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward() called before forward()")
        grad_out = np.asarray(grad_out, dtype=float)
        self.grad_weight += self._x.T @ grad_out
        self.grad_bias += grad_out.sum(axis=0)
        return grad_out @ self.weight.T

    @property
    def params(self) -> list[np.ndarray]:
        return [self.weight, self.bias]

    @property
    def grads(self) -> list[np.ndarray]:
        return [self.grad_weight, self.grad_bias]

    def __repr__(self) -> str:
        return f"Linear({self.in_dim}, {self.out_dim})"


class Sequential(Layer):
    """A stack of layers applied in order.

    Supports the full :class:`Layer` protocol, so sequentials nest.
    """

    def __init__(self, layers: list[Layer]):
        if not layers:
            raise ValueError("Sequential requires at least one layer")
        self.layers = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(x, dtype=float)
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad = np.asarray(grad_out, dtype=float)
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    @property
    def params(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params]

    @property
    def grads(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads]

    # -- flat-vector access --------------------------------------------------

    @property
    def num_params(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.size for p in self.params)

    def get_flat_params(self) -> np.ndarray:
        """Concatenate all parameters into one 1-D vector."""
        if not self.params:
            return np.empty(0)
        return np.concatenate([p.ravel() for p in self.params])

    def set_flat_params(self, flat: np.ndarray):
        """Write a flat vector back into the live parameter arrays."""
        flat = np.asarray(flat, dtype=float).ravel()
        if flat.size != self.num_params:
            raise ValueError(
                f"expected {self.num_params} parameters, got {flat.size}"
            )
        offset = 0
        for p in self.params:
            p[...] = flat[offset : offset + p.size].reshape(p.shape)
            offset += p.size

    def get_flat_grads(self) -> np.ndarray:
        """Concatenate all parameter gradients into one 1-D vector."""
        if not self.grads:
            return np.empty(0)
        return np.concatenate([g.ravel() for g in self.grads])

    def __repr__(self) -> str:
        inner = ", ".join(repr(layer) for layer in self.layers)
        return f"Sequential([{inner}])"


def make_mlp(
    input_dim: int,
    hidden_dims: tuple[int, ...] | list[int],
    output_dim: int,
    activation: str = "relu",
    output_activation: str = "identity",
    rng=None,
) -> Sequential:
    """Build the paper's fully-connected feature network (Fig. 1).

    The default configuration — two hidden layers plus input and output
    layers, ReLU activations — matches Sec. III-A: "The neural network
    consists of 4 fully-connected layers including a input layer, 2 hidden
    layers and a output layer. ReLU function is taken as activation
    function."

    Parameters
    ----------
    input_dim:
        Design-space dimension ``d``.
    hidden_dims:
        Widths of the hidden layers.
    output_dim:
        Feature dimension ``M`` of the map ``phi(x)``.
    activation:
        Hidden-layer activation name (default ``"relu"``).
    output_activation:
        Activation after the last linear layer.  ``"identity"`` keeps the
        feature space unbounded; ``"tanh"`` gives DNGO-style basis functions.
    rng:
        Seed or generator for weight initialization.
    """
    rng = ensure_rng(rng)
    if input_dim <= 0 or output_dim <= 0:
        raise ValueError("input_dim and output_dim must be positive")
    dims = [int(input_dim), *[int(h) for h in hidden_dims], int(output_dim)]
    if any(d <= 0 for d in dims):
        raise ValueError(f"all layer widths must be positive, got {dims}")

    init = he_normal if activation in ("relu", "leaky_relu") else xavier_uniform
    layers: list[Layer] = []
    for i in range(len(dims) - 1):
        layers.append(Linear(dims[i], dims[i + 1], weight_init=init, rng=rng))
        is_last = i == len(dims) - 2
        name = output_activation if is_last else activation
        if name != "identity":
            layers.append(make_activation(name))
    return Sequential(layers)


# -- optimizer and loss ------------------------------------------------------------


class Adam:
    """Adam (Kingma & Ba 2015) with bias-corrected moment estimates.

    This is the workhorse for maximizing the marginal likelihood (eq. 11):
    the loss surface couples network weights with ``log sigma^2`` terms of very
    different curvature, which per-coordinate step adaptation handles well.
    """

    def __init__(
        self,
        lr: float = 1e-2,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None
        self._t = 0

    def step(self, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
        params = np.asarray(params, dtype=float)
        grads = np.asarray(grads, dtype=float)
        if self._m is None or self._m.shape != params.shape:
            self._m = np.zeros_like(params)
            self._v = np.zeros_like(params)
            self._t = 0
        self._t += 1
        self._m = self.beta1 * self._m + (1.0 - self.beta1) * grads
        self._v = self.beta2 * self._v + (1.0 - self.beta2) * grads**2
        m_hat = self._m / (1.0 - self.beta1**self._t)
        v_hat = self._v / (1.0 - self.beta2**self._t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def reset(self):
        self._m = None
        self._v = None
        self._t = 0


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error and its gradient w.r.t. ``pred``.

    Returns
    -------
    (loss, grad):
        ``loss`` is the scalar mean of squared residuals over all elements;
        ``grad`` has the shape of ``pred``.
    """
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs target {target.shape}")
    residual = pred - target
    loss = float(np.mean(residual**2))
    grad = 2.0 * residual / residual.size
    return loss, grad


# -- model, trainer, ensemble ------------------------------------------------------


class NeuralFeatureGP:
    """GP regression model whose kernel is learned by a neural network.

    Parameters
    ----------
    input_dim:
        Design-space dimension ``d``.
    hidden_dims:
        Hidden-layer widths of the feature network; the default ``(50, 50)``
        realizes the paper's 4-layer fully-connected architecture (Fig. 1).
    n_features:
        Width ``M`` of the feature layer phi(x) (before the optional bias
        column).
    activation:
        Hidden activation; the paper uses ReLU.
    add_bias_feature:
        Append a constant-1 feature so the Bayesian linear head can express
        a learned constant mean (the classic GP baseline gets an explicit
        ``mu_0`` instead).
    noise_variance, prior_variance:
        Initial sigma_n^2 and sigma_p^2.
    normalize_y:
        Z-score targets internally before fitting.
    seed:
        Seed/generator for weight initialization; ensemble members pass
        independent generators (Sec. III-C).
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dims: tuple[int, ...] = (50, 50),
        n_features: int = 50,
        activation: str = "relu",
        output_activation: str = "tanh",
        add_bias_feature: bool = True,
        noise_variance: float = 1e-2,
        prior_variance: float = 1.0,
        normalize_y: bool = True,
        seed=None,
    ):
        if noise_variance <= 0 or prior_variance <= 0:
            raise ValueError("noise_variance and prior_variance must be positive")
        self.input_dim = int(input_dim)
        self.n_features = int(n_features)
        self.add_bias_feature = bool(add_bias_feature)
        self.normalize_y = bool(normalize_y)
        rng = ensure_rng(seed)
        self.network: Sequential = make_mlp(
            input_dim,
            hidden_dims,
            n_features,
            activation=activation,
            output_activation=output_activation,
            rng=rng,
        )
        self.log_noise_variance = float(np.log(noise_variance))
        self.log_prior_variance = float(np.log(prior_variance))
        self._y_scaler = StandardScaler()
        self._x_train: np.ndarray | None = None
        self._z_train: np.ndarray | None = None
        self._chol_a: np.ndarray | None = None
        self._coef_r: np.ndarray | None = None

    # -- basic properties -------------------------------------------------------

    @property
    def feature_dim(self) -> int:
        """Total feature dimension M (including the bias column if enabled)."""
        return self.n_features + (1 if self.add_bias_feature else 0)

    @property
    def noise_variance(self) -> float:
        """sigma_n^2 in normalized-target units."""
        return float(np.exp(self.log_noise_variance))

    @property
    def prior_variance(self) -> float:
        """sigma_p^2, the prior variance budget of the linear head."""
        return float(np.exp(self.log_prior_variance))

    @property
    def beta(self) -> float:
        """Regularizer ``M sigma_n^2 / sigma_p^2`` on the A-matrix diagonal."""
        return self.feature_dim * self.noise_variance / self.prior_variance

    @property
    def num_train(self) -> int:
        """Number of stored training points."""
        return 0 if self._x_train is None else self._x_train.shape[0]

    # -- feature map --------------------------------------------------------------

    def features(self, x: np.ndarray) -> np.ndarray:
        """Evaluate phi(x) for a batch; returns shape ``(n, M)``."""
        x = check_matrix_2d(x, "x", self.input_dim)
        feats = self.network.forward(x)
        if self.add_bias_feature:
            feats = np.hstack([feats, np.ones((feats.shape[0], 1))])
        return feats

    def backprop_feature_grad(self, grad_feats: np.ndarray) -> np.ndarray:
        """Back-propagate ``dL/dphi`` through the network (eq. 12).

        ``grad_feats`` has shape ``(n, M)``; the bias column's gradient (if
        present) is discarded because that feature is constant.  Network
        parameter gradients are accumulated in place and returned flat.
        """
        grad_feats = np.asarray(grad_feats, dtype=float)
        if self.add_bias_feature:
            grad_feats = grad_feats[:, :-1]
        self.network.zero_grad()
        self.network.backward(grad_feats)
        return self.network.get_flat_grads()

    # -- marginal likelihood (eq. 11) ----------------------------------------------

    def marginal_nll(
        self, feats: np.ndarray, z: np.ndarray, with_grads: bool = False
    ):
        """Negative log marginal likelihood of normalized targets ``z``.

        Parameters
        ----------
        feats:
            Feature matrix ``(N, M)`` — i.e. ``Phi^T`` in the paper's column
            convention.
        z:
            Normalized targets, shape ``(N,)``.
        with_grads:
            If true, also return ``(dNLL/dfeats, dNLL/dlog sigma_n^2,
            dNLL/dlog sigma_p^2)``.

        Returns
        -------
        ``nll`` or ``(nll, dfeats, dlog_noise, dlog_prior)``.
        """
        feats = np.asarray(feats, dtype=float)
        z = check_vector_1d(z, "z", length=feats.shape[0])
        n, m = feats.shape
        if m != self.feature_dim:
            raise ValueError(f"expected {self.feature_dim} features, got {m}")
        sn2 = self.noise_variance
        beta = self.beta
        a_mat = feats.T @ feats + beta * np.eye(m)
        chol = jitter_cholesky(a_mat)
        u = feats.T @ z
        r = sla.cho_solve((chol, True), u)
        quad = float(z @ z - u @ r)
        nll = (
            0.5 * quad / sn2
            + 0.5 * log_det_from_cholesky(chol)
            - 0.5 * m * np.log(beta)
            + 0.5 * n * np.log(2.0 * np.pi * sn2)
        )
        if not with_grads:
            return nll

        a_inv = sla.cho_solve((chol, True), np.eye(m))
        resid = z - feats @ r
        dfeats = -np.outer(resid, r) / sn2 + feats @ a_inv
        dbeta = (
            0.5 * float(r @ r) / sn2
            + 0.5 * float(np.trace(a_inv))
            - 0.5 * m / beta
        )
        dlog_noise = -0.5 * quad / sn2 + 0.5 * n + beta * dbeta
        dlog_prior = -beta * dbeta
        return nll, dfeats, dlog_noise, dlog_prior

    # -- fitting --------------------------------------------------------------------

    def fit(self, x: np.ndarray, y: np.ndarray, trainer=None) -> "NeuralFeatureGP":
        """Train hyper-parameters on data and compute the posterior.

        ``trainer`` defaults to :class:`FeatureGPTrainer`
        with its stock settings; pass a configured instance to control
        epochs, learning rate or MSE pre-training.
        """
        x = check_matrix_2d(x, "x", self.input_dim)
        y = check_vector_1d(y, "y", length=x.shape[0])
        check_finite(x, "x")
        check_finite(y, "y")
        if x.shape[0] < 2:
            raise ValueError("NeuralFeatureGP needs at least 2 training points")
        self._x_train = x
        if self.normalize_y:
            self._z_train = self._y_scaler.fit_transform(y)
        else:
            self._y_scaler.fit(np.array([0.0, 1.0]))
            self._y_scaler.mean_, self._y_scaler.scale_ = 0.0, 1.0
            self._z_train = y.copy()
        if trainer is None:
            trainer = FeatureGPTrainer()
        trainer.train(self, x, self._z_train)
        self.update_posterior()
        return self

    def update_posterior(self):
        """(Re)compute the cached ``A`` factorization for predictions.

        Exposed separately from :meth:`fit` so the trainer can refresh the
        posterior cheaply during incremental refits.
        """
        if self._x_train is None:
            raise RuntimeError("no training data; call fit() first")
        feats = self.features(self._x_train)
        m = feats.shape[1]
        a_mat = feats.T @ feats + self.beta * np.eye(m)
        self._chol_a = jitter_cholesky(a_mat)
        self._coef_r = sla.cho_solve((self._chol_a, True), feats.T @ self._z_train)

    # -- prediction (eq. 10) -----------------------------------------------------------

    def predict(
        self, x: np.ndarray, include_noise: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at query points, in original units.

        ``include_noise`` adds sigma_n^2 (the paper's eq. 10 includes it; for
        acquisition optimization the latent-function variance is standard).
        """
        self._require_fitted()
        feats = self.features(x)
        z_mean = feats @ self._coef_r
        v = sla.solve_triangular(self._chol_a, feats.T, lower=True)
        z_var = self.noise_variance * np.sum(v**2, axis=0)
        if include_noise:
            z_var = z_var + self.noise_variance
        z_var = np.maximum(z_var, 1e-14)
        mean = self._y_scaler.inverse_transform(z_mean)
        var = self._y_scaler.inverse_transform_variance(z_var)
        return mean, var

    def sample_head_weights(self, n_samples: int, rng=None) -> np.ndarray:
        """Draw posterior samples of the linear-head weights ``w`` (eq. 8).

        Useful for Thompson-sampling style acquisition experiments; returns
        shape ``(n_samples, M)`` in normalized-target units.
        """
        self._require_fitted()
        rng = ensure_rng(rng)
        m = self.feature_dim
        # posterior covariance of w is sigma_n^2 A^{-1}
        eye = np.eye(m)
        a_inv_half = sla.solve_triangular(self._chol_a, eye, lower=True)
        cov_half = np.sqrt(self.noise_variance) * a_inv_half.T
        noise = rng.standard_normal((n_samples, m))
        return self._coef_r[None, :] + noise @ cov_half.T

    def _require_fitted(self):
        if self._chol_a is None or self._coef_r is None:
            raise RuntimeError("model not fitted; call fit() first")

    def __repr__(self) -> str:
        return (
            f"NeuralFeatureGP(d={self.input_dim}, M={self.feature_dim}, "
            f"sigma_n^2={self.noise_variance:.3g}, sigma_p^2={self.prior_variance:.3g})"
        )


class FeatureGPTrainer:
    """Gradient-based maximum-likelihood trainer for :class:`NeuralFeatureGP`.

    Parameters
    ----------
    epochs:
        Number of full-batch NLL gradient steps.
    lr:
        Adam learning rate for the joint parameter vector.
    pretrain_epochs:
        If positive, first run this many MSE steps with a temporary linear
        head (DNGO-style warm start), then switch to NLL training.
    pretrain_lr:
        Learning rate for the pre-training phase.
    patience:
        Early-stopping patience: training stops when the best NLL has not
        improved for this many epochs (``None`` disables).
    seed:
        RNG seed for the pre-training head initialization.
    """

    def __init__(
        self,
        epochs: int = 500,
        lr: float = 5e-3,
        pretrain_epochs: int = 0,
        pretrain_lr: float = 1e-2,
        patience: int | None = 100,
        seed=None,
    ):
        if epochs < 0 or pretrain_epochs < 0:
            raise ValueError("epoch counts must be non-negative")
        self.epochs = int(epochs)
        self.lr = float(lr)
        self.pretrain_epochs = int(pretrain_epochs)
        self.pretrain_lr = float(pretrain_lr)
        self.patience = patience
        self._rng = ensure_rng(seed)
        self.loss_history: list[float] = []

    # -- public API -------------------------------------------------------------

    def train(self, model: NeuralFeatureGP, x: np.ndarray, z: np.ndarray) -> float:
        """Run (optional pre-training and) NLL training; return the best NLL.

        ``z`` must already be in the model's normalized-target units: this
        is the contract with :meth:`NeuralFeatureGP.fit`, which owns the
        scaler.
        """
        x = check_matrix_2d(x, "x", model.input_dim)
        z = check_vector_1d(z, "z", length=x.shape[0])
        self.loss_history = []
        if self.pretrain_epochs > 0:
            self._pretrain(model, x, z)
        if self.epochs > 0:
            return self._train_nll(model, x, z)
        feats = model.features(x)
        return float(model.marginal_nll(feats, z))

    # -- phases -----------------------------------------------------------------

    def _pretrain(self, model: NeuralFeatureGP, x: np.ndarray, z: np.ndarray):
        """MSE warm start with a throwaway linear head on top of phi(x)."""
        head = Linear(model.n_features, 1, rng=self._rng)
        optimizer = Adam(lr=self.pretrain_lr)
        net = model.network
        params = np.concatenate(
            [net.get_flat_params(), head.weight.ravel(), head.bias.ravel()]
        )
        n_net = net.num_params
        target = z.reshape(-1, 1)
        for _ in range(self.pretrain_epochs):
            net.set_flat_params(params[:n_net])
            head.weight[...] = params[n_net:-1].reshape(head.weight.shape)
            head.bias[...] = params[-1:]
            feats = net.forward(x)
            pred = head.forward(feats)
            _, grad_pred = mse_loss(pred, target)
            head.zero_grad()
            grad_feats = head.backward(grad_pred)
            net.zero_grad()
            net.backward(grad_feats)
            grads = np.concatenate(
                [net.get_flat_grads(), head.grad_weight.ravel(), head.grad_bias.ravel()]
            )
            params = optimizer.step(params, grads)
        net.set_flat_params(params[:n_net])

    def _train_nll(self, model: NeuralFeatureGP, x: np.ndarray, z: np.ndarray) -> float:
        """Full-batch Adam on ``[log sigma_n^2, log sigma_p^2, eta]``."""
        optimizer = Adam(lr=self.lr)
        net = model.network
        params = np.concatenate(
            [
                [model.log_noise_variance, model.log_prior_variance],
                net.get_flat_params(),
            ]
        )
        best_nll = np.inf
        best_params = params.copy()
        stall = 0
        for _ in range(self.epochs):
            self._write_params(model, params)
            feats = model.features(x)
            nll, dfeats, d_log_noise, d_log_prior = model.marginal_nll(
                feats, z, with_grads=True
            )
            self.loss_history.append(float(nll))
            if not np.isfinite(nll):
                # a bad step can overflow the likelihood; restart from best
                params = best_params.copy()
                optimizer.reset()
                stall += 1
                if self.patience is not None and stall > self.patience:
                    break
                continue
            if nll < best_nll - 1e-9:
                best_nll = float(nll)
                best_params = params.copy()
                stall = 0
            else:
                stall += 1
                if self.patience is not None and stall > self.patience:
                    break
            grad_eta = model.backprop_feature_grad(dfeats)
            grads = np.concatenate([[d_log_noise, d_log_prior], grad_eta])
            params = optimizer.step(params, grads)
            params[0] = np.clip(params[0], *LOG_NOISE_BOUNDS)
            params[1] = np.clip(params[1], *LOG_PRIOR_BOUNDS)
        self._write_params(model, best_params)
        if np.isfinite(best_nll):
            return best_nll
        feats = model.features(x)
        return float(model.marginal_nll(feats, z))

    @staticmethod
    def _write_params(model: NeuralFeatureGP, params: np.ndarray):
        model.log_noise_variance = float(params[0])
        model.log_prior_variance = float(params[1])
        model.network.set_flat_params(params[2:])


class DeepEnsemble:
    """Moment-matched ensemble of probabilistic regression models.

    Members can be any objects implementing ``fit(x, y)`` and
    ``predict(x) -> (mean, var)`` — in the paper they are
    :class:`NeuralFeatureGP` instances.
    """

    def __init__(self, members: list):
        if not members:
            raise ValueError("ensemble needs at least one member")
        self.members = list(members)

    @classmethod
    def create(cls, factory, n_members: int = 5, seed=None) -> "DeepEnsemble":
        """Build K members via ``factory(rng)`` with independent streams.

        ``factory`` receives a :class:`numpy.random.Generator` it must use
        for weight initialization, realizing the paper's "randomly
        initializing the hyper parameters" per member.
        """
        if n_members < 1:
            raise ValueError(f"n_members must be >= 1, got {n_members}")
        rngs = spawn_rngs(seed, n_members)
        return cls([factory(rng) for rng in rngs])

    @property
    def n_members(self) -> int:
        """Number of ensemble members K."""
        return len(self.members)

    def fit(self, x: np.ndarray, y: np.ndarray, **fit_kwargs) -> "DeepEnsemble":
        """Fit every member on the same dataset.

        The paper notes members can be trained in parallel; we train
        serially for determinism (each member still has an independent
        random initialization).
        """
        for member in self.members:
            member.fit(x, y, **fit_kwargs)
        return self

    def predict(self, x: np.ndarray, **predict_kwargs) -> tuple[np.ndarray, np.ndarray]:
        """Combined predictive mean and variance per eq. 13."""
        means = []
        variances = []
        for member in self.members:
            mu_k, var_k = member.predict(x, **predict_kwargs)
            means.append(np.asarray(mu_k, dtype=float))
            variances.append(np.asarray(var_k, dtype=float))
        mean_stack = np.stack(means)  # (K, n)
        var_stack = np.stack(variances)
        mu = mean_stack.mean(axis=0)
        second_moment = (mean_stack**2 + var_stack).mean(axis=0)
        var = np.maximum(second_moment - mu**2, 1e-14)
        return mu, var

    def member_predictions(
        self, x: np.ndarray, **predict_kwargs
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-member means and variances, shape ``(K, n)`` each."""
        means = []
        variances = []
        for member in self.members:
            mu_k, var_k = member.predict(x, **predict_kwargs)
            means.append(np.asarray(mu_k, dtype=float))
            variances.append(np.asarray(var_k, dtype=float))
        return np.stack(means), np.stack(variances)

    def __repr__(self) -> str:
        return f"DeepEnsemble(K={self.n_members}, member={type(self.members[0]).__name__})"


def serial_reference_bank(
    input_dim: int,
    n_targets: int,
    n_members: int = 5,
    member_kwargs: dict | None = None,
    seed=None,
) -> list[list[NeuralFeatureGP]]:
    """Per-member models seeded identically to a :class:`SurrogateBank`.

    Test/benchmark helper: returns ``models[t][k]`` constructed from the
    exact random streams bank slice ``t * K + k`` used, so serial and
    batched training can be compared one-to-one.
    """
    root = ensure_rng(seed)
    member_kwargs = dict(member_kwargs or {})
    models: list[list[NeuralFeatureGP]] = []
    for _ in range(n_targets):
        rngs = spawn_rngs(root, n_members)
        models.append(
            [NeuralFeatureGP(input_dim, seed=rng, **member_kwargs) for rng in rngs]
        )
    return models
