"""Batched surrogate engine: K x T neural-feature GPs as one tensor program.

The model (paper Sec. III-A)
----------------------------

Each slice is a Gaussian process whose latent function is a Bayesian
linear model over learned features,

    f(x) = w^T phi(x),        w ~ N(0, sigma_p^2 / M * I),          (eq. 8)

which induces the GP kernel ``k(x1, x2) = phi(x1)^T Sigma_p phi(x2)``
(eq. 9).  With ``Phi = [phi(x_1) ... phi(x_N)]`` (M x N) and

    A = Phi Phi^T + (M sigma_n^2 / sigma_p^2) I                     (M x M)

the posterior at a new point is (eq. 10)

    mu(x)      = phi(x)^T A^{-1} Phi y
    sigma^2(x) = sigma_n^2 + sigma_n^2 phi(x)^T A^{-1} phi(x)

and the marginal log-likelihood is eq. 11.  Everything is expressed through
the M x M matrix ``A``, so training cost is O(M^3 + N M^2) — *linear* in the
number of observations N — and prediction is O(M)/O(M^2) per point,
independent of N (Sec. III-D).

Gradient of the negative log-likelihood used for training (derived from
eq. 11 via matrix calculus; verified against finite differences in
``tests/core/test_feature_gp_grad.py``): with ``u = Phi y``, ``r = A^{-1} u``
and ``resid = y - Phi^T r``,

    dNLL/dPhi   = -(1/sigma_n^2) * r resid^T + A^{-1} Phi
    dNLL/dbeta  = r^T r / (2 sigma_n^2) + tr(A^{-1}) / 2 - M / (2 beta)
    dNLL/ds     = -(y^T y - u^T r) / (2 sigma_n^2) + N/2 + beta * dNLL/dbeta
    dNLL/dp     = -beta * dNLL/dbeta

where ``beta = M sigma_n^2 / sigma_p^2`` and ``s = log sigma_n^2``,
``p = log sigma_p^2``.

Performance architecture — the stack axis ``(S, ...)``
------------------------------------------------------

One BO iteration of the paper's method fits ``S = K * T`` neural-feature
GPs: K = 5 ensemble members (Sec. III-C) for each of T modelled quantities
(the objective plus every constraint — six for the Table II charge pump).
A loop over the members would re-enter Python for every epoch of every
model; this module instead trains all S models simultaneously over
stacked tensors:

* network weights: ``(S, in_dim, out_dim)`` (``repro.nn.batched``),
* features: ``(S, N, M)``,
* A-matrices and Cholesky factors: ``(S, M, M)``, factorized slice by
  slice via ``repro.gp.linalg.lapack_jitter_cholesky``,
* GP scale hyper-parameters and per-slice losses: ``(S,)``.

Slice ``s = t * K + k`` is member ``k`` of target ``t``.  Every stacked
operation applies, slice by slice, the identical kernel a one-model-at-a-
time implementation uses, so the engine is *numerically equivalent* to
the member-by-member loop — the per-member reference engine kept in
``tests/per_member_engine.py`` (pinned to <= 1e-8, means bitwise, by
``tests/core/test_batched_gp.py`` and ``benchmarks/bench_batched_engine.py``)
— while removing the Python-level K x T x epochs loop from the hot path.

The same per-slice property lets one fit use every core: on the numpy
backend the trainer splits the S slices into contiguous groups, trains
group 0 in the calling thread with BLAS pinned to one thread and the
others in process-wide slice workers, and merges the groups bitwise
(:mod:`repro.core.slice_workers`).  Stacked LAPACK and per-slice threads
were measured and lose at M ~ 50; BLAS's own threads buy at most ~10%.

Two classes realize the engine:

* :class:`BatchedNeuralFeatureGP` — S independent neural-feature GPs
  sharing one training input matrix (the paper's surrogate, eq. 8-11, with
  a stack axis).
* :class:`SurrogateBank` — the modelling front-end used by the BO loop: it
  owns the target layout, fits objective and constraint ensembles in one
  call, and exposes moment-matched predictions (eq. 13) for one target or
  a contiguous range of targets, computing only those targets' slices.
"""

from __future__ import annotations

import numpy as np

from scipy.linalg import lapack as _lapack

from repro.backend import resolve_namespace
from repro.core.trainer import BatchedFeatureGPTrainer
from repro.gp.linalg import (
    lapack_jitter_cholesky,
    log_det_from_cholesky,
    solve_r_and_inverse,
)
from repro.nn.batched import BatchedSequential, make_batched_mlp
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.scaling import StandardScaler
from repro.utils.validation import check_finite, check_matrix_2d


def _resolve_rngs(seed, count: int) -> list[np.random.Generator]:
    """One generator per slice from a seed, generator, or explicit list.

    Passing an explicit sequence lets callers pin each slice's stream,
    e.g. to match a per-member model seeded with the same generator.
    """
    if isinstance(seed, (list, tuple)):
        if len(seed) != count:
            raise ValueError(f"expected {count} slice rngs, got {len(seed)}")
        return [ensure_rng(s) for s in seed]
    return spawn_rngs(seed, count)


class BatchedNeuralFeatureGP:
    """S neural-feature GPs trained and queried through stacked tensors.

    Semantically this is a list of S independent GP regression models
    whose kernels are learned by neural networks (see the module
    docstring); they share the same training inputs ``x`` but may have
    distinct targets, weights, and GP scales.  All state carries the
    leading stack axis: slice ``s`` of every array belongs to model ``s``,
    and evolves exactly as a standalone model seeded with ``rngs[s]``
    would.  ``n_stack=1`` is a single model.

    Parameters
    ----------
    input_dim:
        Design-space dimension ``d``.
    n_stack:
        Number of stacked models S.
    hidden_dims:
        Hidden-layer widths of the feature networks; the default
        ``(50, 50)`` realizes the paper's 4-layer fully-connected
        architecture (Fig. 1).
    n_features:
        Width ``M`` of the feature layer phi(x) (before the optional bias
        column).
    activation, output_activation:
        Hidden and feature-layer activations; the paper uses ReLU hidden
        layers.
    add_bias_feature:
        Append a constant-1 feature so the Bayesian linear head can express
        a learned constant mean (the classic GP baseline gets an explicit
        ``mu_0`` instead).
    noise_variance, prior_variance:
        Initial sigma_n^2 and sigma_p^2 of every slice.
    normalize_y:
        Z-score each slice's targets internally before fitting.
    seed:
        Seed/generator for weight initialization, spawned into one stream
        per slice, or a sequence of ``n_stack`` generators for explicit
        slice streams; ensemble members get independent streams
        (Sec. III-C).
    backend:
        The array namespace all stacked tensors live in
        (:mod:`repro.backend`); ``None`` is the reference numpy path.
    """

    def __init__(
        self,
        input_dim: int,
        n_stack: int,
        hidden_dims: tuple[int, ...] = (50, 50),
        n_features: int = 50,
        activation: str = "relu",
        output_activation: str = "tanh",
        add_bias_feature: bool = True,
        noise_variance: float = 1e-2,
        prior_variance: float = 1.0,
        normalize_y: bool = True,
        seed=None,
        backend=None,
    ):
        if n_stack < 1:
            raise ValueError(f"n_stack must be >= 1, got {n_stack}")
        if noise_variance <= 0 or prior_variance <= 0:
            raise ValueError("noise_variance and prior_variance must be positive")
        self.xb = resolve_namespace(backend)
        self.input_dim = int(input_dim)
        self.n_stack = int(n_stack)
        self.n_features = int(n_features)
        self.add_bias_feature = bool(add_bias_feature)
        self.normalize_y = bool(normalize_y)
        rngs = _resolve_rngs(seed, self.n_stack)
        self.network: BatchedSequential = make_batched_mlp(
            input_dim,
            hidden_dims,
            n_features,
            rngs,
            activation=activation,
            output_activation=output_activation,
            backend=self.xb,
        )
        self.log_noise_variance = self.xb.full(self.n_stack, float(np.log(noise_variance)))
        self.log_prior_variance = self.xb.full(self.n_stack, float(np.log(prior_variance)))
        self._y_mean = self.xb.zeros(self.n_stack)
        self._y_scale = self.xb.ones(self.n_stack)
        self._x_train: np.ndarray | None = None
        self._z_train = None
        self._x_fantasy: list[np.ndarray] = []
        self._z_fantasy: list = []
        self._chol_a = None
        self._coef_r = None
        self._a_inv = None
        self._predictive = None

    # -- basic properties -------------------------------------------------------

    @property
    def feature_dim(self) -> int:
        """Total feature dimension M (including the bias column if enabled)."""
        return self.n_features + (1 if self.add_bias_feature else 0)

    @property
    def noise_variance(self) -> np.ndarray:
        """Per-slice sigma_n^2 in normalized-target units, shape ``(S,)``."""
        return self.xb.exp(self.log_noise_variance)

    @property
    def prior_variance(self) -> np.ndarray:
        """Per-slice sigma_p^2, shape ``(S,)``."""
        return self.xb.exp(self.log_prior_variance)

    @property
    def beta(self) -> np.ndarray:
        """Per-slice A-matrix regularizer ``M sigma_n^2 / sigma_p^2``."""
        return self.feature_dim * self.noise_variance / self.prior_variance

    @property
    def num_train(self) -> int:
        """Number of stored training points."""
        return 0 if self._x_train is None else self._x_train.shape[0]

    # -- feature map -------------------------------------------------------------

    def features(self, x: np.ndarray) -> np.ndarray:
        """Evaluate all S feature maps on one batch; returns ``(S, n, M)``."""
        x = check_matrix_2d(x, "x", self.input_dim)
        feats = self.network.forward(x)
        if self.add_bias_feature:
            ones = self.xb.ones((self.n_stack, feats.shape[1], 1))
            feats = self.xb.concatenate([feats, ones], axis=2)
        return feats

    def backprop_feature_grad(self, grad_feats: np.ndarray) -> np.ndarray:
        """Back-propagate stacked ``dL/dphi``; returns ``(S, P)`` gradients."""
        grad_feats = self.xb.asarray(grad_feats, dtype=float)
        if self.add_bias_feature:
            grad_feats = grad_feats[:, :, :-1]
        self.network.zero_grad()
        self.network.backward(grad_feats)
        return self.network.get_stacked_grads()

    # -- marginal likelihood (eq. 11, per slice) ----------------------------------

    def marginal_nll(self, feats: np.ndarray, z: np.ndarray, with_grads: bool = False):
        """Per-slice negative log marginal likelihood of normalized targets.

        ``feats`` has shape ``(S, N, M)`` and ``z`` shape ``(S, N)``.
        Returns ``nll`` of shape ``(S,)``, or with gradients
        ``(nll, dfeats (S, N, M), dlog_noise (S,), dlog_prior (S,))``.

        The M-dimensional reductions (dot products, traces) run per slice:
        at M ~ 50 they are negligible next to the stacked GEMMs, and the
        per-slice BLAS calls keep every value bitwise identical to a
        one-model computation.
        """
        xb = self.xb
        feats = xb.asarray(feats, dtype=float)
        z = xb.asarray(z, dtype=float)
        if feats.ndim != 3 or feats.shape[0] != self.n_stack:
            raise ValueError(
                f"expected ({self.n_stack}, N, M) feats, got {tuple(feats.shape)}"
            )
        if tuple(z.shape) != tuple(feats.shape[:2]):
            raise ValueError(
                f"expected z shape {tuple(feats.shape[:2])}, got {tuple(z.shape)}"
            )
        _, n, m = feats.shape
        if m != self.feature_dim:
            raise ValueError(f"expected {self.feature_dim} features, got {m}")
        s_stack = self.n_stack
        sn2 = self.noise_variance
        beta = self.beta
        feats_t = xb.swapaxes(feats, -1, -2)
        a_mat = feats_t @ feats + beta[:, None, None] * xb.eye(m)
        u = (feats_t @ z[..., None])[..., 0]

        if xb.is_numpy:
            # Per-slice M x M factorizations and solves through direct LAPACK
            # (dpotrf/dpotrs): bitwise identical to the serial scipy calls and
            # a rounding error next to the stacked GEMMs above.  With gradients
            # the solve for ``r`` and for ``A^{-1}`` share one dpotrs call on
            # the concatenated right-hand side ``[u | I]`` — column-independent,
            # so each column matches its standalone solve exactly.
            r = np.empty((s_stack, m))
            quad = np.empty(s_stack)
            logdet = np.empty(s_stack)
            gemm = np.empty_like(feats) if with_grads else None
            r_sq = np.empty(s_stack) if with_grads else None
            trace = np.empty(s_stack) if with_grads else None
            for s in range(s_stack):
                chol_s = lapack_jitter_cholesky(a_mat[s])
                logdet[s] = log_det_from_cholesky(chol_s)
                if with_grads:
                    r[s], a_inv_s = solve_r_and_inverse(chol_s, u[s])
                    gemm[s] = feats[s] @ a_inv_s
                    r_sq[s] = float(r[s] @ r[s])
                    trace[s] = float(np.trace(a_inv_s))
                else:
                    r[s], _ = _lapack.dpotrs(chol_s, u[s], lower=1)
                quad[s] = float(z[s] @ z[s] - u[s] @ r[s])
        else:
            # accelerator path: one fused factorization + solve for the whole
            # stack (numerical equivalence gated at 1e-5, not bitwise)
            chol = xb.batched_cholesky(a_mat)
            logdet = 2.0 * xb.sum(xb.log(xb.diagonal(chol)), axis=-1)
            if with_grads:
                r, a_inv = xb.batched_solve_r_and_inverse(chol, u)
                gemm = feats @ a_inv
                r_sq = xb.sum(r * r, axis=1)
                trace = xb.sum(xb.diagonal(a_inv), axis=-1)
            else:
                r = xb.batched_cholesky_solve(chol, u)
            quad = xb.sum(z * z, axis=1) - xb.sum(u * r, axis=1)
        nll = (
            0.5 * quad / sn2
            + 0.5 * logdet
            - 0.5 * m * xb.log(beta)
            + 0.5 * n * xb.log(2.0 * np.pi * sn2)
        )
        if not with_grads:
            return nll

        resid = z - (feats @ r[..., None])[..., 0]
        if xb.is_numpy:
            # dfeats = -(resid r^T) / sn2 + feats A^{-1}, fused in place to
            # avoid churning (S, N, M)-sized temporaries
            dfeats = resid[..., None] * r[:, None, :]
            np.negative(dfeats, out=dfeats)
            dfeats /= sn2[:, None, None]
            dfeats += gemm
        else:
            dfeats = gemm - resid[..., None] * r[:, None, :] / sn2[:, None, None]
        dbeta = 0.5 * r_sq / sn2 + 0.5 * trace - 0.5 * m / beta
        dlog_noise = -0.5 * quad / sn2 + 0.5 * n + beta * dbeta
        dlog_prior = -beta * dbeta
        return nll, dfeats, dlog_noise, dlog_prior

    # -- fitting -------------------------------------------------------------------

    def fit(self, x: np.ndarray, y: np.ndarray, trainer=None) -> "BatchedNeuralFeatureGP":
        """Train all S models on targets ``y`` of shape ``(S, N)`` or ``(N,)``.

        A 1-D ``y`` is shared by every slice (the ensemble case); an
        ``(S, N)`` matrix gives each slice its own targets (the bank case,
        where K consecutive slices repeat one target's data).  ``trainer``
        defaults to :class:`repro.core.trainer.BatchedFeatureGPTrainer`.
        """
        x = check_matrix_2d(x, "x", self.input_dim)
        y = np.asarray(y, dtype=float)
        if y.ndim == 1:
            y = np.repeat(y[None, :], self.n_stack, axis=0)
        if y.shape != (self.n_stack, x.shape[0]):
            raise ValueError(
                f"expected y shape ({self.n_stack}, {x.shape[0]}), got {y.shape}"
            )
        check_finite(x, "x")
        check_finite(y, "y")
        if x.shape[0] < 2:
            raise ValueError("BatchedNeuralFeatureGP needs at least 2 training points")
        self._x_train = x
        self._x_fantasy = []
        self._z_fantasy = []
        # normalization statistics are computed host-side (bitwise-stable
        # regardless of backend) and transferred with the targets
        if self.normalize_y:
            y_mean = np.mean(y, axis=1)
            y_scale = np.maximum(np.std(y, axis=1), StandardScaler._MIN_SCALE)
        else:
            y_mean = np.zeros(self.n_stack)
            y_scale = np.ones(self.n_stack)
        self._y_mean = self.xb.to_device(y_mean)
        self._y_scale = self.xb.to_device(y_scale)
        self._z_train = self.xb.to_device(
            (y - y_mean[:, None]) / y_scale[:, None]
        )
        if trainer is None:
            trainer = BatchedFeatureGPTrainer()
        trainer.train(self, x, self._z_train)
        self.update_posterior()
        return self

    def _posterior_data(self) -> tuple[np.ndarray, np.ndarray]:
        """Training arrays augmented with any fantasy observations."""
        if not self._x_fantasy:
            return self._x_train, self._z_train
        x = np.vstack([self._x_train, *self._x_fantasy])
        z = self.xb.concatenate(
            [self._z_train, self.xb.stack(self._z_fantasy, axis=1)], axis=1
        )
        return x, z

    def fantasize(self, x_new: np.ndarray, y_new: np.ndarray):
        """Condition the posterior on a fantasy observation (no retraining).

        ``x_new`` is one design point and ``y_new`` a per-slice target of
        shape ``(S,)`` in original units (normalized internally with the
        scaling statistics of the *real* fit — lies must not move the
        target normalization).  The network weights and GP scales are
        untouched: this is the constant-liar/Kriging-believer update used
        by q-point acquisition, where each pending evaluation temporarily
        behaves like data so the next pick avoids it.  Use
        :meth:`clear_fantasies` to restore the real posterior exactly.
        """
        self._require_fitted()
        x_new = np.asarray(x_new, dtype=float).reshape(1, -1)
        if x_new.shape[1] != self.input_dim:
            raise ValueError(f"expected a {self.input_dim}-dim point, got {x_new.shape}")
        y_new = np.asarray(y_new, dtype=float).ravel()
        if y_new.shape != (self.n_stack,):
            raise ValueError(f"expected ({self.n_stack},) targets, got {y_new.shape}")
        self._x_fantasy.append(x_new)
        self._z_fantasy.append((self.xb.asarray(y_new) - self._y_mean) / self._y_scale)
        self.update_posterior()

    def observe(self, x_new: np.ndarray, y_new: np.ndarray):
        """Permanently absorb one real observation, posterior-only.

        The asynchronous BO loop's ``"fantasy-only"`` refit policy: when
        an evaluation lands, its (real) values join the training set and
        the stacked ``A`` factorizations update — but the network weights,
        GP scales and target normalization stay exactly as the last full
        fit left them, so the absorb costs one forward pass plus the
        M x M refactorizations.  Unlike :meth:`fantasize`, the point
        survives :meth:`clear_fantasies`; a later :meth:`fit` (the
        periodic full refit) re-owns normalization and training.
        """
        self._require_fitted()
        x_new = np.asarray(x_new, dtype=float).reshape(1, -1)
        if x_new.shape[1] != self.input_dim:
            raise ValueError(f"expected a {self.input_dim}-dim point, got {x_new.shape}")
        y_new = np.asarray(y_new, dtype=float).ravel()
        if y_new.shape != (self.n_stack,):
            raise ValueError(f"expected ({self.n_stack},) targets, got {y_new.shape}")
        self._x_train = np.vstack([self._x_train, x_new])
        z_new = (self.xb.asarray(y_new) - self._y_mean) / self._y_scale
        self._z_train = self.xb.concatenate([self._z_train, z_new[:, None]], axis=1)
        self.update_posterior()

    def clear_fantasies(self, update: bool = True):
        """Drop all fantasy observations and restore the real posterior.

        ``update=False`` skips the posterior rebuild — for callers that
        immediately recondition (observe a landing, re-add a fresh pending
        set), where the intermediate fantasy-free posterior would be
        computed and thrown away unread.
        """
        if not self._x_fantasy:
            return
        self._x_fantasy = []
        self._z_fantasy = []
        if update:
            self.update_posterior()

    @property
    def n_fantasies(self) -> int:
        """Number of fantasy observations currently conditioning the posterior."""
        return len(self._x_fantasy)

    def update_posterior(self):
        """(Re)compute the stacked ``A`` factorizations for predictions."""
        if self._x_train is None:
            raise RuntimeError("no training data; call fit() first")
        xb = self.xb
        x_data, z_data = self._posterior_data()
        feats = self.features(x_data)
        m = feats.shape[2]
        feats_t = xb.swapaxes(feats, -1, -2)
        a_mat = feats_t @ feats + self.beta[:, None, None] * xb.eye(m)
        u = (feats_t @ z_data[..., None])[..., 0]
        # Cache A^{-1} per slice: predictive variances then cost one stacked
        # GEMM per query instead of S triangular-solve calls — the
        # acquisition maximizer issues thousands of single-point queries per
        # BO iteration, where per-call LAPACK overhead would dominate.  A is
        # regularized (beta floor + jitter ladder), so the explicit inverse
        # stays well within the engine's 1e-8 prediction tolerance.  On the
        # numpy backend these are the exact per-slice dpotrf/dpotrs loops;
        # accelerators run one fused batched factorization.
        self._chol_a = xb.batched_cholesky(a_mat)
        self._coef_r, self._a_inv = xb.batched_solve_r_and_inverse(self._chol_a, u)
        # predict's per-slice constants, shaped to broadcast over (S, n):
        # computed once per posterior instead of once per acquisition probe
        self._predictive = (
            self._coef_r[..., None],
            self._a_inv,
            self.noise_variance[:, None],
            self._y_scale[:, None],
            (self._y_scale**2)[:, None],
            self._y_mean[:, None],
        )

    # -- prediction (eq. 10, per slice) ---------------------------------------------

    def predict(
        self, x: np.ndarray, include_noise: bool = False, slices: slice = slice(None)
    ) -> tuple[np.ndarray, np.ndarray]:
        """Posterior means and variances of the slices ``slices``, each ``(S', n)``.

        ``slices`` is a contiguous run of the stack (all S slices by
        default).  The network and the cached posterior are read through
        basic-slice views, so each selected slice runs the same per-slice
        GEMMs as in the full pass, and its rows are bitwise the full pass's;
        the slices left out cost nothing.  Values are in each slice's
        original target units; the variance is the latent function's,
        ``include_noise`` adds sigma_n^2 (the paper's eq. 10 includes it;
        for acquisition optimization the latent-function variance is
        standard).
        """
        self._require_fitted()
        xb = self.xb
        # validated once here: the inference forward checks nothing
        x = xb.asarray(check_matrix_2d(x, "x", self.input_dim))
        feats = self.network.infer(x, slices)
        if self.add_bias_feature:
            ones = xb.ones((feats.shape[0], feats.shape[1], 1))
            feats = xb.concatenate([feats, ones], axis=2)
        coef, a_inv, sn2, scale, scale_sq, shift = self._predictive
        z_mean = (feats @ coef[slices])[..., 0]
        # sigma_n^2 phi^T A^{-1} phi via the cached stacked inverse (see
        # update_posterior); agrees with the serial Cholesky-solve route to
        # well below the engine's 1e-8 tolerance
        quad = xb.sum((feats @ a_inv[slices]) * feats, axis=2)
        z_var = sn2[slices] * quad
        if include_noise:
            z_var = z_var + sn2[slices]
        z_var = xb.maximum(z_var, 1e-14)
        mean = z_mean * scale[slices] + shift[slices]
        var = z_var * scale_sq[slices]
        # results return to the host: every consumer (moment matching,
        # acquisitions) runs numpy-side regardless of backend
        return xb.from_device(mean), xb.from_device(var)

    def sample_slice_weights(self, s: int, rng=None) -> np.ndarray:
        """Draw one posterior head-weight sample for slice ``s``, shape ``(M,)``.

        The posterior over the Bayesian-linear head is
        ``w ~ N(A^{-1} Phi z, sigma_n^2 A^{-1})`` (the weight-space view of
        eq. 10), so an exact function sample is O(M^2) — the cheap-Thompson
        payoff of the NN-feature GP.  Values are in normalized-target
        units; scale by ``_y_scale[s]`` / shift by ``_y_mean[s]`` to map a
        sampled function to original units.
        """
        self._require_fitted()
        if not 0 <= s < self.n_stack:
            raise IndexError(f"slice {s} out of range [0, {self.n_stack})")
        rng = ensure_rng(rng)
        m = self.feature_dim
        # eps is drawn host-side on every backend (determinism policy)
        eps = rng.standard_normal(m)
        # cov = sigma_n^2 A^{-1} = sigma_n^2 L^{-T} L^{-1}; a draw is
        # sqrt(sigma_n^2) L^{-T} eps
        if self.xb.is_numpy:
            half = _lapack.dtrtrs(self._chol_a[s], eps, lower=1, trans=1)[0]
            return self._coef_r[s] + np.sqrt(self.noise_variance[s]) * half
        xb = self.xb
        half = xb.solve_lower_transposed(self._chol_a[s], xb.to_device(eps))
        return self._coef_r[s] + xb.sqrt(self.noise_variance[s]) * half

    def gather_slices(self, idx) -> "BatchedNeuralFeatureGP":
        """A new stacked model holding copies of the selected slices.

        Used for active-slice compaction during training (frozen slices
        stop paying for GEMMs) and for member-level views.  The gathered
        model shares no arrays with its parent; training-data/posterior
        state is NOT carried over — callers drive it through the stateless
        compute methods (:meth:`features`, :meth:`marginal_nll`,
        :meth:`backprop_feature_grad`).
        """
        idx = np.asarray(idx, dtype=int)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("idx must be a non-empty 1-D index array")
        if np.any(idx < 0) or np.any(idx >= self.n_stack):
            raise IndexError(f"slice indices out of range [0, {self.n_stack})")
        sub = object.__new__(BatchedNeuralFeatureGP)
        sub.xb = self.xb
        sub.input_dim = self.input_dim
        sub.n_stack = int(idx.size)
        sub.n_features = self.n_features
        sub.add_bias_feature = self.add_bias_feature
        sub.normalize_y = self.normalize_y
        sub.network = self.network.gather_slices(idx)
        idx_b = self.xb.as_index(idx)
        sub.log_noise_variance = self.xb.copy(self.xb.asarray(self.log_noise_variance)[idx_b])
        sub.log_prior_variance = self.xb.copy(self.xb.asarray(self.log_prior_variance)[idx_b])
        sub._y_mean = self.xb.copy(self._y_mean[idx_b])
        sub._y_scale = self.xb.copy(self._y_scale[idx_b])
        sub._x_train = None
        sub._z_train = None
        sub._x_fantasy = []
        sub._z_fantasy = []
        sub._chol_a = None
        sub._coef_r = None
        sub._a_inv = None
        sub._predictive = None
        return sub

    def _require_fitted(self):
        if self._chol_a is None or self._coef_r is None:
            raise RuntimeError("model not fitted; call fit() first")

    def __repr__(self) -> str:
        return (
            f"BatchedNeuralFeatureGP(S={self.n_stack}, d={self.input_dim}, "
            f"M={self.feature_dim})"
        )


class SurrogateBank:
    """Objective + constraint ensembles fitted together in one batched pass.

    The bank owns ``S = n_targets * n_members`` stacked networks (slice
    ``t * K + k`` is member ``k`` of target ``t``), fits them all with one
    :meth:`fit` call, and serves moment-matched predictions (eq. 13) for
    one target or a contiguous range of targets, each in one stacked
    inference pass over exactly those targets' slices
    (:meth:`predict_target`).  K independent members are trained on the
    same data from different random initializations and combined by
    moment matching,

        mu(x)      = 1/K sum_k mu_k(x)
        sigma^2(x) = 1/K sum_k (mu_k(x)^2 + sigma_k^2(x)) - mu(x)^2

    so the combined variance contains both the average member variance
    and the *disagreement* between member means — the term that repairs
    uncertainty estimates far from the training data (Lakshminarayanan et
    al. 2017).  The paper sets K = 5 empirically.

    Seeding: the root generator is consumed by ``spawn_rngs(root, K)``
    once per target, in target order.  A one-target bank built from a
    generator therefore starts its K members from the weights K per-member
    models spawned from that generator would get.

    Parameters
    ----------
    input_dim:
        Design-space dimension ``d``.
    n_targets:
        Number of modelled quantities T (objective + constraints).
    n_members:
        Ensemble size K per target (paper: 5).
    trainer_factory:
        Callable returning a fresh
        :class:`~repro.core.trainer.BatchedFeatureGPTrainer` per fit;
        defaults to the stock settings.
    hidden_dims, n_features, activation, output_activation,
    noise_variance, prior_variance, normalize_y, seed, backend:
        Forwarded to :class:`BatchedNeuralFeatureGP` (``backend`` selects
        the array namespace; the root RNG stream is backend-independent).
    """

    def __init__(
        self,
        input_dim: int,
        n_targets: int,
        n_members: int = 5,
        hidden_dims: tuple[int, ...] = (50, 50),
        n_features: int = 50,
        activation: str = "relu",
        output_activation: str = "tanh",
        add_bias_feature: bool = True,
        noise_variance: float = 1e-2,
        prior_variance: float = 1.0,
        normalize_y: bool = True,
        trainer_factory=None,
        seed=None,
        backend=None,
    ):
        if n_targets < 1:
            raise ValueError(f"n_targets must be >= 1, got {n_targets}")
        if n_members < 1:
            raise ValueError(f"n_members must be >= 1, got {n_members}")
        self.n_targets = int(n_targets)
        self.n_members = int(n_members)
        root = ensure_rng(seed)
        rngs = [rng for _ in range(self.n_targets) for rng in spawn_rngs(root, self.n_members)]
        self._gp = BatchedNeuralFeatureGP(
            input_dim,
            n_stack=self.n_targets * self.n_members,
            hidden_dims=hidden_dims,
            n_features=n_features,
            activation=activation,
            output_activation=output_activation,
            add_bias_feature=add_bias_feature,
            noise_variance=noise_variance,
            prior_variance=prior_variance,
            normalize_y=normalize_y,
            seed=rngs,
            backend=backend,
        )
        self._trainer_factory = trainer_factory

    # -- basic properties -------------------------------------------------------

    @property
    def n_stack(self) -> int:
        """Total number of stacked networks ``S = T * K``."""
        return self._gp.n_stack

    @property
    def gp(self) -> BatchedNeuralFeatureGP:
        """The underlying stacked GP (slice layout ``s = t * K + k``)."""
        return self._gp

    # -- fitting -------------------------------------------------------------------

    def fit(self, x: np.ndarray, targets: np.ndarray) -> "SurrogateBank":
        """Fit every ensemble on ``targets`` of shape ``(n_targets, N)``.

        Calling ``fit`` again on an already-trained bank is a *warm-start
        refit*: the trainer reads its starting parameters from the live
        network, so the previously learned weights seed the new
        optimization instead of a fresh random init (a fresh init requires
        constructing a new bank).  The asynchronous loop's periodic full
        refits rely on this — when only a handful of points landed since
        the last fit, warm-started training converges in far fewer epochs.
        """
        targets = np.asarray(targets, dtype=float)
        if targets.ndim != 2 or targets.shape[0] != self.n_targets:
            raise ValueError(
                f"expected targets shape ({self.n_targets}, N), got {targets.shape}"
            )
        y_stack = np.repeat(targets, self.n_members, axis=0)
        trainer = self._trainer_factory() if self._trainer_factory else None
        self._gp.fit(x, y_stack, trainer=trainer)
        return self

    # -- fantasy conditioning (q-point acquisition) ---------------------------------

    def fantasize(self, x_new: np.ndarray, lie_targets: np.ndarray) -> "SurrogateBank":
        """Condition every ensemble on a fantasy observation of ``x_new``.

        ``lie_targets`` holds one lie value per target (shape
        ``(n_targets,)``); each target's K member slices all observe the
        same lie.  Network weights stay fixed — only the Bayesian-linear
        posteriors update — so a fantasy costs one stacked forward pass
        plus the M x M refactorizations, a rounding error next to a
        training run.  Used by the batch proposer to make q-point picks
        diverse (constant liar / Kriging believer).
        """
        lie_targets = np.asarray(lie_targets, dtype=float).ravel()
        if lie_targets.shape != (self.n_targets,):
            raise ValueError(
                f"expected ({self.n_targets},) lie targets, got {lie_targets.shape}"
            )
        self._gp.fantasize(x_new, np.repeat(lie_targets, self.n_members))
        return self

    def observe(self, x_new: np.ndarray, targets: np.ndarray) -> "SurrogateBank":
        """Permanently absorb one real observation without retraining.

        ``targets`` holds the landed values per target (shape
        ``(n_targets,)``); each target's K member slices absorb the same
        value.  Posterior-only (see
        :meth:`BatchedNeuralFeatureGP.observe`): weights, scales and
        normalization stay fixed until the next full :meth:`fit`.  This is
        the async loop's cheap per-landing update under the
        ``"fantasy-only"`` refit policy.
        """
        targets = np.asarray(targets, dtype=float).ravel()
        if targets.shape != (self.n_targets,):
            raise ValueError(
                f"expected ({self.n_targets},) targets, got {targets.shape}"
            )
        self._gp.observe(x_new, np.repeat(targets, self.n_members))
        return self

    def clear_fantasies(self, update: bool = True) -> "SurrogateBank":
        """Drop fantasy observations; the real posterior is restored exactly.

        ``update=False`` defers the posterior rebuild to the caller's next
        conditioning call (see :meth:`BatchedNeuralFeatureGP.clear_fantasies`).
        """
        self._gp.clear_fantasies(update=update)
        return self

    @property
    def n_fantasies(self) -> int:
        """Number of fantasy observations currently conditioning the bank."""
        return self._gp.n_fantasies

    def reset_fantasies(self) -> int:
        """Restore the fantasy-free posterior; no fantasy carries over (0).

        A posterior-only fantasy is cheap to redo, so the next conditioning
        rebuilds the stack from the live pending set (the lies are read off
        this fantasy-free posterior).
        """
        self.clear_fantasies()
        return 0

    # -- prediction -----------------------------------------------------------------

    def _slices(self, target) -> slice:
        """The stack slices of a target index or a contiguous target range."""
        rows = target if isinstance(target, range) else range(target, target + 1)
        if rows.step != 1 or not 0 <= rows.start < rows.stop <= self.n_targets:
            raise IndexError(
                f"target {target} is not a non-empty contiguous run of "
                f"[0, {self.n_targets})"
            )
        return slice(rows.start * self.n_members, rows.stop * self.n_members)

    def predict_target(self, target, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Moment-matched ensemble prediction (eq. 13) for one or more targets.

        ``target`` is one index, for ``(n,)`` mean and variance, or a
        contiguous ``range`` of targets, for ``(len(target), n)`` rows.
        Either way one stacked inference pass runs over exactly those
        targets' K member slices, and every row is bitwise what that
        target alone returns.  The acquisitions ask for every target they
        read at a point in one call.
        """
        means, variances = self._gp.predict(x, slices=self._slices(target))
        k = self.n_members
        shape = (means.shape[0] // k, k, means.shape[1])
        mean_tkn = means.reshape(shape)
        var_tkn = variances.reshape(shape)
        # np.mean's own reduction and division, without its Python wrapper
        mu = np.add.reduce(mean_tkn, axis=1) / k
        second_moment = np.add.reduce(mean_tkn**2 + var_tkn, axis=1) / k
        var = np.maximum(second_moment - mu**2, 1e-14)
        if isinstance(target, range):
            return mu, var
        return mu[0], var[0]

    def member_predictions(
        self, target: int, x: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-member means and variances for one target, ``(K, n)`` each."""
        return self._gp.predict(x, slices=self._slices(target))

    def __repr__(self) -> str:
        return (
            f"SurrogateBank(T={self.n_targets}, K={self.n_members}, "
            f"S={self.n_stack})"
        )

