"""Joint training of the NN-GP hyper-parameters (paper Sec. III-B).

The hyper-parameter vector is ``theta = [log sigma_n^2, log sigma_p^2, eta]``
where ``eta`` are the network weights.  The trainer minimizes the negative
marginal log-likelihood (eq. 11) by full-batch gradient descent; the
gradient w.r.t. ``eta`` is obtained by back-propagating ``dNLL/dPhi``
through the network (eq. 12), so "the training of the neural network is
actually embedded in the optimization procedure of maximizing the
logarithmic likelihood".

An optional DNGO-style mean-squared-error pre-training phase (a temporary
linear read-out head trained on the raw targets) is provided for ablation;
the paper itself trains the likelihood directly, which is the default.

Performance architecture: :class:`BatchedFeatureGPTrainer` trains all
``S = K * T`` models of a fit as one stacked program, drops early-stopped
slices out of the stacked GEMMs (active-slice compaction), and on the
numpy backend splits the likelihood phase into slice groups that train on
separate cores (:meth:`BatchedFeatureGPTrainer._train_split`,
:mod:`repro.core.slice_workers`).  Each is bitwise neutral: every stacked
operation is per-slice.
"""

from __future__ import annotations

import numpy as np

from repro.core.feature_gp import (
    LOG_NOISE_BOUNDS,
    LOG_PRIOR_BOUNDS,
    NeuralFeatureGP,
)
from repro.core.slice_workers import WORKERS
from repro.nn.batched import BatchedLinear
from repro.nn.layers import Linear
from repro.nn.losses import mse_loss
from repro.nn.optimizers import Adam, Optimizer, StackedAdam
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import check_matrix_2d, check_vector_1d


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
        optimizer: Optimizer = Adam(lr=self.pretrain_lr)
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


class BatchedFeatureGPTrainer:
    """Stacked counterpart of :class:`FeatureGPTrainer` for S models at once.

    Runs the identical training procedure on a
    :class:`~repro.core.batched_gp.BatchedNeuralFeatureGP`: every slice's
    parameter row evolves exactly as a dedicated :class:`FeatureGPTrainer`
    would evolve that member — the same Adam updates
    (:class:`~repro.nn.optimizers.StackedAdam` with per-slice state), the
    same best/stall bookkeeping, the same restart-from-best on a non-finite
    likelihood, and the same early stop (a stalled slice is frozen while
    the rest keep training).  The only difference is wall-clock: one epoch
    advances all S models through stacked tensor operations.

    One caveat: the exact slice-for-slice equivalence holds for the NLL
    training phase (the default, ``pretrain_epochs=0``).  The optional MSE
    pre-training warm start draws its throwaway head weights from this
    trainer's own random stream (one sub-stream per slice), which cannot
    replicate the serial path's per-member head draws — with pretraining
    enabled the two engines are statistically equivalent but not
    numerically identical.

    Active-slice compaction (``compact=True``, the default): once early
    stopping freezes a slice, its parameters are final — computing its
    forward pass, NLL and gradients would be pure waste, yet the stacked
    GEMMs otherwise keep paying for it until the *last* slice converges.
    The trainer therefore re-gathers the still-active slices into a
    smaller stacked model whenever the active set shrinks and trains on
    that.  Every stacked operation is per-slice, so gathering changes no
    arithmetic: predictions are bitwise identical with compaction on or
    off (pinned in ``tests/core/test_batched_gp.py``).  The only visible
    difference is bookkeeping — with compaction, frozen slices' entries
    in ``loss_history`` are ``NaN`` instead of a recomputed NLL.

    Process split (numpy backend with ``compact=True``): the likelihood
    phase runs as ``min(default_pool_workers(), S)`` contiguous slice
    groups, group 0 in the calling thread and the others on the
    process-wide slice workers of :mod:`repro.core.slice_workers`; the
    merge leaves bitwise what one pass over the whole stack leaves
    (pinned in ``tests/core/test_slice_workers.py``).  Pretraining runs
    in the caller over the full stack first.  Accelerator backends,
    ``compact=False``, fits inside a multiprocessing child and fits that
    find the workers busy with another thread's fit train as one group.

    Parameters mirror :class:`FeatureGPTrainer`; ``loss_history`` holds one
    ``(S,)`` NLL vector per epoch.
    """

    def __init__(
        self,
        epochs: int = 500,
        lr: float = 5e-3,
        pretrain_epochs: int = 0,
        pretrain_lr: float = 1e-2,
        patience: int | None = 100,
        compact: bool = True,
        seed=None,
    ):
        if epochs < 0 or pretrain_epochs < 0:
            raise ValueError("epoch counts must be non-negative")
        self.epochs = int(epochs)
        self.lr = float(lr)
        self.pretrain_epochs = int(pretrain_epochs)
        self.pretrain_lr = float(pretrain_lr)
        self.patience = patience
        self.compact = bool(compact)
        self._rng = ensure_rng(seed)
        self.loss_history: list[np.ndarray] = []

    # -- public API -------------------------------------------------------------

    def train(self, model, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Train all slices; return the per-slice best NLL, shape ``(S,)``.

        ``z`` has shape ``(S, N)`` in the model's normalized-target units
        (the contract with ``BatchedNeuralFeatureGP.fit``).
        """
        x = check_matrix_2d(x, "x", model.input_dim)
        z = model.xb.asarray(z, dtype=float)
        if tuple(z.shape) != (model.n_stack, x.shape[0]):
            raise ValueError(
                f"expected z shape ({model.n_stack}, {x.shape[0]}), got {tuple(z.shape)}"
            )
        self.loss_history = []
        if self.pretrain_epochs > 0:
            self._pretrain(model, x, z)
        if self.epochs > 0:
            if model.xb.is_numpy and self.compact:
                return self._train_split(model, x, z)
            return self._train_nll(model, x, z)
        feats = model.features(x)
        return model.marginal_nll(feats, z)

    # -- phases -----------------------------------------------------------------

    def _pretrain(self, model, x: np.ndarray, z: np.ndarray):
        """MSE warm start with throwaway per-slice linear heads."""
        if not model.xb.is_numpy:
            raise NotImplementedError(
                "MSE pre-training supports the numpy backend only; train the "
                "likelihood directly (pretrain_epochs=0, the default) on "
                f"backend {model.xb.name!r}"
            )
        s_stack = model.n_stack
        head = BatchedLinear(model.n_features, 1, rngs=spawn_rngs(self._rng, s_stack))
        optimizer = StackedAdam(lr=self.pretrain_lr)
        net = model.network
        params = np.concatenate(
            [
                net.get_stacked_params(),
                head.weight.reshape(s_stack, -1),
                head.bias.reshape(s_stack, -1),
            ],
            axis=1,
        )
        n_net = net.num_params_per_slice
        target = z[..., None]
        n = x.shape[0]
        for _ in range(self.pretrain_epochs):
            net.set_stacked_params(params[:, :n_net])
            head.weight[...] = params[:, n_net:-1].reshape(head.weight.shape)
            head.bias[...] = params[:, -1:].reshape(head.bias.shape)
            feats = net.forward(x)
            pred = head.forward(feats)
            # per-slice MSE gradient (the serial loss normalizes by one
            # member's residual count, not the whole stack's)
            grad_pred = 2.0 * (pred - target) / n
            head.zero_grad()
            grad_feats = head.backward(grad_pred)
            net.zero_grad()
            net.backward(grad_feats)
            grads = np.concatenate(
                [
                    net.get_stacked_grads(),
                    head.grad_weight.reshape(s_stack, -1),
                    head.grad_bias.reshape(s_stack, -1),
                ],
                axis=1,
            )
            params = optimizer.step(params, grads)
        net.set_stacked_params(params[:, :n_net])

    def _train_nll(self, model, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Stacked full-batch Adam on ``[log sigma_n^2, log sigma_p^2, eta]``.

        Parameters, gradients and moments live on the model's array
        backend; the control-flow state (best NLL, stall counters, active
        masks) stays host-side numpy on every backend — it is bookkeeping,
        not tensor math, and the per-epoch transfer is one ``(S,)`` NLL
        vector.
        """
        xb = model.xb
        optimizer = StackedAdam(lr=self.lr)
        optimizer.bind_backend(xb)
        net = model.network
        s_stack = model.n_stack
        params = xb.concatenate(
            [
                xb.stack([model.log_noise_variance, model.log_prior_variance], axis=1),
                net.get_stacked_params(),
            ],
            axis=1,
        )
        best_nll = np.full(s_stack, np.inf)
        best_params = xb.copy(params)
        stall = np.zeros(s_stack, dtype=int)
        active = np.ones(s_stack, dtype=bool)
        # active-slice compaction state: ``view`` is the stacked model the
        # forward/backward runs on, ``view_idx`` the full-stack indices its
        # slices map to (None while no slice is frozen)
        view = model
        view_idx: np.ndarray | None = None
        for _ in range(self.epochs):
            if not active.any():
                break
            if self.compact:
                n_active = int(active.sum())
                n_view = s_stack if view_idx is None else view_idx.size
                if n_active < n_view:
                    view_idx = np.flatnonzero(active)
                    view = model.gather_slices(view_idx)
            rows = slice(None) if view_idx is None else xb.as_index(view_idx)
            self._write_params(view, params[rows])
            feats = view.features(x)
            nll_v, dfeats, d_log_noise, d_log_prior = view.marginal_nll(
                feats, z[rows], with_grads=True
            )
            if view_idx is None:
                nll = np.asarray(xb.from_device(nll_v), dtype=float)
            else:
                nll = np.full(s_stack, np.nan)
                nll[view_idx] = xb.from_device(nll_v)
            self.loss_history.append(nll.copy())
            finite = np.isfinite(nll)
            bad = active & ~finite
            if bad.any():
                # restart those slices from their best point (serial: params
                # reset + optimizer.reset + continue)
                bad_rows = xb.as_index(bad)
                params[bad_rows] = best_params[bad_rows]
                optimizer.reset_slices(bad)
                stall[bad] += 1
                if self.patience is not None:
                    active &= ~(bad & (stall > self.patience))
            improved = active & finite & (nll < best_nll - 1e-9)
            if improved.any():
                best_nll[improved] = nll[improved]
                imp_rows = xb.as_index(improved)
                best_params[imp_rows] = params[imp_rows]
                stall[improved] = 0
            worse = active & finite & ~improved
            stall[worse] += 1
            if self.patience is not None:
                # serial breaks before taking the step, so freeze first
                active &= ~(worse & (stall > self.patience))
            step_mask = active & finite
            if step_mask.any():
                grad_eta = view.backprop_feature_grad(dfeats)
                grads_v = xb.concatenate(
                    [d_log_noise[:, None], d_log_prior[:, None], grad_eta], axis=1
                )
                if view_idx is None:
                    grads = grads_v
                else:
                    grads = xb.zeros_like(params)
                    grads[xb.as_index(view_idx)] = grads_v
                params = optimizer.step(params, grads, mask=step_mask)
                params[:, 0] = xb.clip(params[:, 0], *LOG_NOISE_BOUNDS)
                params[:, 1] = xb.clip(params[:, 1], *LOG_PRIOR_BOUNDS)
        self._write_params(model, best_params)
        if np.all(np.isfinite(best_nll)):
            return best_nll
        feats = model.features(x)
        fallback = np.asarray(
            xb.from_device(model.marginal_nll(feats, z)), dtype=float
        )
        return np.where(np.isfinite(best_nll), best_nll, fallback)

    def _train_split(self, model, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """The likelihood phase over contiguous slice groups on the slice workers.

        Every stacked operation is per-slice, so each group trains exactly
        as its rows would inside one :meth:`_train_nll` over the whole
        stack; the merge writes back params, log-variances, per-slice best
        NLL and ``loss_history``, whose rows past a group's last epoch are
        ``NaN`` as compaction marks frozen slices.  With no worker to lend
        (see :mod:`repro.core.slice_workers`) the stack trains as one group.
        """
        with WORKERS.checkout(model.n_stack) as workers:
            if not workers:
                return self._train_nll(model, x, z)
            groups = np.array_split(np.arange(model.n_stack), len(workers) + 1)
            settings = {
                "epochs": self.epochs,
                "lr": self.lr,
                "patience": self.patience,
                "compact": self.compact,
            }
            tasks = [(settings, model.gather_slices(idx), x, z[idx]) for idx in groups]
            results = WORKERS.run(workers, fit_slice_group, tasks)
        self._write_params(model, np.concatenate([params for params, _, _ in results]))
        history = np.full((max(len(h) for _, _, h in results), model.n_stack), np.nan)
        for idx, (_, _, group_history) in zip(groups, results):
            history[: len(group_history), idx] = group_history
        self.loss_history = list(history)
        return np.concatenate([best for _, best, _ in results])

    @staticmethod
    def _write_params(model, params: np.ndarray):
        xb = model.xb
        model.log_noise_variance = xb.copy(params[:, 0])
        model.log_prior_variance = xb.copy(params[:, 1])
        model.network.set_stacked_params(params[:, 2:])


def fit_slice_group(settings: dict, model, x: np.ndarray, z: np.ndarray):
    """Train one group of a split fit; runs in the caller or a slice worker.

    ``settings`` are the trainer's plain fields (``epochs``, ``lr``,
    ``patience``, ``compact``) and ``model`` the group's gathered slices.
    Returns the trained ``(S_g, 2 + P)`` parameter rows
    ``[log sigma_n^2, log sigma_p^2, eta]``, the per-slice best NLL and the
    ``(epochs, S_g)`` loss history.
    """
    trainer = BatchedFeatureGPTrainer(**settings)
    best = trainer._train_nll(model, x, z)
    params = np.concatenate(
        [
            np.stack([model.log_noise_variance, model.log_prior_variance], axis=1),
            model.network.get_stacked_params(),
        ],
        axis=1,
    )
    return params, best, np.array(trainer.loss_history)
