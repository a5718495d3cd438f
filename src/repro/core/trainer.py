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

import contextlib

import numpy as np

from repro.core.slice_workers import WORKERS, blas_single_thread
from repro.nn.batched import BatchedLinear
from repro.nn.optimizers import StackedAdam
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import check_matrix_2d

# Clamp ranges for the log-scale hyper-parameters during training; without
# them the likelihood can push sigma_n^2 -> 0 on noise-free data and the
# A-matrix conditioning collapses.
LOG_NOISE_BOUNDS = (np.log(1e-8), np.log(1e2))
LOG_PRIOR_BOUNDS = (np.log(1e-6), np.log(1e4))


class BatchedFeatureGPTrainer:
    """Gradient-based maximum-likelihood trainer for S stacked models at once.

    Trains a :class:`~repro.core.batched_gp.BatchedNeuralFeatureGP` by
    full-batch Adam on every slice's ``[log sigma_n^2, log sigma_p^2, eta]``
    row (:class:`~repro.nn.optimizers.StackedAdam` with per-slice state).
    Each slice keeps its own best/stall bookkeeping, restarts from its best
    point on a non-finite likelihood and stops early on its own (a stalled
    slice is frozen while the rest keep training), so slice ``s`` evolves
    exactly as a trainer dedicated to that one model would evolve it
    (pinned bitwise against the per-member reference engine in
    ``tests/per_member_engine.py``); one epoch advances all S models
    through stacked tensor operations.

    The optional MSE pre-training warm start (``pretrain_epochs > 0``,
    numpy backend only) draws its throwaway head weights from this
    trainer's own random stream, one sub-stream per slice.  ``seed``
    defaults to 0, so every fit draws the same heads: a seeded study stays
    reproducible and no caller's stream is consumed.

    Active-slice compaction: once early stopping freezes a slice, its
    parameters are final — computing its forward pass, NLL and gradients
    would be pure waste, yet the stacked GEMMs would keep paying for it
    until the *last* slice converges.  The trainer therefore re-gathers
    the still-active slices into a smaller stacked model whenever the
    active set shrinks and trains on that.  Every stacked operation is
    per-slice, so gathering changes no arithmetic; frozen slices' entries
    in ``loss_history`` are ``NaN``.

    Process split (numpy backend): the likelihood phase runs as
    ``min(default_pool_workers(), S)`` contiguous slice groups, group 0 in
    the calling thread and the others on the process-wide slice workers of
    :mod:`repro.core.slice_workers`; the merge leaves bitwise what one pass
    over the whole stack leaves (pinned in
    ``tests/core/test_slice_workers.py``).  Pretraining runs in the caller
    over the full stack first.  Accelerator backends, fits inside a
    multiprocessing child and fits that find the workers busy with another
    thread's fit train as one group.

    The BLAS pin: on the numpy backend the caller's side of every fit,
    pretraining included, runs with numpy's and scipy's OpenBLAS on one
    thread (:func:`~repro.core.slice_workers.blas_single_thread`), as the
    workers always do.  From N ~ 500 training points OpenBLAS's threaded
    kernels round differently from its one-thread kernels, so without the
    pin a fit that trains as one group would not match a split one.

    Parameters
    ----------
    epochs:
        Number of full-batch NLL gradient steps.
    lr:
        Adam learning rate for the joint parameter rows.
    pretrain_epochs:
        If positive, first run this many MSE steps with temporary linear
        heads (DNGO-style warm start), then switch to NLL training.
    pretrain_lr:
        Learning rate for the pre-training phase.
    patience:
        Early-stopping patience: a slice stops when its best NLL has not
        improved for this many epochs (``None`` disables).
    seed:
        RNG seed for the pre-training head initialization.

    ``loss_history`` holds one ``(S,)`` NLL vector per epoch.
    """

    def __init__(
        self,
        epochs: int = 500,
        lr: float = 5e-3,
        pretrain_epochs: int = 0,
        pretrain_lr: float = 1e-2,
        patience: int | None = 100,
        seed=0,
    ):
        if epochs < 0 or pretrain_epochs < 0:
            raise ValueError("epoch counts must be non-negative")
        self.epochs = int(epochs)
        self.lr = float(lr)
        self.pretrain_epochs = int(pretrain_epochs)
        self.pretrain_lr = float(pretrain_lr)
        self.patience = patience
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
        numpy = model.xb.is_numpy
        with blas_single_thread() if numpy else contextlib.nullcontext():
            if self.pretrain_epochs > 0:
                self._pretrain(model, x, z)
            if self.epochs == 0:
                return model.marginal_nll(model.features(x), z)
            if numpy:
                return self._train_split(model, x, z)
            return self._train_nll(model, x, z)

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
            settings = {"epochs": self.epochs, "lr": self.lr, "patience": self.patience}
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
    ``patience``) and ``model`` the group's gathered slices.
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
