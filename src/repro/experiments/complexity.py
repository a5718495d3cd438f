"""Sec. III-D complexity claim: NN-GP trains in O(N), classic GP in O(N^3).

Measures wall-clock time for (a) one training step — a marginal-likelihood
evaluation with gradients; for the NN-GP one epoch of
:class:`~repro.core.trainer.BatchedFeatureGPTrainer`, the step a fit runs —
and (b) a batch prediction, as the training-set size N grows with the
feature dimension M fixed.  The paper's claim is about the *scaling
shape*: the classic GP's likelihood evaluation is dominated by an N x N
Cholesky (cubic), while the NN-GP works through the M x M A-matrix (linear
in N).  The companion benchmark ``benchmarks/bench_complexity.py`` times
the same training steps and asserts the shape; this module prints the full
table::

    python -m repro.experiments.complexity
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.core import BatchedFeatureGPTrainer, BatchedNeuralFeatureGP
from repro.gp import GPRegression, RBF
from repro.experiments.tables import render_table


def best_time(fn, repeats: int = 3) -> float:
    """Fastest of ``repeats`` wall-clock timings of ``fn()`` (seconds)."""
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def fixed_gp(x: np.ndarray, y: np.ndarray) -> GPRegression:
    """RBF GP fitted at its initial hyperparameters (no likelihood search)."""
    gp = GPRegression(kernel=RBF(x.shape[1]), optimize=False, seed=0)
    gp.fit(x, y)
    return gp


def gp_train_step(gp: GPRegression):
    """The GP's training step: one marginal-likelihood + gradient evaluation."""
    theta = gp._get_theta()
    return lambda: gp._nll_and_grad(theta)


def nngp_model(dim: int, n_features: int) -> BatchedNeuralFeatureGP:
    """One NN-GP at the paper's network size (two hidden layers of 50)."""
    return BatchedNeuralFeatureGP(
        dim, n_stack=1, hidden_dims=(50, 50), n_features=n_features, seed=0
    )


def nngp_train_step(model: BatchedNeuralFeatureGP, x: np.ndarray, y: np.ndarray):
    """The NN-GP's training step: one epoch of the trainer a fit runs."""
    z = ((y - y.mean()) / y.std())[None, :]
    epoch = BatchedFeatureGPTrainer(epochs=1, patience=None)
    return lambda: epoch.train(model, x, z)


def measure_scaling(
    sizes=(32, 64, 128, 256, 512),
    dim: int = 10,
    n_features: int = 50,
    n_test: int = 256,
    seed: int = 0,
) -> dict[str, dict]:
    """Time likelihood evaluation and prediction for both model families.

    Returns ``{row_label: {column: value}}``-style data for rendering; the
    rows are training-set sizes, the columns the four timed operations (ms).
    """
    rng = np.random.default_rng(seed)
    x_test = rng.uniform(size=(n_test, dim))
    columns: dict[str, dict] = {
        "GP train-step (ms)": {},
        "NN-GP train-step (ms)": {},
        "GP predict (ms)": {},
        "NN-GP predict (ms)": {},
    }
    for n in sizes:
        label = f"N={n}"
        x = rng.uniform(size=(n, dim))
        y = np.sin(x.sum(axis=1)) + 0.01 * rng.normal(size=n)

        gp = fixed_gp(x, y)
        columns["GP train-step (ms)"][label] = 1e3 * best_time(gp_train_step(gp))
        columns["GP predict (ms)"][label] = 1e3 * best_time(lambda: gp.predict(x_test))

        nngp = nngp_model(dim, n_features)
        nngp.fit(x, y, trainer=BatchedFeatureGPTrainer(epochs=0))
        columns["NN-GP predict (ms)"][label] = 1e3 * best_time(
            lambda: nngp.predict(x_test)
        )
        columns["NN-GP train-step (ms)"][label] = 1e3 * best_time(
            nngp_train_step(nngp, x, y)
        )
    return columns


def fit_power_law(sizes, times) -> float:
    """Least-squares slope of log(time) vs log(N) — the empirical exponent."""
    sizes = np.asarray(sizes, dtype=float)
    times = np.asarray(times, dtype=float)
    slope, _ = np.polyfit(np.log(sizes), np.log(times), 1)
    return float(slope)


def main(argv=None) -> str:
    """CLI entry point; prints the timing table and fitted exponents."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=512)
    args = parser.parse_args(argv)
    sizes = [n for n in (32, 64, 128, 256, 512, 1024) if n <= args.max_n]
    columns = measure_scaling(sizes=sizes)
    labels = [f"N={n}" for n in sizes]
    table = render_table(
        "Sec. III-D: surrogate training/prediction scaling vs N",
        labels,
        columns,
    )
    print(table)
    gp_slope = fit_power_law(sizes, [columns["GP train-step (ms)"][x] for x in labels])
    nn_slope = fit_power_law(
        sizes, [columns["NN-GP train-step (ms)"][x] for x in labels]
    )
    print(f"\nempirical exponent, GP train-step:    {gp_slope:.2f} (theory ~3)")
    print(f"empirical exponent, NN-GP train-step: {nn_slope:.2f} (theory ~1)")
    return table


if __name__ == "__main__":
    main()
