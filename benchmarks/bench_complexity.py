"""Bench for the Sec. III-D complexity claim.

The paper: classic GP training scales O(N^3) / prediction O(N^2) in the
number of observations; the NN-feature GP scales O(N) / O(1) because all
linear algebra happens in the fixed M x M A-matrix.

These benches time one training step and one 256-point batch prediction
for both model families at N = 64 and N = 512, then assert the *growth
ratios* differ the way the theory says: the GP step must grow
super-quadratically between the two sizes while the NN-GP step grows
sub-quadratically.  The GP step is one marginal-likelihood + gradient
evaluation; the NN-GP step is one epoch of
:class:`~repro.core.trainer.BatchedFeatureGPTrainer` on a single model,
the step a fit actually runs (forward, likelihood and gradients,
back-propagation and the Adam update, on one BLAS thread).

Run: ``pytest benchmarks/bench_complexity.py --benchmark-only``
"""

import numpy as np
import pytest

from repro.core import BatchedFeatureGPTrainer
from repro.experiments import complexity

DIM = 10
N_SMALL, N_LARGE = 64, 512
N_FEATURES = 50


def make_data(n, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, DIM))
    y = np.sin(x.sum(axis=1)) + 0.01 * rng.normal(size=n)
    return x, y


def gp_train_step(n):
    return complexity.gp_train_step(complexity.fixed_gp(*make_data(n)))


def nngp_train_step(n):
    x, y = make_data(n)
    return complexity.nngp_train_step(complexity.nngp_model(DIM, N_FEATURES), x, y)


def _best_time(fn):
    return complexity.best_time(fn, repeats=5)


@pytest.mark.benchmark(group="complexity-train")
@pytest.mark.parametrize("n", [N_SMALL, N_LARGE])
def test_gp_train_step(benchmark, n):
    benchmark(gp_train_step(n))


@pytest.mark.benchmark(group="complexity-train")
@pytest.mark.parametrize("n", [N_SMALL, N_LARGE])
def test_nngp_train_step(benchmark, n):
    benchmark(nngp_train_step(n))


@pytest.mark.benchmark(group="complexity-train")
def test_scaling_shape(benchmark):
    """The paper's headline scaling contrast, asserted on growth ratios."""

    def measure():
        ratio = N_LARGE / N_SMALL  # 8x
        gp_ratio = _best_time(gp_train_step(N_LARGE)) / _best_time(
            gp_train_step(N_SMALL)
        )
        nn_ratio = _best_time(nngp_train_step(N_LARGE)) / _best_time(
            nngp_train_step(N_SMALL)
        )
        return ratio, gp_ratio, nn_ratio

    ratio, gp_ratio, nn_ratio = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["gp_growth_8x_n"] = gp_ratio
    benchmark.extra_info["nngp_growth_8x_n"] = nn_ratio
    print(f"\n[complexity] 8x data -> GP step x{gp_ratio:.1f}, NN-GP step x{nn_ratio:.1f}")
    # O(N^3) would give 512x, O(N) would give 8x; allow wide margins for
    # BLAS constant factors but require a decisive separation.
    assert gp_ratio > ratio * 2.0, "classic GP must grow super-quadratically"
    assert nn_ratio < ratio * 2.0, "NN-GP must stay near-linear"
    assert gp_ratio > 3.0 * nn_ratio


@pytest.mark.benchmark(group="complexity-predict")
@pytest.mark.parametrize("n", [N_SMALL, N_LARGE])
def test_gp_predict(benchmark, n):
    gp = complexity.fixed_gp(*make_data(n))
    x_test = np.random.default_rng(1).uniform(size=(256, DIM))
    benchmark(lambda: gp.predict(x_test))


@pytest.mark.benchmark(group="complexity-predict")
@pytest.mark.parametrize("n", [N_SMALL, N_LARGE])
def test_nngp_predict(benchmark, n):
    x, y = make_data(n)
    model = complexity.nngp_model(DIM, N_FEATURES)
    model.fit(x, y, trainer=BatchedFeatureGPTrainer(epochs=0))
    x_test = np.random.default_rng(1).uniform(size=(256, DIM))
    benchmark(lambda: model.predict(x_test))
