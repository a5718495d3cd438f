"""Bench for the Sec. III-C model-averaging claim.

"Recent research demonstrated that ensemble can greatly improve the
quality of predicted uncertainty, and the performance will be enhanced
especially for the data point which is far from the training set."

The bench fits single models (K=1) and paper-default ensembles (K=5) on
the same data and compares held-out negative log predictive density
(NLPD, lower = better-calibrated uncertainty) — averaged over three
train/test draws — plus the timing of each fit.

Run: ``pytest benchmarks/bench_ensemble_ablation.py --benchmark-only``
"""

import numpy as np
import pytest

from repro.core import BatchedFeatureGPTrainer, SurrogateBank

N_TRAIN, N_TEST = 35, 250
EPOCHS = 150
TRIALS = 3


def target(x):
    return np.sin(3.0 * x[:, 0]) * np.cos(2.0 * x[:, 1]) + 0.5 * x[:, 0] * x[:, 1]


def nlpd(y, mean, var):
    var = np.maximum(var, 1e-12)
    return float(np.mean(0.5 * np.log(2 * np.pi * var) + 0.5 * (y - mean) ** 2 / var))


def fit_and_score(k, trial_seed):
    rng = np.random.default_rng(trial_seed)
    x = rng.uniform(size=(N_TRAIN, 2))
    y = target(x) + 0.02 * rng.normal(size=N_TRAIN)
    x_test = rng.uniform(size=(N_TEST, 2))
    y_test = target(x_test)
    bank = SurrogateBank(
        2,
        n_targets=1,
        n_members=k,
        hidden_dims=(24, 24),
        n_features=16,
        trainer_factory=lambda: BatchedFeatureGPTrainer(epochs=EPOCHS),
        seed=trial_seed,
    )
    bank.fit(x, y[None, :])
    mean, var = bank.predict_target(0, x_test)
    return nlpd(y_test, mean, var)


@pytest.mark.benchmark(group="ensemble")
@pytest.mark.parametrize("k", [1, 5])
def test_ensemble_fit_cost(benchmark, k):
    """Fit cost of K members (the paper notes members can be trained in
    parallel; the bank trains them as one stacked program)."""
    benchmark.pedantic(lambda: fit_and_score(k, trial_seed=0), rounds=1, iterations=1)


@pytest.mark.benchmark(group="ensemble")
def test_ensemble_improves_uncertainty(benchmark):
    """K=5 must beat K=1 on held-out NLPD averaged over trials (eq. 13)."""

    def run():
        k1 = np.mean([fit_and_score(1, s) for s in range(TRIALS)])
        k5 = np.mean([fit_and_score(5, s) for s in range(TRIALS)])
        return k1, k5

    k1, k5 = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["nlpd_k1"] = k1
    benchmark.extra_info["nlpd_k5"] = k5
    print(f"\n[ensemble] NLPD K=1: {k1:.3f}   K=5: {k5:.3f}")
    assert k5 < k1, "the paper-default K=5 must improve predictive calibration"
