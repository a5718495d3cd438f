"""Micro-benchmarks of the acquisition layer: the inner-loop ablation.

The paper calls its inner loop just an "optimize engine" (Fig. 2); these
benches ablate our choice — DE over the unit box with Nelder-Mead
polish — against plain random search, and measure the per-call cost of
the wEI acquisition with NN-GP ensembles vs classic GPs (the quantity the
O(1)-prediction claim accelerates inside every BO iteration).  The call
shapes are the maximizer's: 256-row DE batches, and the single-row probes
the polish sends thousands of times per stage, with an incumbent and in
feasibility search (no incumbent: wEI reads only the constraints).

Run: ``pytest benchmarks/bench_acquisition.py --benchmark-only``
"""

import itertools

import numpy as np
import pytest

from repro.acquisition.fantasy import PerTargetBank
from repro.acquisition.maximize import (
    DifferentialEvolutionMaximizer,
    ScanPolishMaximizer,
)
from repro.acquisition.wei import WeightedExpectedImprovement
from repro.core import BatchedFeatureGPTrainer, SurrogateBank
from repro.gp import GPRegression

DIM = 10
N_TRAIN = 80


def _data(seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(N_TRAIN, DIM))
    objective = np.sin(3 * x[:, 0]) + x[:, 1] ** 2 + 0.1 * x.sum(axis=1)
    constraint = x[:, 2] - 0.5
    return x, objective, constraint


@pytest.fixture(scope="module")
def nngp_bank():
    x, objective, constraint = _data()
    bank = SurrogateBank(
        DIM,
        n_targets=2,
        n_members=3,
        hidden_dims=(50, 50),
        n_features=50,
        trainer_factory=lambda: BatchedFeatureGPTrainer(epochs=100),
        seed=0,
    )
    bank.fit(x, np.stack([objective, constraint]))
    return bank, float(objective.min())


@pytest.fixture(scope="module")
def nngp_acquisition(nngp_bank):
    return WeightedExpectedImprovement(*nngp_bank)


@pytest.fixture(scope="module")
def gp_acquisition():
    x, objective, constraint = _data()
    bank = PerTargetBank(
        lambda rng: GPRegression(n_restarts=1, seed=rng), np.random.default_rng(0), 2
    )
    bank.fit(x, np.stack([objective, constraint]))
    return WeightedExpectedImprovement(bank, tau=float(objective.min()))


def _alternating_batches(rows=256, count=2):
    """``count`` distinct ``rows``-point batches in turn.

    The maximizer never asks twice at the same points, so neither do the
    benches: a probe bench cycles through many single rows, as the polish
    walks its simplex.
    """
    return itertools.cycle(np.random.default_rng(2).uniform(size=(count, rows, DIM)))


@pytest.mark.benchmark(group="acquisition-eval")
def test_wei_eval_nngp(benchmark, nngp_acquisition):
    batches = _alternating_batches()
    values = benchmark(lambda: nngp_acquisition(next(batches)))
    assert np.all(np.isfinite(values))


@pytest.mark.benchmark(group="acquisition-probe")
@pytest.mark.parametrize("phase", ["incumbent", "feasibility-search"])
def test_wei_probe_nngp(benchmark, nngp_bank, phase):
    """One single-row polish probe; without an incumbent (``tau=None``)
    wEI is the PF product, and its one inference pass skips the
    objective's slices."""
    bank, tau = nngp_bank
    acquisition = WeightedExpectedImprovement(bank, tau if phase == "incumbent" else None)
    probes = _alternating_batches(rows=1, count=64)
    values = benchmark(lambda: acquisition(next(probes)))
    assert np.all(np.isfinite(values))


@pytest.mark.benchmark(group="acquisition-eval")
def test_wei_eval_gp(benchmark, gp_acquisition):
    batches = _alternating_batches()
    values = benchmark(lambda: gp_acquisition(next(batches)))
    assert np.all(np.isfinite(values))


@pytest.mark.benchmark(group="acquisition-maximize")
def test_de_maximizer(benchmark, nngp_acquisition):
    maximizer = DifferentialEvolutionMaximizer(pop_size=40, generations=30)

    def run():
        return maximizer.maximize(nngp_acquisition, DIM,
                                  np.random.default_rng(0))

    best = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["acq_at_best"] = float(
        np.asarray(nngp_acquisition(best.reshape(1, -1)))[0]
    )


@pytest.mark.benchmark(group="acquisition-maximize")
def test_random_maximizer(benchmark, nngp_acquisition):
    maximizer = ScanPolishMaximizer(n_samples=1600, polish=False)

    def run():
        return maximizer.maximize(nngp_acquisition, DIM,
                                  np.random.default_rng(0))

    best = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["acq_at_best"] = float(
        np.asarray(nngp_acquisition(best.reshape(1, -1)))[0]
    )


@pytest.mark.benchmark(group="acquisition-maximize")
def test_de_beats_random_at_equal_budget(benchmark, nngp_acquisition):
    """The design choice check: structured search finds higher acquisition
    values than random sampling at a comparable evaluation budget."""

    def compare():
        rng_a = np.random.default_rng(5)
        de = DifferentialEvolutionMaximizer(pop_size=40, generations=30)
        x_de = de.maximize(nngp_acquisition, DIM, rng_a)
        rng_b = np.random.default_rng(5)
        rand = ScanPolishMaximizer(n_samples=40 * 31, polish=False)
        x_rand = rand.maximize(nngp_acquisition, DIM, rng_b)
        a = float(np.asarray(nngp_acquisition(x_de.reshape(1, -1)))[0])
        b = float(np.asarray(nngp_acquisition(x_rand.reshape(1, -1)))[0])
        return a, b

    a, b = benchmark.pedantic(compare, rounds=1, iterations=1)
    benchmark.extra_info["de_value"] = a
    benchmark.extra_info["random_value"] = b
    assert a >= b * 0.99  # DE must not lose to random sampling
