"""Compare surrogate quality: NN-GP (paper) vs. classic GP (WEIBO baseline).

Samples the op-amp testbench, fits both surrogates on the same training
split and compares held-out accuracy and calibration — the paper's core
claim is that the *learned* kernel predicts circuit responses at least as
well as the stationary Gaussian kernel while training in O(N) time.

    python examples/surrogate_accuracy.py
"""

import time

import numpy as np

from repro.bo.design import latin_hypercube
from repro.circuits.testbenches import TwoStageOpAmpProblem
from repro.core import BatchedFeatureGPTrainer, SurrogateBank
from repro.gp import GPRegression


def nlpd(y, mean, var):
    var = np.maximum(var, 1e-12)
    return float(np.mean(0.5 * np.log(2 * np.pi * var) + 0.5 * (y - mean) ** 2 / var))


def main():
    problem = TwoStageOpAmpProblem()
    rng = np.random.default_rng(0)
    n_train, n_test = 60, 120
    u = latin_hypercube(n_train + n_test, problem.dim, rng)
    print(f"simulating {len(u)} op-amp designs ...")
    gains = np.array([-problem.evaluate_unit(ui).objective for ui in u])
    x_train, y_train = u[:n_train], gains[:n_train]
    x_test, y_test = u[n_train:], gains[n_train:]

    print("fitting NN-GP ensemble (paper Sec. III) ...")
    t0 = time.time()
    bank = SurrogateBank(
        problem.dim,
        n_targets=1,
        n_members=5,
        hidden_dims=(50, 50),
        n_features=50,
        trainer_factory=lambda: BatchedFeatureGPTrainer(epochs=300),
        seed=1,
    )
    bank.fit(x_train, y_train[None, :])
    t_nn = time.time() - t0
    mean_nn, var_nn = bank.predict_target(0, x_test)

    print("fitting classic GP (WEIBO surrogate, Sec. II-C) ...")
    t0 = time.time()
    gp = GPRegression(seed=1)
    gp.fit(x_train, y_train)
    t_gp = time.time() - t0
    mean_gp, var_gp = gp.predict(x_test)

    print("\n                NN-GP ensemble   classic GP")
    rmse_nn = np.sqrt(np.mean((mean_nn - y_test) ** 2))
    rmse_gp = np.sqrt(np.mean((mean_gp - y_test) ** 2))
    print(f"RMSE (dB)       {rmse_nn:14.3f}   {rmse_gp:10.3f}")
    print(f"NLPD            {nlpd(y_test, mean_nn, var_nn):14.3f}   "
          f"{nlpd(y_test, mean_gp, var_gp):10.3f}")
    print(f"fit time (s)    {t_nn:14.2f}   {t_gp:10.2f}")
    print(f"\ntarget std: {y_test.std():.3f} dB  "
          f"(an RMSE well below this means the surrogate is informative)")
    print(f"feature networks: {bank.gp.network}")


if __name__ == "__main__":
    main()
