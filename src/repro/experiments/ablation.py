"""Ablations of the paper's design choices (Sec. III-B/III-C).

Two studies, each runnable via ``python -m repro.experiments.ablation``:

* **Ensemble size K** — the paper fixes K = 5 "empirically".  We measure
  held-out negative log predictive density (NLPD) and RMSE on circuit-like
  targets as K varies; eq. 13's disagreement term should improve NLPD
  markedly from K = 1 to K = 3..5 with diminishing returns after.
* **Training mode** — direct likelihood maximization (the paper) vs. a
  DNGO-style MSE pre-training warm start.
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.core import BatchedFeatureGPTrainer, BatchedNeuralFeatureGP, SurrogateBank
from repro.experiments.tables import render_table
from repro.utils.rng import ensure_rng


def _toy_response(x: np.ndarray) -> np.ndarray:
    """Smooth multi-scale target resembling a normalized circuit response."""
    return (
        np.sin(3.0 * x[:, 0]) * np.cos(2.0 * x[:, 1])
        + 0.5 * x[:, 0] * x[:, 1]
        + 0.3 * np.exp(-((x[:, 0] - 0.5) ** 2) * 8.0)
    )


def nlpd(y_true: np.ndarray, mean: np.ndarray, var: np.ndarray) -> float:
    """Mean negative log predictive density under the Gaussian prediction."""
    var = np.maximum(var, 1e-12)
    return float(
        np.mean(0.5 * np.log(2.0 * np.pi * var) + 0.5 * (y_true - mean) ** 2 / var)
    )


def ensemble_size_study(
    k_values=(1, 3, 5, 10),
    n_train: int = 40,
    n_test: int = 300,
    epochs: int = 200,
    n_trials: int = 3,
    seed: int = 0,
) -> dict[str, dict]:
    """NLPD/RMSE of the moment-matched ensemble vs. member count K."""
    rng = ensure_rng(seed)
    columns: dict[str, dict] = {}
    for k in k_values:
        nlpds, rmses = [], []
        for _ in range(n_trials):
            x = rng.uniform(size=(n_train, 2))
            y = _toy_response(x) + 0.02 * rng.normal(size=n_train)
            x_test = rng.uniform(size=(n_test, 2))
            y_test = _toy_response(x_test)
            bank = SurrogateBank(
                2,
                n_targets=1,
                n_members=k,
                hidden_dims=(32, 32),
                n_features=24,
                trainer_factory=lambda: BatchedFeatureGPTrainer(epochs=epochs),
                seed=rng,
            )
            bank.fit(x, y[None, :])
            mean, var = bank.predict_target(0, x_test)
            nlpds.append(nlpd(y_test, mean, var))
            rmses.append(float(np.sqrt(np.mean((mean - y_test) ** 2))))
        columns[f"K={k}"] = {
            "NLPD": float(np.mean(nlpds)),
            "RMSE": float(np.mean(rmses)),
        }
    return columns


def training_mode_study(
    n_train: int = 40,
    n_test: int = 300,
    epochs: int = 200,
    n_trials: int = 3,
    seed: int = 0,
) -> dict[str, dict]:
    """Direct NLL training (paper) vs. MSE pre-training warm start."""
    rng = ensure_rng(seed)
    # pretraining epochs per mode
    modes = {"direct NLL (paper)": 0, "MSE pretrain + NLL": epochs // 2}
    columns: dict[str, dict] = {}
    for name, pretrain_epochs in modes.items():
        nlpds, rmses = [], []
        for _ in range(n_trials):
            x = rng.uniform(size=(n_train, 2))
            y = _toy_response(x) + 0.02 * rng.normal(size=n_train)
            x_test = rng.uniform(size=(n_test, 2))
            y_test = _toy_response(x_test)
            model = BatchedNeuralFeatureGP(
                2,
                n_stack=1,
                hidden_dims=(32, 32),
                n_features=24,
                seed=[int(rng.integers(2**31))],
            )
            trainer = BatchedFeatureGPTrainer(epochs=epochs, pretrain_epochs=pretrain_epochs)
            model.fit(x, y, trainer=trainer)
            (mean,), (var,) = model.predict(x_test)
            nlpds.append(nlpd(y_test, mean, var))
            rmses.append(float(np.sqrt(np.mean((mean - y_test) ** 2))))
        columns[name] = {
            "NLPD": float(np.mean(nlpds)),
            "RMSE": float(np.mean(rmses)),
        }
    return columns


def main(argv=None) -> str:
    """CLI entry point; prints both ablation tables."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=3)
    args = parser.parse_args(argv)
    out = []
    columns = ensemble_size_study(n_trials=args.trials)
    out.append(render_table(
        "Ablation: ensemble size K (eq. 13)", ["NLPD", "RMSE"], columns
    ))
    columns = training_mode_study(n_trials=args.trials)
    out.append(render_table(
        "Ablation: training mode (Sec. III-B)", ["NLPD", "RMSE"], columns
    ))
    text = "\n\n".join(out)
    print(text)
    return text


if __name__ == "__main__":
    main()
