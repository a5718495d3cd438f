"""Bench for the asynchronous scheduler: refill-on-completion wall-clock win.

The PR-2 batch scheduler parallelized each q-point batch but still stalls
the whole worker pool at a per-iteration barrier: every batch waits for
its *slowest* simulation.  Real simulator workloads are heterogeneous — a
design near a corner case can take several times longer to converge — so
the barrier cost grows with the evaluation-time spread.  The async
scheduler proposes a replacement the moment any single evaluation lands
(conditioning on the still-pending set via fantasies), keeping all
workers saturated.

The workload mirrors ``bench_batch_bo``'s charge-pump-sized setup
(d = 36, five constraints) with one change: the per-simulation cost is
*lognormal-jittered* around a fixed mean, as a stand-in for SPICE
convergence variance.  The jitter is a deterministic function of the
design point, so runs are reproducible.  Sleeping (not spinning) isolates
*scheduling* parallelism from host core counts.

Pinned contracts:

* **fixed budget** — async with 4 in-flight workers spends exactly the
  same number of simulations as synchronous q = 4 (refill must not
  over-submit; the pool drains at the budget);
* **speedup** — async reaches that budget >= 1.3x faster end to end than
  the synchronous q = 4 barrier loop under the same jitter (the win is
  the barrier's expected max-of-4 slack, net of async's extra per-landing
  surrogate updates).

A second pinned contract covers the PR-10 evaluation farm under a
*bursty* workload (lognormal mixture + stragglers — idle-prone for any
fixed pool): an elastic + speculative farm reaches the same committed
budget >= 1.2x faster than the fixed async x4 pool, with its best
feasible objective within 0.1 of the fixed-pool baseline (speculation
must buy wall-clock, not optimization quality).

The measured numbers are additionally written to ``BENCH_async_bo.json``
(override the path with ``REPRO_BENCH_JSON``) so CI can upload the perf
trajectory as a machine-readable artifact; the farm run contributes the
``farm`` axes (elastic pool, speculation waste) to the same file.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_async_bo.py -v -s``
(set ``REPRO_BENCH_QUICK=1`` for the CI smoke configuration).
"""

import os
import time
import zlib

import numpy as np

from artifacts import write_bench_json
from repro.acquisition.maximize import DifferentialEvolutionMaximizer
from repro.bo.config import (
    FarmConfig,
    SchedulerConfig,
    SpeculationConfig,
    SurrogateConfig,
)
from repro.bo.problem import Evaluation, Problem
from repro.core import NNBO

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

# charge-pump-sized sizing workload (the Fig. 4 setup)
DIM = 36  # 16 transistors x (W, L) + 4 resistors
N_CONSTRAINTS = 5
MEAN_SIM_SECONDS = 0.20 if QUICK else 0.30
SIGMA = 1.1  # lognormal spread of the per-simulation cost
N_INITIAL = 8 if QUICK else 12
BUDGET = 32 if QUICK else 56
EPOCHS = 15 if QUICK else 25
WORKERS = 4
SPEEDUP_FLOOR = 1.3

# the farm bench: a larger elastic pool over a bursty mixture workload
FARM_WORKERS = 8
FARM_SPEEDUP_FLOOR = 1.2
REGRET_TOLERANCE = 0.1
# bursty mixture: mostly-fast sims, a burst mode, and rare stragglers
BURST_PROBABILITY = 0.25
BURST_SCALE = 2.5
STRAGGLER_PROBABILITY = 0.08
STRAGGLER_SCALE = 6.0


class JitteredChargePumpProxy(Problem):
    """Analytic charge-pump stand-in with heterogeneous simulation cost.

    Each evaluation sleeps a lognormal duration (mean ``MEAN_SIM_SECONDS``,
    sigma ``SIGMA``) derived deterministically from the design point.
    Module-level and closure-free so it pickles into pool workers.
    """

    def __init__(self):
        super().__init__(
            "jittered_charge_pump_proxy",
            np.zeros(DIM),
            np.ones(DIM),
            n_constraints=N_CONSTRAINTS,
        )
        rng = np.random.default_rng(0)
        self._w = rng.normal(size=(1 + N_CONSTRAINTS, DIM))

    def evaluate(self, x: np.ndarray) -> Evaluation:
        digest = zlib.crc32(np.round(np.asarray(x, float), 10).tobytes())
        rng = np.random.default_rng(digest)
        time.sleep(
            MEAN_SIM_SECONDS * rng.lognormal(mean=-SIGMA**2 / 2.0, sigma=SIGMA)
        )
        objective = float(np.sin(self._w[0] @ x) + 0.1 * np.sum(x**2))
        constraints = np.array(
            [float(np.cos(self._w[i] @ x) - 0.6) for i in range(1, 1 + N_CONSTRAINTS)]
        )
        return Evaluation(objective=objective, constraints=constraints)


class BurstyChargePumpProxy(JitteredChargePumpProxy):
    """The jittered proxy under a bursty cost mixture with stragglers.

    Most designs simulate fast; a burst fraction costs ``BURST_SCALE``x
    and rare stragglers ``STRAGGLER_SCALE``x — the regime where a fixed
    pool idles behind its slowest member and elastic sizing plus
    speculation pay off.  Deterministic per design point, as above.
    """

    def evaluate(self, x: np.ndarray) -> Evaluation:
        digest = zlib.crc32(np.round(np.asarray(x, float), 10).tobytes())
        rng = np.random.default_rng(digest)
        draw = rng.random()
        if draw < STRAGGLER_PROBABILITY:
            scale = STRAGGLER_SCALE
        elif draw < STRAGGLER_PROBABILITY + BURST_PROBABILITY:
            scale = BURST_SCALE
        else:
            scale = 0.6
        time.sleep(
            scale
            * MEAN_SIM_SECONDS
            * rng.lognormal(mean=-(0.5**2) / 2.0, sigma=0.5)
        )
        objective = float(np.sin(self._w[0] @ x) + 0.1 * np.sum(x**2))
        constraints = np.array(
            [float(np.cos(self._w[i] @ x) - 0.6) for i in range(1, 1 + N_CONSTRAINTS)]
        )
        return Evaluation(objective=objective, constraints=constraints)


def _common_kwargs() -> dict:
    return dict(
        n_initial=N_INITIAL,
        max_evaluations=BUDGET,
        surrogate=SurrogateConfig(
            n_ensemble=3, hidden_dims=(24, 24), n_features=16, epochs=EPOCHS
        ),
        acq_maximizer=DifferentialEvolutionMaximizer(
            pop_size=40, generations=12, polish=False, max_pop=60
        ),
        seed=7,
    )


def make_nnbo(mode: str) -> NNBO:
    if mode == "sync":
        return NNBO(
            JitteredChargePumpProxy(),
            scheduler_config=SchedulerConfig(
                q=WORKERS, executor="thread", n_eval_workers=WORKERS
            ),
            **_common_kwargs(),
        )
    return NNBO(
        JitteredChargePumpProxy(),
        scheduler_config=SchedulerConfig(
            executor="async-thread",
            n_eval_workers=WORKERS,
            async_refit="fantasy-only",
        ),
        **_common_kwargs(),
    )


def make_bursty_nnbo(mode: str) -> NNBO:
    """The farm bench pair: fixed async x4 vs elastic+speculative farm."""
    if mode == "async-fixed":
        return NNBO(
            BurstyChargePumpProxy(),
            scheduler_config=SchedulerConfig(
                executor="async-thread",
                n_eval_workers=WORKERS,
                async_refit="fantasy-only",
            ),
            **_common_kwargs(),
        )
    return NNBO(
        BurstyChargePumpProxy(),
        scheduler_config=SchedulerConfig(
            executor="async-thread",
            n_eval_workers=FARM_WORKERS,
            async_refit="fantasy-only",
            farm=FarmConfig(
                mode="elastic",
                min_in_flight=2,
                max_in_flight=FARM_WORKERS,
                # low proposal cost => the elastic target tracks the
                # burst-inflated eval EWMA up to the full pool
                propose_cost_s=0.04,
            ),
            speculation=SpeculationConfig(max_speculative=2, max_age_landings=6),
        ),
        **_common_kwargs(),
    )


def record_bench(payload: dict):
    """Merge the measured trajectory into the CI artifact JSON.

    Both bench classes write the same file (the async baseline axes and
    the farm axes), so merge-on-write keeps whichever ran first.
    """
    path = write_bench_json("BENCH_async_bo.json", payload)
    print(f"[async-bo] wrote {path}")


def best_feasible_objective(result) -> float | None:
    """The run's best feasible objective (``None`` without a feasible point)."""
    feasible = [
        r.evaluation.objective for r in result.records if r.evaluation.feasible
    ]
    return min(feasible) if feasible else None


class TestAsyncSchedulerSpeedup:
    def _timed_run(self, mode: str):
        nnbo = make_nnbo(mode)
        start = time.perf_counter()
        result = nnbo.run()
        return time.perf_counter() - start, result

    def test_equal_budget_speedup(self):
        """Async x4: same simulation budget, >= 1.3x faster than sync q=4.

        Wall-clock on shared runners is noisy; a below-floor first
        measurement gets one re-measure before failing.
        """
        t_sync, sync = self._timed_run("sync")
        t_async, asynchronous = self._timed_run("async")

        # fixed simulation budget on both sides
        assert sync.n_evaluations == BUDGET
        assert asynchronous.n_evaluations == BUDGET
        assert sync.cache_misses == BUDGET
        assert asynchronous.cache_misses == BUDGET

        # async bookkeeping: a full proposal ledger, bounded in-flight sets
        ledger = asynchronous.ledger
        assert len(ledger) == BUDGET - N_INITIAL
        assert sorted(ledger.completion_order) == list(range(len(ledger)))
        for record in asynchronous.records:
            if record.phase == "search":
                assert len(record.pending_at_proposal) <= WORKERS - 1

        speedup = t_sync / t_async
        attempts = [speedup]
        if speedup < SPEEDUP_FLOOR:
            t_sync2, _ = self._timed_run("sync")
            t_async2, _ = self._timed_run("async")
            speedup = max(speedup, t_sync2 / t_async2)
            attempts.append(t_sync2 / t_async2)
        print(
            f"\n[async-bo] budget {BUDGET} sims @ ~{MEAN_SIM_SECONDS:.2f}s "
            f"(lognormal sigma={SIGMA}): sync q={WORKERS} {t_sync:.2f}s, "
            f"async x{WORKERS} {t_async:.2f}s -> "
            f"{', '.join(f'{a:.2f}x' for a in attempts)} (quick={QUICK})"
        )
        record_bench(
            {
                "bench": "async_bo",
                "budget": BUDGET,
                "n_initial": N_INITIAL,
                "workers": WORKERS,
                "mean_sim_seconds": MEAN_SIM_SECONDS,
                "sigma": SIGMA,
                "quick": QUICK,
                "wall_clock_sync_q4_s": round(t_sync, 3),
                "wall_clock_async_s": round(t_async, 3),
                "speedup": round(speedup, 3),
                "speedup_attempts": [round(a, 3) for a in attempts],
                "floor": SPEEDUP_FLOOR,
            }
        )
        assert speedup >= SPEEDUP_FLOOR, (
            f"async scheduler speedup {speedup:.2f}x below the "
            f"{SPEEDUP_FLOOR}x floor after retry"
        )


class TestFarmElasticSpeedup:
    """The PR-10 farm pin: elastic + speculative beats fixed async x4.

    Same committed budget on both sides; the farm may burn extra
    *speculative* simulations (its waste axis) but its best feasible
    objective must stay within ``REGRET_TOLERANCE`` of the baseline.
    """

    def _timed_run(self, mode: str):
        nnbo = make_bursty_nnbo(mode)
        start = time.perf_counter()
        result = nnbo.run()
        return time.perf_counter() - start, result

    def test_farm_speedup_with_bounded_regret(self):
        t_fixed, fixed = self._timed_run("async-fixed")
        t_farm, farmed = self._timed_run("farm")

        # equal *committed* budget; speculation may add extra sim cost
        assert fixed.n_evaluations == BUDGET
        assert farmed.n_evaluations == BUDGET
        assert fixed.cache_misses == BUDGET
        assert farmed.cache_misses >= BUDGET
        speculation_waste = farmed.cache_misses - BUDGET

        # speculation must not cost optimization quality: compare the
        # best feasible objective (fall back to the overall minimum when
        # neither run found a feasible design)
        fixed_best = best_feasible_objective(fixed)
        farm_best = best_feasible_objective(farmed)
        if fixed_best is None or farm_best is None:
            fixed_best = float(np.min(fixed.objectives))
            farm_best = float(np.min(farmed.objectives))
        regret_gap = farm_best - fixed_best

        speedup = t_fixed / t_farm
        attempts = [speedup]
        if speedup < FARM_SPEEDUP_FLOOR:
            t_fixed2, _ = self._timed_run("async-fixed")
            t_farm2, _ = self._timed_run("farm")
            speedup = max(speedup, t_fixed2 / t_farm2)
            attempts.append(t_fixed2 / t_farm2)
        print(
            f"\n[async-bo/farm] budget {BUDGET} sims (bursty mixture): "
            f"fixed async x{WORKERS} {t_fixed:.2f}s, elastic farm "
            f"x<= {FARM_WORKERS} {t_farm:.2f}s -> "
            f"{', '.join(f'{a:.2f}x' for a in attempts)}; "
            f"speculation waste {speculation_waste} sims, "
            f"regret gap {regret_gap:+.4f} (quick={QUICK})"
        )
        record_bench(
            {
                "farm": {
                    "budget": BUDGET,
                    "fixed_workers": WORKERS,
                    "farm_workers": FARM_WORKERS,
                    "burst_probability": BURST_PROBABILITY,
                    "straggler_probability": STRAGGLER_PROBABILITY,
                    "wall_clock_fixed_s": round(t_fixed, 3),
                    "wall_clock_farm_s": round(t_farm, 3),
                    "speedup": round(speedup, 3),
                    "speedup_attempts": [round(a, 3) for a in attempts],
                    "floor": FARM_SPEEDUP_FLOOR,
                    "speculation_waste": int(speculation_waste),
                    "best_feasible_fixed": fixed_best,
                    "best_feasible_farm": farm_best,
                    "regret_gap": round(regret_gap, 6),
                    "regret_tolerance": REGRET_TOLERANCE,
                }
            }
        )
        assert regret_gap <= REGRET_TOLERANCE, (
            f"farm best feasible objective {farm_best:.4f} trails the "
            f"fixed-pool baseline {fixed_best:.4f} by more than "
            f"{REGRET_TOLERANCE}"
        )
        assert speedup >= FARM_SPEEDUP_FLOOR, (
            f"farm speedup {speedup:.2f}x below the "
            f"{FARM_SPEEDUP_FLOOR}x floor after retry"
        )
