"""Bench for the async-aware acquisition strategies: equal-budget regret.

The constant-liar/believer fantasies of PRs 2-3 coordinate concurrent
proposals by fabricating observations.  The lie-free alternatives
(:mod:`repro.acquisition.penalization`) must hold the line on sample
efficiency to be worth using: this bench runs the same constrained
multi-modal workload (the Gardner problem — a sinusoidal objective over a
disconnected feasible region) under every
``AcquisitionConfig.pending_strategy`` at the
same simulation budget and pins that neither ``"penalize"`` nor
``"hallucinate"`` is worse than the ``"fantasy"`` believer-lie baseline
beyond a small noise tolerance, in BOTH concurrent modes:

* **sync q=4** — greedy 4-point batches behind the evaluation barrier;
* **async x4** — refill-on-completion with 4 in-flight designs, commit
  order virtualized by a :class:`~repro.bo.scheduler.FakeClock` so every
  run is bitwise reproducible.

Also pinned: **no duplicate in-flight proposals under penalization** —
for every async-penalize proposal, its distance to each design it was
conditioned against exceeds the duplicate tolerance, AND the loop's
random-resample fallback never fired during those runs: the separation
is attributable to the exclusion balls, not to the dedup safety net
(a counting subclass instruments ``_resample_non_duplicate``).

The measured means land in ``BENCH_pending_strategies.json`` (override
with ``REPRO_BENCH_JSON``) for the CI artifact upload.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_pending_strategies.py -v -s``
(set ``REPRO_BENCH_QUICK=1`` for the CI smoke configuration).
"""

import json
import os

import numpy as np

from repro.benchfns.constrained import gardner_problem
from repro.bo.config import AcquisitionConfig, SchedulerConfig
from repro.bo.loop import SurrogateBO
from repro.bo.scheduler import FakeClock
from repro.gp import GPRegression

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

STRATEGIES = ("fantasy", "penalize", "hallucinate")
N_INITIAL = 8
BUDGET = 32 if QUICK else 44
SEEDS = (0, 1, 2) if QUICK else (0, 1, 2, 3, 4)
WORKERS = 4
#: best-feasible tolerance: the strategies differ by O(1e-2) run to run on
#: this workload (objective range ~[-1.89, 2]); a stuck run sits ~0.5 off
REGRET_TOL = 0.10
DUPLICATE_TOL = 1e-9


def gp_factory(rng):
    return GPRegression(n_restarts=1, seed=rng)


class ResampleCountingBO(SurrogateBO):
    """SurrogateBO that counts duplicate-resample fallback invocations.

    Under penalization the exclusion balls must do the spreading; if a
    proposal only stays clear of the in-flight set because the dedup
    safety net redrew it at random, that is a silent strategy failure —
    so the bench asserts this counter stays at zero.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.n_resamples = 0

    def _resample_non_duplicate(self, x_unit):
        self.n_resamples += 1
        return super()._resample_non_duplicate(x_unit)


def run_one(strategy: str, mode: str, seed: int):
    """One equal-budget run of the Gardner workload."""
    if mode == "sync":
        scheduler = SchedulerConfig(
            q=WORKERS, executor="thread", n_eval_workers=WORKERS
        )
    else:
        scheduler = SchedulerConfig(
            executor="async-thread", n_eval_workers=WORKERS, clock=FakeClock()
        )
    optimizer = ResampleCountingBO(
        gardner_problem(),
        gp_factory,
        n_initial=N_INITIAL,
        max_evaluations=BUDGET,
        acquisition_config=AcquisitionConfig(
            duplicate_tol=DUPLICATE_TOL, pending_strategy=strategy
        ),
        scheduler_config=scheduler,
        seed=seed,
    )
    return optimizer.run(), optimizer.n_resamples


def write_bench_json(payload: dict):
    """Persist the measured trajectory for the CI artifact upload."""
    path = os.environ.get("REPRO_BENCH_JSON", "BENCH_pending_strategies.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"[pending-strategies] wrote {path}")


class TestPendingStrategyRegret:
    def test_equal_budget_regret_and_in_flight_separation(self):
        """penalize/hallucinate: no worse than believer lies at equal budget."""
        means: dict[str, dict[str, float]] = {}
        bests: dict[str, dict[str, list[float]]] = {}
        async_penalize_runs = []
        penalize_resamples = 0
        for mode in ("sync", "async"):
            means[mode] = {}
            bests[mode] = {}
            for strategy in STRATEGIES:
                per_seed = []
                for seed in SEEDS:
                    result, n_resamples = run_one(strategy, mode, seed)
                    # equal budget on every side of the comparison
                    assert result.n_evaluations == BUDGET
                    per_seed.append(float(result.best_objective()))
                    if strategy == "penalize":
                        penalize_resamples += n_resamples
                    if mode == "async":
                        ledger = result.ledger
                        assert len(ledger) == BUDGET - N_INITIAL
                        assert all(e.strategy == strategy for e in ledger.entries)
                        if strategy == "penalize":
                            async_penalize_runs.append(result)
                bests[mode][strategy] = per_seed
                means[mode][strategy] = float(np.mean(per_seed))
                print(
                    f"[pending-strategies] {mode:5s} {strategy:11s} "
                    f"best={['%.4f' % b for b in per_seed]} "
                    f"mean={means[mode][strategy]:.4f}"
                )

        # no duplicate in-flight proposals under penalization: every
        # proposal keeps a real distance from the designs it was
        # conditioned against (ledger provenance, unit-box metric)
        min_separation = np.inf
        for result in async_penalize_runs:
            ledger = result.ledger
            for entry in ledger.entries:
                u = np.asarray(entry.u)
                for pid in entry.pending_at_proposal:
                    pending_u = np.asarray(ledger.entry(pid).u)
                    min_separation = min(
                        min_separation, float(np.max(np.abs(u - pending_u)))
                    )
        assert min_separation > DUPLICATE_TOL, (
            f"penalization proposed a duplicate of an in-flight design "
            f"(min separation {min_separation:.3g})"
        )
        # ... and the separation is the penalty field's doing, not the
        # random-redraw safety net silently covering for flat penalties
        assert penalize_resamples == 0, (
            f"penalization leaned on the duplicate-resample fallback "
            f"{penalize_resamples} time(s)"
        )
        print(
            f"[pending-strategies] min in-flight separation "
            f"{min_separation:.4g} (0 resample fallbacks)"
        )

        write_bench_json(
            {
                "bench": "pending_strategies",
                "problem": "gardner",
                "budget": BUDGET,
                "n_initial": N_INITIAL,
                "workers": WORKERS,
                "seeds": list(SEEDS),
                "quick": QUICK,
                "best_feasible": bests,
                "mean_best_feasible": means,
                "min_in_flight_separation": float(min_separation),
                "penalize_resample_fallbacks": int(penalize_resamples),
                "tolerance": REGRET_TOL,
            }
        )

        # equal-budget best-feasible regret: the lie-free strategies may
        # not lose more than the run-to-run noise band to the baseline
        for mode in ("sync", "async"):
            baseline = means[mode]["fantasy"]
            for strategy in ("penalize", "hallucinate"):
                assert means[mode][strategy] <= baseline + REGRET_TOL, (
                    f"{strategy} ({mode}) mean best "
                    f"{means[mode][strategy]:.4f} worse than fantasy "
                    f"baseline {baseline:.4f} + {REGRET_TOL}"
                )
