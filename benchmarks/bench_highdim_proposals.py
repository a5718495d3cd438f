"""Bench for the high-dimensional proposal engine: cycle time + regret.

Full-space DE maximization stalls at high dimension: the dim-aware
population is ``4 * dim`` members and the Nelder-Mead polish budget grows
with ``dim``, so one d=100 proposal costs tens of thousands of surrogate
evaluations.  The subspace proposal spaces
(:mod:`repro.acquisition.spaces`) exist to break that scaling — this
bench pins both sides of the bargain on the embedded high-dim family
(:mod:`repro.benchfns.highdim`, low effective dimension inside a d=100
box):

* **proposal-cycle speedup** — maximizing the same fitted wEI surface at
  d=100 must be **>= 5x faster** through the ``"line"`` and
  ``"trust-region"`` spaces than through full-space DE;
* **equal-budget regret** — each subspace's mean best-feasible
  objective, aggregated across the workload suite (unconstrained and
  constrained problems together; objectives are normalized to O(1) with
  optimum 0), may not be worse than the full-space baseline's aggregate
  beyond a 0.1 tolerance.  Per-problem means land in the JSON so the
  trajectory stays visible: the line fan typically *beats* full-space on
  the unconstrained problems and gives some of it back on the
  mean-coupled constrained variant (coordinated multi-coordinate moves
  are exactly what 1-D slices cannot make — see the README's
  line-vs-trust-region guidance), while the trust region wins across the
  board.

The measurements land in ``BENCH_highdim_proposals.json`` (override with
``REPRO_BENCH_JSON``) for the CI artifact upload.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_highdim_proposals.py -v -s``
(set ``REPRO_BENCH_QUICK=1`` for the CI smoke configuration).
"""

import os
import time

import numpy as np
import pytest

from artifacts import write_bench_json
from repro.acquisition.fantasy import PerTargetBank
from repro.acquisition.maximize import DifferentialEvolutionMaximizer
from repro.acquisition.spaces import (
    LineSpace,
    ProposalSpace,
    TrustRegionSpace,
    incumbent_index,
)
from repro.acquisition.wei import WeightedExpectedImprovement
from repro.benchfns.highdim import embedded_highdim_problem
from repro.bo.config import AcquisitionConfig
from repro.bo.design import make_design
from repro.bo.loop import SurrogateBO
from repro.gp import GPRegression

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

DIM = 100
EFFECTIVE_DIM = 6
SPACES = ("full", "line", "trust-region")
SPEEDUP_FLOOR = 5.0
#: objectives are normalized to O(1) with optimum 0; run-to-run scatter
#: between spaces on this family is O(1e-2)
REGRET_TOL = 0.10

N_TRAIN = 40  # fitted-surface size for the timing comparison
TIMING_REPEATS = 2 if QUICK else 3

N_INITIAL = 10
BUDGET = 22 if QUICK else 30
SEEDS = (0, 1, 2) if QUICK else (0, 1, 2, 3, 4)
REGRET_FUNCTIONS = ("sphere",) if QUICK else ("sphere", "rastrigin", "ackley")


def gp_factory(rng):
    return GPRegression(n_restarts=1, seed=rng)


def fitted_acquisition(problem, seed: int = 0):
    """A wEI surface over a GP fitted to an LHS sample of ``problem``."""
    rng = np.random.default_rng(seed)
    x = make_design("lhs", N_TRAIN, problem.dim, rng)
    y = np.array([problem.evaluate_unit(u).objective for u in x])
    bank = PerTargetBank(gp_factory, rng, 1).fit(x, y[None, :])
    tau = float(np.min(y))
    return WeightedExpectedImprovement(bank, tau=tau), x, y


def make_maximizer(space: str):
    """The maximizer one proposal cycle runs through for ``space``."""
    if space == "full":
        return DifferentialEvolutionMaximizer()
    if space == "line":
        return LineSpace()
    return TrustRegionSpace()


def time_proposal_cycle(space: str, acquisition, incumbent) -> float:
    """Best-of-N wall-clock seconds for one d=100 proposal."""
    best = np.inf
    for repeat in range(TIMING_REPEATS):
        maximizer = make_maximizer(space)
        if isinstance(maximizer, ProposalSpace):
            maximizer.set_incumbent(incumbent)
        rng = np.random.default_rng(100 + repeat)
        start = time.perf_counter()
        pick = maximizer.maximize(acquisition, DIM, rng)
        elapsed = time.perf_counter() - start
        assert pick.shape == (DIM,)
        assert np.all(pick >= 0.0) and np.all(pick <= 1.0)
        best = min(best, elapsed)
    return best


def run_regret(problem, space: str, seed: int):
    """One equal-budget closed-loop run under ``space``."""
    optimizer = SurrogateBO(
        problem,
        gp_factory,
        n_initial=N_INITIAL,
        max_evaluations=BUDGET,
        acquisition_config=AcquisitionConfig(proposal_space=space),
        seed=seed,
    )
    return optimizer.run()


def record_bench(payload: dict):
    """Persist the measurements for the CI artifact upload."""
    path = write_bench_json("BENCH_highdim_proposals.json", payload)
    print(f"[highdim-proposals] wrote {path}")


@pytest.mark.highdim
class TestHighdimProposals:
    def test_proposal_cycle_speedup_and_equal_budget_regret(self):
        """line/trust-region: >=5x cheaper proposals, regret within 0.1."""
        # -- (a) proposal-cycle time on one fitted wEI surface at d=100 --
        problem = embedded_highdim_problem(
            "sphere", dim=DIM, effective_dim=EFFECTIVE_DIM, seed=0
        )
        acquisition, x_train, y_train = fitted_acquisition(problem)
        incumbent = x_train[int(np.argmin(y_train))]
        cycle_seconds = {
            space: time_proposal_cycle(space, acquisition, incumbent)
            for space in SPACES
        }
        speedup = {
            space: cycle_seconds["full"] / cycle_seconds[space]
            for space in ("line", "trust-region")
        }
        for space in SPACES:
            print(
                f"[highdim-proposals] d={DIM} {space:12s} "
                f"cycle={cycle_seconds[space] * 1e3:8.1f} ms"
                + (
                    f"  speedup={speedup[space]:6.1f}x"
                    if space in speedup
                    else ""
                )
            )

        # -- (b) equal-budget best-feasible regret ------------------------
        problems = [
            embedded_highdim_problem(
                fn, dim=DIM, effective_dim=EFFECTIVE_DIM, seed=0
            )
            for fn in REGRET_FUNCTIONS
        ]
        problems.append(
            embedded_highdim_problem(
                "sphere",
                dim=DIM,
                effective_dim=EFFECTIVE_DIM,
                seed=0,
                constrained=True,
            )
        )
        regret: dict[str, dict[str, float]] = {}
        for prob in problems:
            regret[prob.name] = {}
            for space in SPACES:
                per_seed = []
                for seed in SEEDS:
                    result = run_regret(prob, space, seed)
                    assert result.n_evaluations == BUDGET
                    best = result.best_feasible()
                    # the feasible region is wide enough for the LHS
                    # design to hit; a run with no feasible point is a
                    # bench failure, not a regret data point
                    assert best is not None, (
                        f"{space} found no feasible point on {prob.name} "
                        f"(seed {seed})"
                    )
                    per_seed.append(float(best.evaluation.objective))
                    # the subspace drivers must aim at the incumbent the
                    # history defines (sanity on the wiring, not perf)
                    assert incumbent_index(result) is not None
                regret[prob.name][space] = float(np.mean(per_seed))
            print(
                f"[highdim-proposals] {prob.name:18s} "
                + "  ".join(
                    f"{space}={regret[prob.name][space]:.4f}"
                    for space in SPACES
                )
            )

        aggregate = {
            space: float(np.mean([regret[p.name][space] for p in problems]))
            for space in SPACES
        }
        print(
            "[highdim-proposals] workload aggregate  "
            + "  ".join(f"{space}={aggregate[space]:.4f}" for space in SPACES)
        )

        record_bench(
            {
                "bench": "highdim_proposals",
                "dim": DIM,
                "effective_dim": EFFECTIVE_DIM,
                "quick": QUICK,
                "n_train": N_TRAIN,
                "budget": BUDGET,
                "n_initial": N_INITIAL,
                "seeds": list(SEEDS),
                "proposal_cycle_seconds": cycle_seconds,
                "speedup": speedup,
                "speedup_floor": SPEEDUP_FLOOR,
                "mean_best_feasible": regret,
                "aggregate_best_feasible": aggregate,
                "regret_tolerance": REGRET_TOL,
            }
        )

        # the floors: >=5x cheaper proposals, no aggregate regret beyond
        # tolerance (per-problem means stay visible in the JSON)
        for space, factor in speedup.items():
            assert factor >= SPEEDUP_FLOOR, (
                f"{space} proposal cycle only {factor:.1f}x faster than "
                f"full-space DE at d={DIM} (floor {SPEEDUP_FLOOR}x)"
            )
        for space in ("line", "trust-region"):
            assert aggregate[space] <= aggregate["full"] + REGRET_TOL, (
                f"{space} aggregate best-feasible {aggregate[space]:.4f} "
                f"worse than full-space {aggregate['full']:.4f} + {REGRET_TOL}"
            )
