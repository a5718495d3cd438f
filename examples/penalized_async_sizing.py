"""Async sizing with lie-free pending-point strategies.

The asynchronous loop must keep its in-flight proposals apart: by
default each pending design is absorbed as a *fantasy* (believer-lie)
observation before the next proposal is maximized.  This demo runs the
same op-amp sizing budget under the three
``AcquisitionConfig.pending_strategy`` options (see
``repro.acquisition.penalization``):

* ``"fantasy"``     — believer lies (the historical default),
* ``"penalize"``    — local penalization: clean-posterior wEI times one
  exclusion-ball penalty per pending design (Lipschitz-derived radii,
  no fabricated observations),
* ``"hallucinate"`` — GP-BUCB: pending designs conditioned at their own
  posterior means, proposals maximize the optimistic improvement bound.

and then shows the new provenance: every ledger entry records which
strategy produced it, and under penalization the in-flight designs keep
a real mutual separation (the exclusion balls do the spreading).

    python examples/penalized_async_sizing.py
"""

import numpy as np

from repro import AcquisitionConfig, NNBO, SchedulerConfig, SurrogateConfig
from repro.bo.scheduler import FakeClock
from repro.circuits.testbenches import TwoStageOpAmpProblem


def run(strategy: str):
    optimizer = NNBO(
        TwoStageOpAmpProblem(),
        n_initial=12,
        max_evaluations=32,
        surrogate=SurrogateConfig(
            n_ensemble=3, hidden_dims=(24, 24), n_features=16, epochs=100
        ),
        acquisition_config=AcquisitionConfig(pending_strategy=strategy),
        scheduler_config=SchedulerConfig(
            executor="async-thread",
            n_eval_workers=4,
            # virtual completion order: the comparison is bitwise
            # reproducible run to run and machine to machine
            clock=FakeClock(),
        ),
        seed=2019,
    )
    result = optimizer.run()
    print(
        f"{strategy:12s}: {result.n_evaluations} sims, "
        f"best GAIN {-result.best_objective():.2f} dB, "
        f"{len(result.ledger)} async proposals"
    )
    return result


def min_in_flight_separation(result) -> float:
    """Smallest unit-box distance between a proposal and its pending set."""
    ledger = result.ledger
    separation = np.inf
    for entry in ledger.entries:
        u = np.asarray(entry.u)
        for pid in entry.pending_at_proposal:
            other = np.asarray(ledger.entry(pid).u)
            separation = min(separation, float(np.max(np.abs(u - other))))
    return separation


def main():
    print("--- equal budget, three pending-point strategies ------")
    results = {s: run(s) for s in ("fantasy", "penalize", "hallucinate")}

    print("\n--- strategy provenance -------------------------------")
    for strategy, result in results.items():
        entry = result.ledger.entries[0]
        print(
            f"{strategy:12s}: ledger entry 0 -> strategy={entry.strategy!r}, "
            f"pending={list(entry.pending_at_proposal)}"
        )

    print("\n--- in-flight separation ------------------------------")
    for strategy, result in results.items():
        print(
            f"{strategy:12s}: min distance between a proposal and the "
            f"designs it conditioned on = {min_in_flight_separation(result):.4g}"
        )


if __name__ == "__main__":
    main()
