"""Fully asynchronous sizing with the refill-on-completion loop.

Real simulator workloads have *heterogeneous* evaluation times — a design
near a corner case can take several times longer to converge than an easy
one.  A batch (q-point) scheduler stalls its whole worker pool at a
barrier until the slowest simulation of each batch lands; the
asynchronous scheduler instead proposes a fresh design the moment any
single evaluation finishes, conditioning on the still-pending set via
Kriging-believer fantasies, so the pool never idles:

    python examples/async_sizing.py

This demo pads the two-stage op-amp testbench (Table I) with a
design-dependent lognormal delay standing in for SPICE-level cost, then
runs the same simulation budget three ways: serial, batched q=4, and
async with 4 in-flight evaluations.  It also shows the async provenance
trail: every history record carries its proposal id and the proposals
that were pending when it was conditioned (``result.ledger`` holds the
full proposal/commit order, making the run auditable and replayable).
"""

import time
import zlib

import numpy as np

from repro import NNBO, SchedulerConfig, SurrogateConfig
from repro.circuits.testbenches import TwoStageOpAmpProblem


class JitteredOpAmpProblem(TwoStageOpAmpProblem):
    """Op-amp testbench with a heterogeneous per-simulation wall-clock cost.

    The delay is a deterministic function of the design point (lognormal
    spread around MEAN_SIM_SECONDS) so runs are reproducible.
    """

    MEAN_SIM_SECONDS = 0.08
    SIGMA = 0.8

    def evaluate(self, x):
        digest = zlib.crc32(np.round(np.asarray(x, float), 10).tobytes())
        rng = np.random.default_rng(digest)
        time.sleep(
            self.MEAN_SIM_SECONDS
            * rng.lognormal(mean=-self.SIGMA**2 / 2.0, sigma=self.SIGMA)
        )
        return super().evaluate(x)


def run(label: str, scheduler: SchedulerConfig):
    optimizer = NNBO(
        JitteredOpAmpProblem(),
        n_initial=12,
        max_evaluations=32,
        surrogate=SurrogateConfig(
            n_ensemble=3, hidden_dims=(24, 24), n_features=16, epochs=100
        ),
        scheduler_config=scheduler,
        seed=2019,
    )
    start = time.perf_counter()
    result = optimizer.run()
    elapsed = time.perf_counter() - start
    print(f"{label:14s}: {result.n_evaluations} sims in {elapsed:5.1f}s, "
          f"best GAIN {-result.best_objective():.2f} dB")
    return elapsed, result


def main():
    print("--- equal budget, three schedulers --------------------")
    t_serial, _ = run("serial q=1", SchedulerConfig(executor="serial"))
    t_batch, _ = run("batch q=4", SchedulerConfig(q=4, executor="thread"))
    t_async, asynchronous = run(
        "async x4",
        SchedulerConfig(
            executor="async-thread",
            n_eval_workers=4,
            async_refit="fantasy-only",  # cheap posterior absorbs per landing
        ),
    )
    print(f"\nbatch speedup vs serial: {t_serial / t_batch:.2f}x")
    print(f"async speedup vs serial: {t_serial / t_async:.2f}x")
    print(f"async speedup vs batch : {t_batch / t_async:.2f}x "
          "(no barrier on the slowest simulation)")

    print("\n--- async provenance ----------------------------------")
    search = [r for r in asynchronous.records if r.phase == "search"][:6]
    for record in search:
        print(
            f"record #{record.index}: proposal {record.proposal_id}, "
            f"conditioned on pending {list(record.pending_at_proposal)}"
        )
    order = asynchronous.ledger.completion_order
    print(f"...\ncommit order of proposals: {order[:12]} ...")


if __name__ == "__main__":
    main()
