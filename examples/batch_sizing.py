"""Batch (q-point) sizing with the propose/evaluate scheduler.

Proposes q = 4 designs per BO iteration and evaluates each batch on a
thread pool, then reruns the same seed serially with q = 1 to show the
wall-clock difference at an identical simulation budget:

    python examples/batch_sizing.py

The q-point acquisition keeps the batch diverse with Kriging-believer
fantasy updates between picks (pass
``AcquisitionConfig(fantasy="cl-min")`` or ``"cl-max"`` for the classic
constant liar), and the history records full provenance: which iteration
and batch slot every design came from, and which pending points its
acquisition conditioned on.  For CPU-bound pure-Python simulators use
``SchedulerConfig(executor="process")`` — threads suit simulators that
block on IO or subprocesses.  The testbench here simulates a two-stage op-amp (Table I);
an artificial per-simulation delay stands in for SPICE-level cost so the
parallel win is visible in a quick demo.
"""

import time

from repro import NNBO, SchedulerConfig, SurrogateConfig
from repro.circuits.testbenches import TwoStageOpAmpProblem


class SlowOpAmpProblem(TwoStageOpAmpProblem):
    """Op-amp testbench padded to a fixed per-simulation wall-clock cost."""

    SIM_SECONDS = 0.08

    def evaluate(self, x):
        time.sleep(self.SIM_SECONDS)
        return super().evaluate(x)


def run(q: int, executor: str):
    optimizer = NNBO(
        SlowOpAmpProblem(),
        n_initial=12,
        max_evaluations=32,
        surrogate=SurrogateConfig(
            n_ensemble=3, hidden_dims=(24, 24), n_features=16, epochs=100
        ),
        scheduler_config=SchedulerConfig(q=q, executor=executor),
        seed=2019,
    )
    start = time.perf_counter()
    result = optimizer.run()
    return time.perf_counter() - start, result


def main():
    t_batch, batched = run(q=4, executor="thread")
    t_serial, serial = run(q=1, executor="serial")

    print("--- equal budget, different wall-clock ----------------")
    print(f"serial  q=1: {serial.n_evaluations} sims in {t_serial:5.1f}s")
    print(f"batched q=4: {batched.n_evaluations} sims in {t_batch:5.1f}s "
          f"({t_serial / t_batch:.2f}x)")
    print(f"best GAIN serial : {-serial.best_objective():.2f} dB")
    print(f"best GAIN batched: {-batched.best_objective():.2f} dB")

    print("\n--- batch provenance ----------------------------------")
    for batch in batched.batches()[:3]:
        row = ", ".join(
            f"#{r.index}(slot {r.batch_index}, pending {list(r.pending)})"
            for r in batch
        )
        print(f"iteration {batch[0].iteration}: {row}")
    print("...")


if __name__ == "__main__":
    main()
