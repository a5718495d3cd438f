"""Tests for the async-aware pending-point strategies in the BO loop.

Contracts pinned here:

* ``pending_strategy="fantasy"`` is the exact historical behaviour: an
  explicit ``"fantasy"`` run is bitwise identical to a default run in
  every concurrent mode (the existing scheduler suites pin those default
  traces against the legacy loop, so transitivity covers the pre-refactor
  code too);
* the new strategies stay deterministic: async-thread == async-process
  bitwise under a :class:`FakeClock`, and repeated runs are stable;
* ledger provenance records the strategy per proposal;
* strategy/acquisition validation and the q=1 degenerate cases.
"""

import numpy as np
import pytest

from repro.bo.config import AcquisitionConfig, SchedulerConfig, SurrogateConfig
from repro.bo.loop import NNBO, SurrogateBO
from repro.bo.scheduler import FakeClock
from repro.benchfns import toy_constrained_quadratic

# shared helpers: picklable problem (process pools) and the GP factory
from test_scheduler import gp_factory, make_picklable_problem

STRATEGIES = ("fantasy", "penalize", "hallucinate")
TINY_NN = SurrogateConfig(n_ensemble=2, hidden_dims=(8, 8), n_features=6, epochs=15)


def make_bo(pending_strategy=None, max_evaluations=13, **scheduler):
    """A GP loop on the picklable problem; ``scheduler`` builds its config."""
    return SurrogateBO(
        make_picklable_problem(),
        gp_factory,
        n_initial=5,
        max_evaluations=max_evaluations,
        acquisition_config=(
            None
            if pending_strategy is None
            else AcquisitionConfig(pending_strategy=pending_strategy)
        ),
        scheduler_config=SchedulerConfig(**scheduler),
        seed=2024,
    )


class TestFantasyIsBitwiseDefault:
    """Explicit "fantasy" must reproduce today's (pinned) default traces."""

    def test_sync_q4_bitwise(self):
        default = make_bo(q=4, executor="thread", n_eval_workers=4).run()
        explicit = make_bo(
            "fantasy", q=4, executor="thread", n_eval_workers=4
        ).run()
        np.testing.assert_array_equal(explicit.x_matrix, default.x_matrix)
        np.testing.assert_array_equal(explicit.objectives, default.objectives)

    def test_async_bitwise(self):
        kwargs = dict(executor="async-thread", n_eval_workers=3, clock=FakeClock())
        default = make_bo(**kwargs).run()
        explicit = make_bo("fantasy", **kwargs).run()
        np.testing.assert_array_equal(explicit.x_matrix, default.x_matrix)
        assert explicit.ledger.completion_order == default.ledger.completion_order
        assert all(e.strategy == "fantasy" for e in explicit.ledger.entries)
        assert all(e.strategy == "fantasy" for e in default.ledger.entries)


@pytest.mark.parametrize("strategy", ["penalize", "hallucinate"])
class TestNewStrategyDeterminism:
    def _run(self, strategy, executor):
        return make_bo(
            strategy,
            executor=executor,
            n_eval_workers=3,
            clock=FakeClock(),
        ).run()

    def test_async_thread_equals_async_process(self, strategy):
        """Same seed + same virtual clock => bitwise identical traces."""
        reference = self._run(strategy, "async-thread")
        other = self._run(strategy, "async-process")
        np.testing.assert_array_equal(other.x_matrix, reference.x_matrix)
        np.testing.assert_array_equal(other.objectives, reference.objectives)
        assert other.ledger.completion_order == reference.ledger.completion_order

    def test_replay_is_bitwise_stable(self, strategy):
        first = self._run(strategy, "async-thread")
        second = self._run(strategy, "async-thread")
        np.testing.assert_array_equal(second.x_matrix, first.x_matrix)

    def test_sync_cross_executor_determinism(self, strategy):
        runs = [
            make_bo(strategy, q=3, executor=executor, n_eval_workers=3).run()
            for executor in ("thread", "process")
        ]
        np.testing.assert_array_equal(runs[0].x_matrix, runs[1].x_matrix)

    def test_ledger_records_strategy(self, strategy):
        result = self._run(strategy, "async-thread")
        assert len(result.ledger) == 13 - 5
        assert all(e.strategy == strategy for e in result.ledger.entries)
        # provenance stays internally consistent under the new strategies
        search = [r for r in result.records if r.phase == "search"]
        for record in search:
            entry = result.ledger.entry(record.proposal_id)
            assert entry.record_index == record.index
            assert entry.pending_at_proposal == record.pending_at_proposal


class TestStrategySemantics:
    def test_strategies_produce_distinct_traces(self):
        """The three strategies genuinely change the proposal stream."""
        traces = {
            strategy: make_bo(
                strategy, q=4, executor="thread", n_eval_workers=4
            ).run()
            for strategy in STRATEGIES
        }
        search = {
            s: np.stack(
                [r.x for r in t.records if r.phase == "search"]
            )
            for s, t in traces.items()
        }
        assert not np.array_equal(search["fantasy"], search["penalize"])
        assert not np.array_equal(search["fantasy"], search["hallucinate"])
        assert not np.array_equal(search["penalize"], search["hallucinate"])

    def test_batch_mates_distinct_under_all_strategies(self):
        for strategy in STRATEGIES:
            result = make_bo(strategy, q=3, max_evaluations=11).run()
            for batch in result.batches():
                points = np.stack([r.x for r in batch])
                for a in range(len(points)):
                    for b in range(a + 1, len(points)):
                        assert np.max(np.abs(points[a] - points[b])) > 1e-9

    def test_nnbo_bank_path_all_strategies(self):
        """The batched-engine (SurrogateBank) path serves every strategy."""
        for strategy in STRATEGIES:
            result = NNBO(
                toy_constrained_quadratic(2),
                n_initial=5, max_evaluations=9, surrogate=TINY_NN,
                acquisition_config=AcquisitionConfig(pending_strategy=strategy),
                scheduler_config=SchedulerConfig(q=2),
                seed=3,
            ).run()
            assert result.n_evaluations == 9

    def test_async_fantasy_only_refit_with_new_strategies(self):
        """Posterior-only absorbs compose with penalize/hallucinate."""
        for strategy in ("penalize", "hallucinate"):
            result = NNBO(
                toy_constrained_quadratic(2),
                n_initial=5, max_evaluations=11, surrogate=TINY_NN,
                acquisition_config=AcquisitionConfig(pending_strategy=strategy),
                scheduler_config=SchedulerConfig(
                    executor="async-thread", n_eval_workers=2,
                    async_refit="fantasy-only", async_full_refit_every=3,
                    clock=FakeClock(),
                ),
                seed=2,
            ).run()
            assert result.n_evaluations == 11
            assert all(e.strategy == strategy for e in result.ledger.entries)


class TestValidation:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="pending_strategy"):
            make_bo("constant-truth")

    def test_thompson_requires_fantasy(self):
        with pytest.raises(ValueError, match="wei"):
            SurrogateBO(
                toy_constrained_quadratic(2), gp_factory,
                n_initial=5, max_evaluations=8,
                acquisition_config=AcquisitionConfig(
                    acquisition="thompson", pending_strategy="penalize"
                ),
            )

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError, match="hallucinate_kappa"):
            AcquisitionConfig(pending_strategy="hallucinate", hallucinate_kappa=-0.5)
