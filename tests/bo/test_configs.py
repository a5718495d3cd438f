"""Tests for the typed configs, the optimizers' one config path.

Contracts pinned here:

* configs validate at construction and every message names the
  offending value;
* the legacy flat constructor kwargs (``q=``, ``n_ensemble=``, ...) are
  gone: passing one is a ``TypeError``, and the optimizers keep no flat
  mirrors of the config fields;
* config-only construction is warning-free.
"""

import warnings

import pytest

from repro.bo.config import (
    AcquisitionConfig,
    FarmConfig,
    SchedulerConfig,
    SpeculationConfig,
    SurrogateConfig,
    config_to_dict,
)
from repro.bo.loop import NNBO, SurrogateBO
from repro.bo.scheduler import FakeClock, SerialEvaluator, make_evaluator
from repro.benchfns import toy_constrained_quadratic

from test_scheduler import gp_factory


class TestConfigValidation:
    def test_scheduler_q(self):
        with pytest.raises(ValueError, match="got 0"):
            SchedulerConfig(q=0)

    def test_scheduler_executor_spec(self):
        with pytest.raises(ValueError, match="'cluster'"):
            SchedulerConfig(executor="cluster")
        # executor instances pass through untouched
        instance = SerialEvaluator()
        assert SchedulerConfig(executor=instance).executor is instance

    def test_scheduler_async_knobs(self):
        with pytest.raises(ValueError, match="'lazy'"):
            SchedulerConfig(async_refit="lazy")
        with pytest.raises(ValueError, match="async_full_refit_every must be >= 1, got 0"):
            SchedulerConfig(async_full_refit_every=0)
        with pytest.raises(ValueError, match="n_eval_workers must be >= 1, got -2"):
            SchedulerConfig(n_eval_workers=-2)

    def test_acquisition_family(self):
        with pytest.raises(ValueError, match="'ei'"):
            AcquisitionConfig(acquisition="ei")

    def test_acquisition_fantasy(self):
        with pytest.raises(ValueError, match="'oracle'"):
            AcquisitionConfig(fantasy="oracle")

    def test_acquisition_pending_strategy(self):
        with pytest.raises(ValueError, match="pending_strategy"):
            AcquisitionConfig(pending_strategy="constant-truth")
        with pytest.raises(ValueError, match="wei"):
            AcquisitionConfig(acquisition="thompson", pending_strategy="penalize")

    def test_acquisition_kappa_and_tol(self):
        with pytest.raises(ValueError, match="-0.5"):
            AcquisitionConfig(hallucinate_kappa=-0.5)
        with pytest.raises(ValueError, match="-1e-09"):
            AcquisitionConfig(duplicate_tol=-1e-9)

    def test_surrogate_engine(self):
        # retired knobs: the bank is the only training engine, and the
        # serial per-slice loop the only linalg loop
        with pytest.raises(TypeError, match="engine"):
            SurrogateConfig(engine="batched")
        with pytest.raises(TypeError, match="linalg_threads"):
            SurrogateConfig(linalg_threads=2)
        with pytest.raises(ValueError, match="n_ensemble must be >= 1, got 0"):
            SurrogateConfig(n_ensemble=0)
        with pytest.raises(ValueError, match="lr must be positive, got 0"):
            SurrogateConfig(lr=0.0)

    def test_configs_are_frozen(self):
        config = SchedulerConfig()
        with pytest.raises(AttributeError):
            config.q = 4

    def test_config_to_dict_json_safe(self):
        payload = config_to_dict(
            SchedulerConfig(executor=SerialEvaluator(), clock=FakeClock())
        )
        assert payload["executor"] == "SerialEvaluator"
        assert payload["clock"] == "FakeClock"
        assert payload["q"] == 1
        surrogate = config_to_dict(SurrogateConfig(hidden_dims=(8, 8)))
        assert surrogate["hidden_dims"] == [8, 8]


class TestFarmConfigs:
    def test_farm_and_speculation_dict_coercion(self):
        config = SchedulerConfig(
            executor="async-thread",
            farm={"mode": "elastic", "max_in_flight": 6},
            speculation={"max_speculative": 2},
        )
        assert isinstance(config.farm, FarmConfig)
        assert config.farm.mode == "elastic"
        assert isinstance(config.speculation, SpeculationConfig)
        assert config.speculation.max_speculative == 2
        payload = config_to_dict(config)
        assert payload["farm"]["max_in_flight"] == 6
        assert payload["speculation"]["max_age_landings"] == 4

    def test_speculation_without_farm_rejected(self):
        with pytest.raises(ValueError, match="farm"):
            SchedulerConfig(
                executor="async-thread", speculation=SpeculationConfig()
            )

    def test_farm_validation(self):
        with pytest.raises(ValueError, match="mode"):
            FarmConfig(mode="turbo")
        with pytest.raises(ValueError, match="max_in_flight"):
            FarmConfig(min_in_flight=4, max_in_flight=2)
        with pytest.raises(ValueError, match="ewma_alpha"):
            FarmConfig(ewma_alpha=0.0)
        with pytest.raises(ValueError, match="propose_cost_s"):
            FarmConfig(propose_cost_s=0.0)

    def test_adaptive_kappa_schedule(self):
        config = AcquisitionConfig(hallucinate_kappa="beta-t")
        early = config.resolve_hallucinate_kappa(dim=6, t=1)
        late = config.resolve_hallucinate_kappa(dim=6, t=100)
        assert 0.0 < early < late  # beta_t grows with t (GP-BUCB)
        # a numeric kappa resolves to itself regardless of t
        fixed = AcquisitionConfig(hallucinate_kappa=2.5)
        assert fixed.resolve_hallucinate_kappa(dim=6, t=50) == 2.5
        with pytest.raises(ValueError, match="hallucinate_kappa"):
            AcquisitionConfig(hallucinate_kappa="linear")
        with pytest.raises(ValueError, match="hallucinate_delta"):
            AcquisitionConfig(hallucinate_delta=1.5)


class TestErrorMessagesNameValues:
    def test_make_evaluator_instance_override(self):
        with pytest.raises(ValueError, match="n_workers=4"):
            make_evaluator(SerialEvaluator(), 4)

    def test_fake_clock_negative(self):
        with pytest.raises(ValueError, match="base=-1"):
            FakeClock(base=-1.0)


class TestDeprecationShim:
    """The removed legacy-kwarg shim stays removed."""

    def _problem(self):
        return toy_constrained_quadratic(2)

    def test_legacy_kwargs_rejected(self):
        with pytest.raises(TypeError, match="'q'"):
            SurrogateBO(
                self._problem(), gp_factory, n_initial=5, max_evaluations=8, q=3
            )
        with pytest.raises(TypeError, match="'n_ensemble'"):
            NNBO(self._problem(), n_initial=5, max_evaluations=8, n_ensemble=2)

    def test_only_derived_attributes_remain(self):
        nnbo = NNBO(
            self._problem(),
            n_initial=5,
            max_evaluations=8,
            surrogate=SurrogateConfig(n_ensemble=2),
            scheduler_config=SchedulerConfig(q=3),
            seed=0,
        )
        assert nnbo.surrogate_config.n_ensemble == 2
        assert nnbo.scheduler_config.q == 3
        # the one value resolved against problem/config context stays
        assert nnbo.log_space_acq is False
        for mirror in ("q", "executor", "fantasy", "async_refit", "n_ensemble", "engine"):
            assert not hasattr(nnbo, mirror)

    def test_config_only_construction_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            SurrogateBO(
                self._problem(),
                gp_factory,
                n_initial=5,
                max_evaluations=8,
                acquisition_config=AcquisitionConfig(),
                scheduler_config=SchedulerConfig(),
                seed=0,
            )
            NNBO(
                self._problem(),
                n_initial=5,
                max_evaluations=8,
                surrogate=SurrogateConfig(
                    n_ensemble=2, hidden_dims=(8, 8), n_features=6, epochs=10
                ),
                seed=0,
            )

    def test_validation_errors_still_raise_at_construction(self):
        with pytest.raises(ValueError, match="async_refit"):
            SurrogateBO(
                self._problem(),
                gp_factory,
                n_initial=5,
                max_evaluations=8,
                scheduler_config=SchedulerConfig(async_refit="lazy"),
            )
        with pytest.raises(ValueError, match="n_initial must be >= 2, got 1"):
            SurrogateBO(
                self._problem(), gp_factory, n_initial=1, max_evaluations=8
            )
