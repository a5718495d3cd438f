"""Typed configuration objects for the ask/tell optimizer core.

Four PRs of scheduler/acquisition/surrogate knobs accreted onto the
``SurrogateBO``/``NNBO`` constructors as a flat kwarg pile (``q``,
``executor``, ``fantasy``, ``pending_strategy``, ``async_refit``, ...).
This module replaces that pile with three small dataclasses, grouped the
way the knobs actually interact:

* :class:`SurrogateConfig` — the paper's NN-feature-GP ensemble
  hyper-parameters (Sec. III) and the stacked engine's array backend,
* :class:`AcquisitionConfig` — how the next design is chosen (acquisition
  family, log-space evaluation, duplicate handling) and how concurrent
  proposals shape each other (fantasy lies, local penalization,
  hallucinated bounds),
* :class:`SchedulerConfig` — how proposals are evaluated (batch size,
  executor, worker counts, asynchronous refit policy, virtual clock).

Validation lives in ``__post_init__`` — a config object that exists is a
config object that is valid, and every error message names the offending
value.  The configs are frozen: derive variants with
:func:`dataclasses.replace` instead of mutating shared instances.

:class:`~repro.bo.loop.SurrogateBO` / :class:`~repro.bo.loop.NNBO` take
these configs as their only way to set the knobs (the flat legacy kwargs
are gone).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from repro import utils
from repro.acquisition.fantasy import FANTASY_STRATEGIES
from repro.acquisition.penalization import validate_pending_strategy
from repro.acquisition.spaces import (
    PROPOSAL_SPACES,
    TrustRegionConfig,
    make_proposal_space,
)
from repro.backend import get_namespace

#: surrogate update policies of the asynchronous (refill-on-completion) loop
ASYNC_REFIT_POLICIES = ("full", "fantasy-only")

#: executor specs resolvable by :func:`repro.bo.scheduler.make_evaluator`
EXECUTOR_SPECS = ("serial", "thread", "process", "async-thread", "async-process")

#: sizing policies of the evaluation farm (:mod:`repro.farm`)
FARM_MODES = ("fixed", "elastic")

#: adaptive schedules accepted by ``AcquisitionConfig.hallucinate_kappa``
KAPPA_SCHEDULES = ("beta-t",)

#: array backends for the batched engine (see :mod:`repro.backend`)
SURROGATE_BACKENDS = ("auto", "numpy", "torch", "cupy")

ACQUISITIONS = ("wei", "thompson")


def check_count(name: str, value, minimum: int = 1) -> int:
    """Validate an integer count, naming the offending value on failure.

    Shared by the configs, the executors and the farm so the
    ``n_workers``/``q``-style checks stay consistent and every message
    names the offending value.
    """
    value = int(value)
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_choice(name: str, value: str, choices) -> str:
    """Validate a string spec against its allowed values."""
    value = str(value)
    if value not in choices:
        raise ValueError(f"{name} must be one of {tuple(choices)}, got {value!r}")
    return value


@dataclass(frozen=True)
class SurrogateConfig:
    """NN-feature-GP ensemble hyper-parameters (paper Sec. III).

    The paper's defaults: K = 5 members per modelled quantity, two hidden
    layers of 50 units, 50 features, 300 training epochs.  All K x T
    members (T = objective + constraints) train as one stacked tensor
    program, a :class:`~repro.core.batched_gp.SurrogateBank` built by
    :meth:`bank_factory`.

    ``backend`` selects the stacked engine's array backend
    (:mod:`repro.backend`): ``"numpy"`` (default, bitwise-reference path),
    ``"torch"`` / ``"cupy"`` (soft dependencies), or ``"auto"`` (first
    importable accelerator, falling back to numpy).  ``device`` names the
    accelerator device (e.g. ``"cuda:0"``).
    """

    n_ensemble: int = 5
    hidden_dims: tuple = (50, 50)
    n_features: int = 50
    activation: str = "relu"
    output_activation: str = "tanh"
    epochs: int = 300
    lr: float = 5e-3
    pretrain_epochs: int = 0
    patience: int | None = 60
    backend: str = "numpy"
    device: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "n_ensemble", check_count("n_ensemble", self.n_ensemble))
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        object.__setattr__(self, "n_features", check_count("n_features", self.n_features))
        object.__setattr__(self, "epochs", check_count("epochs", self.epochs))
        object.__setattr__(self, "pretrain_epochs", int(self.pretrain_epochs))
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        object.__setattr__(
            self,
            "backend",
            check_choice("backend", str(self.backend).lower(), SURROGATE_BACKENDS),
        )
        if self.device is not None:
            object.__setattr__(self, "device", str(self.device))

    def resolve_backend(self):
        """The configured :class:`~repro.backend.base.ArrayNamespace`.

        Raises :class:`~repro.backend.BackendNotAvailable` when an
        explicitly requested soft-dependency backend is not installed.
        """
        return get_namespace(self.backend, device=self.device)

    # -- factory builders -----------------------------------------------------
    # The NN-GP engine is imported on first use: a study that fits GP
    # baselines (or only reads its configs) never loads it, and importing
    # repro.bo.study stays free of it.

    def batched_trainer_factory(self):
        """A fresh stacked trainer (one per bank fit)."""
        from repro.core.trainer import BatchedFeatureGPTrainer

        return BatchedFeatureGPTrainer(
            epochs=self.epochs,
            lr=self.lr,
            pretrain_epochs=self.pretrain_epochs,
            patience=self.patience,
        )

    def bank_factory(self, input_dim: int):
        """``(rng, n_targets) -> SurrogateBank``: a fresh ensemble bank."""
        from repro.core.batched_gp import SurrogateBank

        xb = self.resolve_backend()

        def make_bank(rng, n_targets):
            return SurrogateBank(
                input_dim=input_dim,
                n_targets=n_targets,
                n_members=self.n_ensemble,
                hidden_dims=self.hidden_dims,
                n_features=self.n_features,
                activation=self.activation,
                output_activation=self.output_activation,
                trainer_factory=self.batched_trainer_factory,
                seed=rng,
                backend=xb,
            )

        return make_bank


@dataclass(frozen=True)
class AcquisitionConfig:
    """How the next design is chosen and how concurrent picks interact.

    ``log_space`` of ``None`` auto-enables log-space wEI when the problem
    has four or more constraints (the Table II charge pump has five, where
    the plain PF product underflows).  ``fantasy`` is the lie strategy
    between wEI picks; ``pending_strategy`` decides how batch-mate /
    in-flight designs shape each proposal's acquisition (see
    :mod:`repro.acquisition.penalization`); ``hallucinate_kappa`` is the
    GP-BUCB confidence multiplier of the ``"hallucinate"`` strategy —
    either a constant float or the adaptive schedule name ``"beta-t"``
    (see :meth:`resolve_hallucinate_kappa`), whose failure probability
    ``hallucinate_delta`` tunes.

    ``proposal_space`` picks where the inner-loop maximizer searches
    (see :mod:`repro.acquisition.spaces`): ``"full"`` — the whole unit
    box, today's path, bitwise unchanged; ``"line"`` — a random 1-D line
    through the incumbent (LinEasyBO-style, cheap at high dimension);
    ``"trust-region"`` — a TuRBO-style adaptive box around the incumbent
    whose knobs live in ``trust_region`` (a
    :class:`~repro.acquisition.spaces.TrustRegionConfig` or dict).
    """

    acquisition: str = "wei"
    log_space: bool | None = None
    duplicate_tol: float = 1e-9
    fantasy: str = "believer"
    pending_strategy: str = "fantasy"
    hallucinate_kappa: float | str = 2.0
    hallucinate_delta: float = 0.1
    proposal_space: str = "full"
    trust_region: TrustRegionConfig | None = None

    def __post_init__(self):
        check_choice("acquisition", self.acquisition, ACQUISITIONS)
        object.__setattr__(
            self,
            "proposal_space",
            check_choice(
                "proposal_space",
                str(self.proposal_space).replace("_", "-").lower(),
                PROPOSAL_SPACES,
            ),
        )
        if self.trust_region is not None:
            if isinstance(self.trust_region, dict):
                object.__setattr__(
                    self, "trust_region", TrustRegionConfig(**self.trust_region)
                )
            elif not isinstance(self.trust_region, TrustRegionConfig):
                raise ValueError(
                    "trust_region must be a TrustRegionConfig or dict, got "
                    f"{type(self.trust_region).__name__}"
                )
            if self.proposal_space != "trust-region":
                raise ValueError(
                    "trust_region is only meaningful with "
                    f"proposal_space='trust-region', got {self.proposal_space!r}"
                )
        if self.fantasy not in FANTASY_STRATEGIES:
            raise ValueError(
                f"fantasy must be one of {FANTASY_STRATEGIES}, got {self.fantasy!r}"
            )
        validate_pending_strategy(self.pending_strategy, self.acquisition)
        if isinstance(self.hallucinate_kappa, str):
            object.__setattr__(
                self,
                "hallucinate_kappa",
                check_choice(
                    "hallucinate_kappa",
                    self.hallucinate_kappa.lower(),
                    KAPPA_SCHEDULES,
                ),
            )
        else:
            if self.hallucinate_kappa < 0:
                raise ValueError(
                    f"hallucinate_kappa must be non-negative, got "
                    f"{self.hallucinate_kappa}"
                )
            object.__setattr__(
                self, "hallucinate_kappa", float(self.hallucinate_kappa)
            )
        if not 0.0 < float(self.hallucinate_delta) < 1.0:
            raise ValueError(
                f"hallucinate_delta must be in (0, 1), got "
                f"{self.hallucinate_delta}"
            )
        object.__setattr__(
            self, "hallucinate_delta", float(self.hallucinate_delta)
        )
        if self.duplicate_tol < 0:
            raise ValueError(
                f"duplicate_tol must be non-negative, got {self.duplicate_tol}"
            )
        object.__setattr__(self, "duplicate_tol", float(self.duplicate_tol))

    def resolve_log_space(self, n_constraints: int) -> bool:
        """The concrete log-space flag for a problem's constraint count."""
        if self.log_space is None:
            return n_constraints >= 4
        return bool(self.log_space)

    def resolve_hallucinate_kappa(self, dim: int, t: int) -> float:
        """The concrete GP-BUCB confidence multiplier at landing ``t``.

        A float config is a constant schedule.  ``"beta-t"`` is the
        information-theoretic GP-UCB/GP-BUCB schedule (Srinivas et al.
        2010; Desautels et al. 2014): ``beta_t = 2 log(d t^2 pi^2 /
        (6 delta))`` and ``kappa_t = sqrt(beta_t)`` — growing like
        ``sqrt(log t)``, so hallucinated batches keep a
        high-probability optimism bound as landings accumulate instead
        of over-exploiting a sharpening posterior.
        """
        if not isinstance(self.hallucinate_kappa, str):
            return self.hallucinate_kappa
        t = max(1, int(t))
        d = max(1, int(dim))
        beta = 2.0 * math.log(
            d * t * t * math.pi**2 / (6.0 * self.hallucinate_delta)
        )
        return math.sqrt(max(beta, 0.0))

    def resolve_proposal_space(self):
        """A fresh (mutable) proposal-space instance, or ``None`` for full.

        Each optimizer builds its own instance: trust regions carry
        adaptive state, so sharing one across studies would couple their
        traces.
        """
        return make_proposal_space(self.proposal_space, self.trust_region)


@dataclass(frozen=True)
class FarmConfig:
    """Per-tenant policy knobs for the evaluation farm (:mod:`repro.farm`).

    ``mode="fixed"`` keeps the in-flight target at the scheduler's
    resolved worker count — with speculation off this is the plain
    refill-on-completion loop every asynchronous run gets by default,
    pinned bitwise against an ask/tell replay (``tests/farm/``).
    ``mode="elastic"`` resizes the target between asks from the
    evaluation-time EWMA and the farm's queue depth: roughly
    ``eval_ewma / propose_cost_s`` evaluations fit in one proposal
    cycle, clamped to ``[min_in_flight, max_in_flight]`` and backed off
    while the shared pool is oversubscribed.  ``propose_cost_s`` is a
    config constant rather than a wall-clock measurement so elastic
    decisions stay deterministic under a
    :class:`~repro.bo.scheduler.FakeClock`.

    ``adaptive_q`` shrinks the target toward ``q_min`` as the objective
    posterior sharpens (the std of each new proposal, tracked as an
    EWMA against the first post-initial proposal's std) — late in a run
    big concurrent batches mostly buy redundant evaluations.

    ``eval_timeout_s`` bounds any single evaluation; a timed-out trial
    is retracted and its budget slot freed.  ``weight`` and
    ``max_queue`` are this tenant's fair-share weight and backpressure
    bound on the shared farm.
    """

    mode: str = "fixed"
    min_in_flight: int = 1
    max_in_flight: int | None = None
    ewma_alpha: float = 0.3
    propose_cost_s: float = 1.0
    adaptive_q: bool = False
    q_min: int = 1
    eval_timeout_s: float | None = None
    weight: float = 1.0
    max_queue: int | None = None

    def __post_init__(self):
        check_choice("mode", self.mode, FARM_MODES)
        object.__setattr__(
            self, "min_in_flight", check_count("min_in_flight", self.min_in_flight)
        )
        if self.max_in_flight is not None:
            object.__setattr__(
                self,
                "max_in_flight",
                check_count("max_in_flight", self.max_in_flight),
            )
            if self.max_in_flight < self.min_in_flight:
                raise ValueError(
                    f"max_in_flight ({self.max_in_flight}) must be >= "
                    f"min_in_flight ({self.min_in_flight})"
                )
        if not 0.0 < float(self.ewma_alpha) <= 1.0:
            raise ValueError(
                f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}"
            )
        object.__setattr__(self, "ewma_alpha", float(self.ewma_alpha))
        if float(self.propose_cost_s) <= 0:
            raise ValueError(
                f"propose_cost_s must be positive, got {self.propose_cost_s}"
            )
        object.__setattr__(self, "propose_cost_s", float(self.propose_cost_s))
        object.__setattr__(self, "adaptive_q", bool(self.adaptive_q))
        object.__setattr__(self, "q_min", check_count("q_min", self.q_min))
        if self.eval_timeout_s is not None:
            if float(self.eval_timeout_s) <= 0:
                raise ValueError(
                    f"eval_timeout_s must be positive, got {self.eval_timeout_s}"
                )
            object.__setattr__(
                self, "eval_timeout_s", float(self.eval_timeout_s)
            )
        if float(self.weight) <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        object.__setattr__(self, "weight", float(self.weight))
        if self.max_queue is not None:
            object.__setattr__(
                self, "max_queue", check_count("max_queue", self.max_queue)
            )


@dataclass(frozen=True)
class SpeculationConfig:
    """Speculative-evaluation policy of the evaluation farm.

    When the farm has spare capacity beyond a tenant's in-flight target,
    the driver asks up to ``max_speculative`` extra *speculative* trials
    — runner-up acquisition maxima (the pending-point strategy already
    spreads them away from the in-flight set) that would otherwise wait
    for the next refit.  A speculative trial whose evaluation completes
    commits like any landing; one overtaken by events is promoted into
    the regular target when a slot frees (a bookkeeping flip — no new
    proposal needed), and one still unpromoted after
    ``max_age_landings`` subsequent landings is abandoned via
    :meth:`~repro.bo.study.Study.retract`, freeing its budget slot.
    """

    max_speculative: int = 1
    max_age_landings: int = 4

    def __post_init__(self):
        object.__setattr__(
            self,
            "max_speculative",
            check_count("max_speculative", self.max_speculative),
        )
        object.__setattr__(
            self,
            "max_age_landings",
            check_count("max_age_landings", self.max_age_landings),
        )


@dataclass(frozen=True)
class SchedulerConfig:
    """How proposals are dispatched to simulations.

    ``q`` designs are proposed per iteration and evaluated on ``executor``
    (a spec string or an :class:`~repro.bo.scheduler.EvaluationExecutor`
    instance).  The ``async-*`` specs switch to the refill-on-completion
    loop, where ``async_refit`` picks the surrogate policy per landing and
    ``clock`` (a :class:`~repro.bo.scheduler.FakeClock`) optionally
    virtualizes the completion order for deterministic replay.

    Every closed-loop run goes through a single-tenant evaluation farm
    (:mod:`repro.farm`); other executors, instances included, evaluate
    q-point batches behind its barrier.  ``farm`` (a :class:`FarmConfig`
    or dict; asynchronous specs only) sets the refill loop's policy —
    elastic sizing, adaptive q, timeouts; ``None`` runs the default
    fixed-target :class:`FarmConfig`.  ``speculation`` (a
    :class:`SpeculationConfig` or dict) enables speculative evaluation
    and needs an explicit ``farm``.
    """

    q: int = 1
    executor: object = "serial"
    n_eval_workers: int | None = None
    async_refit: str = "full"
    async_full_refit_every: int | None = None
    clock: object = None
    farm: FarmConfig | None = None
    speculation: SpeculationConfig | None = None

    def __post_init__(self):
        object.__setattr__(self, "q", check_count("q", self.q))
        if isinstance(self.executor, str):
            check_choice("executor", self.executor.lower(), EXECUTOR_SPECS)
        if self.n_eval_workers is not None:
            object.__setattr__(
                self,
                "n_eval_workers",
                check_count("n_eval_workers", self.n_eval_workers),
            )
        check_choice("async_refit", self.async_refit, ASYNC_REFIT_POLICIES)
        if self.async_full_refit_every is not None:
            object.__setattr__(
                self,
                "async_full_refit_every",
                check_count("async_full_refit_every", self.async_full_refit_every),
            )
        if self.farm is not None:
            if isinstance(self.farm, dict):
                object.__setattr__(self, "farm", FarmConfig(**self.farm))
            elif not isinstance(self.farm, FarmConfig):
                raise ValueError(
                    "farm must be a FarmConfig or dict, got "
                    f"{type(self.farm).__name__}"
                )
        if self.speculation is not None:
            if isinstance(self.speculation, dict):
                object.__setattr__(
                    self, "speculation", SpeculationConfig(**self.speculation)
                )
            elif not isinstance(self.speculation, SpeculationConfig):
                raise ValueError(
                    "speculation must be a SpeculationConfig or dict, got "
                    f"{type(self.speculation).__name__}"
                )
            if self.farm is None:
                raise ValueError(
                    "speculation requires the farm driver; pass "
                    "farm=FarmConfig(...) alongside speculation"
                )

    @property
    def is_async(self) -> bool:
        """True for the ``async-*`` specs: the closed loop refills on completion.

        Every other executor — spec string or instance — evaluates q-point
        batches behind a barrier.
        """
        spec = self.executor
        return isinstance(spec, str) and spec.lower().startswith("async-")

    def resolve_pool_workers(self) -> int | None:
        """Worker count handed to :func:`~repro.bo.scheduler.make_evaluator`.

        Mirrors the historical ``SurrogateBO.run`` resolution exactly (the
        pinned traces depend on it): an explicit ``n_eval_workers`` always
        wins; otherwise async specs size to ``q`` when batching was
        configured (batch configs keep their parallelism when switched to
        async) or to the capped host core count, and plain pooled specs
        inherit ``q`` as their size.  The serial spec takes no count.
        """
        if self.n_eval_workers is not None or not isinstance(self.executor, str):
            return self.n_eval_workers
        spec = self.executor.lower()
        if spec.startswith("async-"):
            return self.q if self.q > 1 else utils.default_pool_workers()
        if self.q > 1 and spec != "serial":
            return self.q
        return None

    def resolve_in_flight(self) -> int:
        """Target number of concurrent evaluations in asynchronous mode."""
        workers = self.resolve_pool_workers()
        if workers is not None:
            return workers
        return int(getattr(self.executor, "n_workers", 1))


def config_to_dict(config) -> dict:
    """JSON form of a dataclass: its fields in declaration order.

    The one dataclass walk of the package.  It writes the typed configs
    (checkpoint provenance, :func:`~repro.bo.serialization.config_digest`),
    study trials (checkpoints and the service's wire trials) and proposal
    ledger entries.  Tuples and arrays become lists, nested dataclasses
    nested dicts; executor instances and virtual clocks cannot
    round-trip through JSON and are recorded by type name instead.
    """
    payload = {}
    for f in fields(config):
        value = getattr(config, f.name)
        # JSON scalars first: they are most fields of every caller
        if isinstance(value, (str, int, float, bool, type(None))):
            pass
        elif isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, np.ndarray):
            value = value.tolist()
        elif is_dataclass(value) and not isinstance(value, type):
            value = config_to_dict(value)
        else:
            value = type(value).__name__
        payload[f.name] = value
    return payload


__all__ = [
    "ACQUISITIONS",
    "ASYNC_REFIT_POLICIES",
    "AcquisitionConfig",
    "EXECUTOR_SPECS",
    "FARM_MODES",
    "FarmConfig",
    "KAPPA_SCHEDULES",
    "PROPOSAL_SPACES",
    "SURROGATE_BACKENDS",
    "SchedulerConfig",
    "SpeculationConfig",
    "SurrogateConfig",
    "TrustRegionConfig",
    "check_choice",
    "check_count",
    "config_to_dict",
]
