"""Versioned wire protocol of the BO service.

Plain JSON over HTTP.  The typed request dataclasses in this module parse
and check every request body; replies are plain dicts.  Every response
body carries ``protocol_version``; requests may carry it too, and the
server rejects a mismatch with the ``protocol-mismatch`` error code
instead of guessing.  Errors travel as a structured envelope
``{"error": {"code", "message", "detail"}}`` (see
:mod:`repro.service.errors`).

Endpoints (all under ``/v1``) and their reply keys, in order, after
``protocol_version``::

    POST   /v1/studies                    create a study       study
    GET    /v1/studies                    list studies         studies
    GET    /v1/studies/{name}             status               study, pending_trials, leases
    DELETE /v1/studies/{name}             delete a study       deleted
    POST   /v1/studies/{name}/ask         propose (leased)     trials
    POST   /v1/studies/{name}/tell        commit a result      record
    POST   /v1/studies/{name}/retract     abandon a trial      trial
    POST   /v1/studies/{name}/evaluate    run on the farm      record
    GET    /v1/studies/{name}/best        best feasible        record
    POST   /v1/studies/{name}/checkpoint  force a checkpoint   study, n_evaluations, n_pending
    GET    /v1/health                     liveness             status, n_studies, n_resident

``study`` is the JSON-safe :meth:`~repro.bo.study.Study.describe`
snapshot in the create and status replies, and the study's name in the
checkpoint reply.  ``studies`` lists the store's study names and
``deleted`` names the deleted study.  A trial (``trial``, each of
``trials`` and ``pending_trials``) is a :class:`WireTrial`'s fields, and
a ``record`` a :class:`WireRecord`'s (``null`` from ``best`` before the
first feasible landing).  ``pending_trials`` carries every
asked-but-untold trial, so a client resuming after its own crash, or the
server's, can re-adopt its in-flight work; ``leases`` maps each leased
trial id, as a string, to its remaining lease seconds.  ``status`` is
always ``"ok"``.

Floats cross the wire via JSON's shortest round-trip repr, so a design
vector or objective read back from a response is bitwise identical to the
server's float64 — the foundation of the service's bitwise-reproducibility
guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from repro.bo.config import config_to_dict
from repro.bo.history import EvaluationRecord
from repro.bo.problem import Evaluation
from repro.bo.serialization import scalar_metrics
from repro.bo.study import Trial
from repro.service.errors import BadRequest, ProtocolMismatch

#: protocol major version; bump only on wire-incompatible changes
PROTOCOL_VERSION = 1

#: URL prefix all endpoints live under (matches PROTOCOL_VERSION)
URL_PREFIX = f"/v{PROTOCOL_VERSION}"


def check_protocol_version(payload: dict) -> None:
    """Reject a request whose declared protocol version mismatches ours."""
    declared = payload.get("protocol_version")
    if declared is not None and int(declared) != PROTOCOL_VERSION:
        raise ProtocolMismatch(
            f"request declares protocol_version={declared!r} but this "
            f"server speaks {PROTOCOL_VERSION}",
            detail={"client": int(declared), "server": PROTOCOL_VERSION},
        )


class WireMessage:
    """Base for the typed wire dataclasses (requests, trials, records).

    ``from_wire`` validates field names (unknown keys are a
    ``bad-request``, so typos fail loudly instead of silently applying
    defaults) and required fields; ``to_wire`` returns the fields as
    stored, which the builders keep as JSON values.
    """

    @classmethod
    def from_wire(cls, data) -> "WireMessage":
        if not isinstance(data, dict):
            raise BadRequest(
                f"{cls.__name__} body must be a JSON object, got "
                f"{type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known - {"protocol_version"})
        if unknown:
            raise BadRequest(
                f"unknown field(s) {unknown} for {cls.__name__}; known "
                f"fields: {sorted(known)}",
                detail={"unknown": unknown, "known": sorted(known)},
            )
        required = {f.name for f in fields(cls) if f.default is _REQUIRED}
        missing = sorted(required - set(data))
        if missing:
            raise BadRequest(
                f"missing required field(s) {missing} for {cls.__name__}",
                detail={"missing": missing},
            )
        try:
            return cls(**{k: v for k, v in data.items() if k in known})
        except (TypeError, ValueError) as exc:
            raise BadRequest(f"invalid {cls.__name__}: {exc}") from exc

    def to_wire(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# sentinel default marking a wire field as required (dataclasses need a
# default for ordering freedom; from_wire enforces presence)
_REQUIRED = object()


# -- requests -----------------------------------------------------------------------


@dataclass
class CreateStudyRequest(WireMessage):
    """``POST /v1/studies`` — register and construct a named study.

    ``problem`` is either a registered problem name (``"charge_pump"``),
    a ``{"name": ..., "kwargs": {...}}`` dict for parameterized registry
    problems, or a client-supplied spec table ``{"name", "lower",
    "upper", "n_constraints"}`` for external-evaluation studies where the
    client owns the simulator and only ever ``tell``s results.  Config
    dicts hold keyword overrides for the typed configs
    (:class:`~repro.bo.config.SurrogateConfig` etc.); omitted configs use
    their defaults.
    """

    name: str = _REQUIRED
    problem: object = _REQUIRED
    n_initial: int = 30
    max_evaluations: int = 100
    initial_design: str = "lhs"
    seed: int | None = None
    surrogate: dict | None = None
    acquisition: dict | None = None
    scheduler: dict | None = None


@dataclass
class AskRequest(WireMessage):
    """``POST /v1/studies/{name}/ask`` — propose up to ``n`` trials.

    Each returned trial carries a lease of ``lease_s`` seconds (server
    default when ``None``); a trial whose lease expires before its
    ``tell`` is auto-retracted and its budget slot freed.
    """

    n: int = 1
    lease_s: float | None = None


@dataclass
class TellRequest(WireMessage):
    """``POST /v1/studies/{name}/tell`` — commit one evaluated trial."""

    trial_id: int = _REQUIRED
    objective: float = _REQUIRED
    constraints: list = field(default_factory=list)
    metrics: dict | None = None

    def to_evaluation(self) -> Evaluation:
        return Evaluation(
            objective=float(self.objective),
            constraints=np.asarray(self.constraints, dtype=float),
            metrics=dict(self.metrics or {}),
        )


@dataclass
class RetractRequest(WireMessage):
    """``POST /v1/studies/{name}/retract`` — abandon a pending trial."""

    trial_id: int = _REQUIRED


@dataclass
class EvaluateRequest(WireMessage):
    """``POST /v1/studies/{name}/evaluate`` — run one pending trial server-side.

    Tell-by-reference: instead of shipping numbers back, the client asks
    the server's evaluation farm to run the registered problem's own
    simulator on the pending trial and commit the result.  Only studies
    built from registry problems qualify (an external spec table has no
    server-side simulator); a saturated farm answers with the ``busy``
    envelope, so clients retry exactly as they do for residency pressure.
    """

    trial_id: int = _REQUIRED


# -- trials and records -------------------------------------------------------------


@dataclass
class WireTrial(WireMessage):
    """One proposed design as it crosses the wire.

    Field-for-field mirror of :class:`~repro.bo.study.Trial` plus the
    lease: ``lease_expires_s`` is the remaining lease time in seconds at
    response-build time (``None`` for responses that do not manage
    leases).  ``u`` is the unit-box design, ``x`` the same point in
    natural units — both round-trip bitwise through JSON.
    ``speculative`` carries the proposal's provenance flag (asked ahead
    of demand by a speculative driver) so resumed clients see it intact.
    """

    id: int = _REQUIRED
    u: list = _REQUIRED
    x: list = _REQUIRED
    phase: str = _REQUIRED
    batch_index: int = 0
    iteration: int | None = None
    pending: list = field(default_factory=list)
    proposal_id: int | None = None
    pending_at_proposal: list = field(default_factory=list)
    speculative: bool = False
    lease_expires_s: float | None = None

    @classmethod
    def from_trial(cls, trial: Trial, lease_expires_s: float | None = None):
        return cls(**config_to_dict(trial), lease_expires_s=lease_expires_s)

    def to_trial(self) -> Trial:
        data = self.to_wire()
        del data["lease_expires_s"]
        return Trial(**data)


@dataclass
class WireRecord(WireMessage):
    """One committed evaluation as it crosses the wire.

    Mirror of :class:`~repro.bo.history.EvaluationRecord` (only scalar
    metrics survive, as in run serialization).
    """

    index: int = _REQUIRED
    x: list = _REQUIRED
    objective: float = _REQUIRED
    constraints: list = field(default_factory=list)
    feasible: bool = False
    phase: str = "search"
    iteration: int | None = None
    batch_index: int = 0
    metrics: dict = field(default_factory=dict)

    @classmethod
    def from_record(cls, record: EvaluationRecord):
        ev = record.evaluation
        return cls(
            index=record.index,
            x=[float(v) for v in record.x],
            objective=float(ev.objective),
            constraints=[float(c) for c in ev.constraints],
            feasible=bool(ev.feasible),
            phase=record.phase,
            iteration=record.iteration,
            batch_index=record.batch_index,
            metrics=scalar_metrics(ev.metrics),
        )

    def to_record(self) -> EvaluationRecord:
        return EvaluationRecord(
            index=int(self.index),
            x=np.asarray(self.x, dtype=float),
            evaluation=Evaluation(
                objective=float(self.objective),
                constraints=np.asarray(self.constraints, dtype=float),
                metrics=dict(self.metrics),
            ),
            phase=str(self.phase),
            iteration=self.iteration,
            batch_index=int(self.batch_index),
        )


__all__ = [
    "AskRequest",
    "CreateStudyRequest",
    "EvaluateRequest",
    "PROTOCOL_VERSION",
    "RetractRequest",
    "TellRequest",
    "URL_PREFIX",
    "WireMessage",
    "WireRecord",
    "WireTrial",
    "check_protocol_version",
]
