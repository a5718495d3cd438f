"""`StudyClient`: the remote mirror of :class:`~repro.bo.study.Study`.

One client is bound to one named study on one server and exposes the
ask/tell surface one-for-one — ``ask`` returns real
:class:`~repro.bo.study.Trial` objects, ``tell`` accepts the same
evaluation shapes (:class:`~repro.bo.problem.Evaluation`, an
``(objective, constraints)`` pair, or a bare objective) and returns a
real :class:`~repro.bo.history.EvaluationRecord`, and errors re-raise as
the *same exception types* an in-process driver would catch
(:class:`~repro.bo.study.BudgetExhausted`,
:class:`~repro.bo.study.UnknownTrial`, ...), reconstructed from the wire
codes.  A driver loop written against ``Study`` runs unchanged against a
``StudyClient`` — and produces the bitwise-identical trace, because
floats cross the wire via JSON shortest round-trip repr.

Stdlib only (:mod:`http.client`); connections are per-thread, so one
client instance may be shared across threads.
"""

from __future__ import annotations

import http.client
import json
import threading

from repro.backend import BackendNotAvailable
from repro.bo.history import EvaluationRecord
from repro.bo.serialization import scalar_metrics
from repro.bo.study import (
    BudgetExhausted,
    CheckpointMismatch,
    StudyError,
    Trial,
    UnknownTrial,
    tell_form,
)
from repro.service.errors import SERVICE_ERROR_CLASSES, ServiceError
from repro.service.protocol import (
    PROTOCOL_VERSION,
    URL_PREFIX,
    WireRecord,
    WireTrial,
)

#: wire code -> study-taxonomy exception class (service codes resolve
#: through SERVICE_ERROR_CLASSES; anything unknown falls back to
#: ServiceError so new server-side codes degrade gracefully)
_STUDY_CODE_CLASSES = {
    cls.code: cls
    for cls in (StudyError, BudgetExhausted, UnknownTrial, CheckpointMismatch)
}
_SERVICE_CODE_CLASSES = {cls.code: cls for cls in SERVICE_ERROR_CLASSES}


def raise_for_envelope(envelope: dict) -> None:
    """Re-raise a wire error envelope as its in-process exception type."""
    code = envelope.get("code", "internal-error")
    message = envelope.get("message", code)
    detail = envelope.get("detail") or {}
    if code in _STUDY_CODE_CLASSES:
        cls = _STUDY_CODE_CLASSES[code]
        if cls is CheckpointMismatch:
            raise cls(
                message,
                field=detail.get("field"),
                expected=detail.get("expected"),
                actual=detail.get("actual"),
            )
        raise cls(message)
    if code == BackendNotAvailable.code:
        raise BackendNotAvailable(
            detail.get("backend", "?"), detail.get("package", "?")
        )
    cls = _SERVICE_CODE_CLASSES.get(code, ServiceError)
    raise cls(message, detail=detail)


class ServiceConnection:
    """Low-level JSON-over-HTTP transport shared by the client classes.

    ``address`` is ``(host, port)`` (a :attr:`StudyServer.address`) or a
    ``"host:port"`` string.  One :class:`http.client.HTTPConnection` per
    calling thread, kept alive across requests.
    """

    def __init__(self, address, *, timeout: float = 60.0):
        if isinstance(address, str):
            host, _, port = address.rpartition(":")
            if not host or not port.isdigit():
                raise ValueError(
                    f"address string must look like 'host:port', got "
                    f"{address!r}"
                )
            address = (host, int(port))
        self.host, self.port = str(address[0]), int(address[1])
        self.timeout = float(timeout)
        self._local = threading.local()

    def request(self, method: str, path: str, payload: dict | None = None) -> dict:
        """One round-trip; returns the response body, raising on errors."""
        body = None
        headers = {}
        if payload is not None:
            wire = dict(payload)
            # declare our version, but let a caller-provided one stand
            # (tests probe the server's mismatch handling this way)
            wire.setdefault("protocol_version", PROTOCOL_VERSION)
            body = json.dumps(wire).encode("utf-8")
            headers["Content-Type"] = "application/json"
        exchange = self._exchange(method, path, body, headers)
        if exchange is None:
            # stale keep-alive (server restarted, idle timeout): it died
            # before any reply started, so one fresh-connection retry
            exchange = self._exchange(method, path, body, headers)
        response, data = exchange
        try:
            parsed = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ServiceError(
                f"server returned non-JSON body (HTTP {response.status}): "
                f"{data[:200]!r}"
            ) from exc
        if "error" in parsed:
            raise_for_envelope(parsed["error"])
        if response.status >= 400:
            raise ServiceError(
                f"HTTP {response.status} from {method} {path} without an "
                "error envelope"
            )
        return parsed

    def _exchange(self, method, path, body, headers):
        """Send one request; ``(response, body bytes)``, or ``None`` if stale.

        ``None`` means a reused keep-alive connection was found closed
        before any response started (``RemoteDisconnected`` is a
        ``ConnectionResetError``).  Every other failure — a timeout above
        all, whose request the server may still be serving — propagates:
        replaying a non-idempotent ``ask`` would orphan a trial.
        """
        conn = self._connection()
        reused = conn.sock is not None
        response = None
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response, response.read()
        except BaseException as exc:
            # the socket is mid-exchange: a late reply would answer the
            # next request, so never reuse it
            self.close()
            stale = isinstance(exc, (ConnectionResetError, BrokenPipeError))
            if reused and response is None and stale:
                return None
            raise

    def close(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._local.conn = conn
        return conn


class StudyClient:
    """Remote handle on one named study; mirrors :class:`Study` 1:1.

    Construct with :meth:`create` (registers a new study) or
    :meth:`connect` (attaches to an existing one).  Module-level
    :func:`list_studies`, :func:`delete_study` and :func:`health` cover
    the store-level endpoints.
    """

    def __init__(self, address, name: str, *, timeout: float = 60.0):
        self._conn = (
            address
            if isinstance(address, ServiceConnection)
            else ServiceConnection(address, timeout=timeout)
        )
        self.name = str(name)

    # -- constructors -----------------------------------------------------------------

    @classmethod
    def create(
        cls,
        address,
        name: str,
        *,
        problem,
        n_initial: int = 30,
        max_evaluations: int = 100,
        initial_design: str = "lhs",
        seed: int | None = None,
        surrogate: dict | None = None,
        acquisition: dict | None = None,
        scheduler: dict | None = None,
        timeout: float = 60.0,
    ) -> "StudyClient":
        """Register a new study on the server and return its client.

        Mirrors the :class:`Study` constructor, with config dicts in
        place of the typed config objects (they cannot travel as JSON);
        ``problem`` is a registered name, a ``{"name", "kwargs"}`` dict,
        or an external spec table — see
        :class:`~repro.service.protocol.CreateStudyRequest`.
        """
        client = cls(address, name, timeout=timeout)
        try:
            client._conn.request(
                "POST",
                f"{URL_PREFIX}/studies",
                {
                    "name": name,
                    "problem": problem,
                    "n_initial": n_initial,
                    "max_evaluations": max_evaluations,
                    "initial_design": initial_design,
                    "seed": seed,
                    "surrogate": surrogate,
                    "acquisition": acquisition,
                    "scheduler": scheduler,
                },
            )
        except BaseException:
            # a refused create hands the caller no client to close
            client.close()
            raise
        return client

    @classmethod
    def connect(cls, address, name: str, *, timeout: float = 60.0) -> "StudyClient":
        """Attach to an existing study (validates it exists server-side)."""
        client = cls(address, name, timeout=timeout)
        try:
            client.describe()
        except BaseException:
            client.close()
            raise
        return client

    # -- the Study mirror -------------------------------------------------------------

    def ask(self, n: int = 1, *, lease_s: float | None = None) -> list[Trial]:
        """Propose ``n`` designs, exactly like :meth:`Study.ask`.

        Each trial is leased server-side for ``lease_s`` seconds (server
        default when ``None``); finish with :meth:`tell` or
        :meth:`retract` before the lease lapses, or the server's reaper
        retracts it for you.
        """
        body = self._conn.request(
            "POST",
            self._path("ask"),
            {"n": int(n), "lease_s": lease_s},
        )
        return [
            WireTrial.from_wire(wire).to_trial() for wire in body["trials"]
        ]

    def tell(self, trial, evaluation) -> EvaluationRecord:
        """Commit one evaluated trial, exactly like :meth:`Study.tell`."""
        trial_id = trial.id if isinstance(trial, Trial) else int(trial)
        objective, constraints, metrics = _split_evaluation(evaluation)
        body = self._conn.request(
            "POST",
            self._path("tell"),
            {
                "trial_id": trial_id,
                "objective": objective,
                "constraints": constraints,
                "metrics": metrics,
            },
        )
        return WireRecord.from_wire(body["record"]).to_record()

    def retract(self, trial) -> Trial:
        """Abandon a pending trial, exactly like :meth:`Study.retract`."""
        trial_id = trial.id if isinstance(trial, Trial) else int(trial)
        body = self._conn.request(
            "POST", self._path("retract"), {"trial_id": trial_id}
        )
        return WireTrial.from_wire(body["trial"]).to_trial()

    def evaluate(self, trial) -> EvaluationRecord:
        """Evaluate a pending trial server-side and commit the result.

        Tell-by-reference for registry problems: the server runs its own
        simulator on the pending trial through its evaluation farm and
        commits the outcome, so no result numbers cross the wire.
        Raises :class:`~repro.service.errors.BadRequest` when the server
        has no farm (or the study is externally evaluated) and
        :class:`~repro.service.errors.ServiceBusy` when the farm is
        saturated — retry after in-flight work drains.
        """
        trial_id = trial.id if isinstance(trial, Trial) else int(trial)
        body = self._conn.request(
            "POST", self._path("evaluate"), {"trial_id": trial_id}
        )
        return WireRecord.from_wire(body["record"]).to_record()

    def best(self) -> EvaluationRecord | None:
        """Best feasible record so far, exactly like :meth:`Study.best`."""
        body = self._conn.request("GET", self._path("best"))
        wire = body.get("record")
        return None if wire is None else WireRecord.from_wire(wire).to_record()

    def describe(self) -> dict:
        """The study's :meth:`Study.describe` snapshot."""
        return self.status()["study"]

    def status(self) -> dict:
        """Full status body: ``describe`` snapshot + pending trials + leases."""
        return self._conn.request("GET", self._path())

    def pending_trials(self) -> list[Trial]:
        """Asked-but-untold trials, exactly like :meth:`Study.pending_trials`.

        After a client or server restart this is how in-flight work is
        re-adopted: the returned trials are told or retracted as usual.
        """
        return [
            WireTrial.from_wire(wire).to_trial()
            for wire in self.status()["pending_trials"]
        ]

    @property
    def done(self) -> bool:
        """True once the full budget is committed (:attr:`Study.done`)."""
        return bool(self.describe()["done"])

    def checkpoint(self) -> dict:
        """Force a durable server-side checkpoint (normally automatic)."""
        return self._conn.request("POST", self._path("checkpoint"))

    def delete(self) -> str:
        """Delete this study server-side; returns the deleted name."""
        body = self._conn.request("DELETE", self._path())
        return body["deleted"]

    def close(self) -> None:
        self._conn.close()

    def _path(self, verb: str | None = None) -> str:
        base = f"{URL_PREFIX}/studies/{self.name}"
        return base if verb is None else f"{base}/{verb}"

    def __repr__(self) -> str:
        return (
            f"StudyClient({self._conn.host}:{self._conn.port}, "
            f"study={self.name!r})"
        )


def list_studies(address, *, timeout: float = 60.0) -> list[str]:
    """Names of every study the server hosts."""
    conn = ServiceConnection(address, timeout=timeout)
    try:
        return list(conn.request("GET", f"{URL_PREFIX}/studies")["studies"])
    finally:
        conn.close()


def delete_study(address, name: str, *, timeout: float = 60.0) -> str:
    """Delete a study by name; returns the deleted name."""
    conn = ServiceConnection(address, timeout=timeout)
    try:
        return conn.request("DELETE", f"{URL_PREFIX}/studies/{name}")["deleted"]
    finally:
        conn.close()


def health(address, *, timeout: float = 60.0) -> dict:
    """The server's liveness body (``status``/``n_studies``/``n_resident``)."""
    conn = ServiceConnection(address, timeout=timeout)
    try:
        return conn.request("GET", f"{URL_PREFIX}/health")
    finally:
        conn.close()


def _split_evaluation(evaluation) -> tuple[float, list, dict | None]:
    """Break a :meth:`Study.tell`-shaped evaluation into wire fields.

    Any other value raises the :class:`StudyError` ``Study.tell`` raises
    (:func:`~repro.bo.study.tell_form`), before anything is sent.
    """
    form = tell_form(evaluation)
    if form == "evaluation":
        return (
            float(evaluation.objective),
            [float(c) for c in evaluation.constraints],
            scalar_metrics(evaluation.metrics) or None,
        )
    if form == "pair":
        objective, constraints = evaluation
        return float(objective), [float(c) for c in constraints], None
    return float(evaluation), [], None


__all__ = [
    "ServiceConnection",
    "StudyClient",
    "delete_study",
    "health",
    "list_studies",
    "raise_for_envelope",
]
