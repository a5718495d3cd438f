"""BO-as-a-service: the HTTP front of a :class:`~repro.service.store.StudyStore`.

Stdlib only — :class:`http.server.ThreadingHTTPServer` gives one thread
per connection; the store's per-study locks turn that into "parallel
across studies, serialized within a study".  A background reaper thread
sweeps expired leases (:meth:`StudyStore.reap_expired`) so abandoned
trials free their budget slots without any client cooperation.

Every response body is ``{"protocol_version": N, ...}``; failures are
``{"protocol_version": N, "error": {"code", "message", "detail"}}`` with
the taxonomy's stable codes (see :mod:`repro.service.errors`).  The URL
table lives in :mod:`repro.service.protocol`.

Typical embedding (tests, notebooks)::

    with StudyServer(store_dir, port=0) as server:
        client = StudyClient.create(server.address, "cp", problem="charge_pump")
        ...

``python -m repro.service`` runs a standalone server.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.service import protocol
from repro.service.errors import BadRequest, error_envelope
from repro.service.protocol import (
    PROTOCOL_VERSION,
    URL_PREFIX,
    AskRequest,
    AskResponse,
    BestResponse,
    CheckpointResponse,
    CreateResponse,
    CreateStudyRequest,
    DeleteResponse,
    EvaluateRequest,
    EvaluateResponse,
    HealthResponse,
    ListResponse,
    RetractRequest,
    RetractResponse,
    StatusResponse,
    TellRequest,
    TellResponse,
    WireRecord,
    WireTrial,
)
from repro.service.store import StudyStore

_STUDY_PATH = re.compile(
    rf"^{URL_PREFIX}/studies/(?P<name>[^/]+)(?:/(?P<verb>[a-z]+))?$"
)

#: request body ceiling — a create/tell payload is a few KB; anything
#: megabytes-large is a client bug, not a study
_MAX_BODY_BYTES = 8 * 1024 * 1024


class StudyServer:
    """Serve a :class:`StudyStore` over HTTP; see the module docstring.

    Parameters mirror the store's (``max_resident``,
    ``default_lease_s``, ``clock``, ``farm`` — an
    :class:`~repro.farm.farm.EvaluationFarm` enabling the server-side
    ``evaluate`` verb); alternatively pass a pre-built ``store``.
    ``port=0`` binds an ephemeral port — read the real one from
    :attr:`address` after :meth:`start` (the constructor binds, so
    the address is valid immediately).
    """

    def __init__(
        self,
        root=None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        store: StudyStore | None = None,
        max_resident: int | None = 16,
        default_lease_s: float | None = None,
        clock=None,
        farm=None,
        reap_interval_s: float = 1.0,
        quiet: bool = True,
    ):
        if (store is None) == (root is None):
            raise ValueError(
                "pass exactly one of root= (a store directory) or "
                "store= (a prebuilt StudyStore)"
            )
        if store is None:
            kwargs = {} if clock is None else {"clock": clock}
            store = StudyStore(
                root,
                max_resident=max_resident,
                default_lease_s=default_lease_s,
                farm=farm,
                **kwargs,
            )
        elif farm is not None:
            raise ValueError(
                "farm= configures the server-built store; attach the "
                "farm to the prebuilt store= instead"
            )
        self.store = store
        self.quiet = quiet
        self.reap_interval_s = float(reap_interval_s)
        self._httpd = _HTTPServer((host, port), self)
        self._serve_thread: threading.Thread | None = None
        self._reaper_thread: threading.Thread | None = None
        self._stop_event = threading.Event()

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (port resolved when ephemeral)."""
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    def start(self) -> "StudyServer":
        """Serve in background threads; returns self for chaining."""
        if self._serve_thread is not None:
            raise RuntimeError("server already started")
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-service",
            daemon=True,
        )
        self._serve_thread.start()
        self._reaper_thread = threading.Thread(
            target=self._reap_loop, name="repro-service-reaper", daemon=True
        )
        self._reaper_thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and join the background threads."""
        self._stop_event.set()
        if self._serve_thread is not None:
            self._httpd.shutdown()
            self._serve_thread.join(timeout=10)
            self._serve_thread = None
        if self._reaper_thread is not None:
            self._reaper_thread.join(timeout=10)
            self._reaper_thread = None
        self._httpd.server_close()

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``__main__`` entry point)."""
        self._reaper_thread = threading.Thread(
            target=self._reap_loop, name="repro-service-reaper", daemon=True
        )
        self._reaper_thread.start()
        try:
            self._httpd.serve_forever()
        finally:
            self._stop_event.set()
            self._httpd.server_close()

    def __enter__(self) -> "StudyServer":
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()
        return False

    def _reap_loop(self) -> None:
        while not self._stop_event.wait(self.reap_interval_s):
            try:
                self.store.reap_expired()
            except Exception:
                # the reaper must outlive any single bad study; the
                # failing lease resurfaces on the next sweep
                if not self.quiet:
                    import traceback

                    traceback.print_exc()

    # -- request dispatch -------------------------------------------------------------

    def _dispatch(self, method: str, path: str, payload: dict):
        """Route one request; returns a response message (or raises)."""
        store = self.store
        if path == f"{URL_PREFIX}/health":
            _require(method, "GET", path)
            return HealthResponse(
                status="ok",
                n_studies=store.n_studies,
                n_resident=store.n_resident,
            )
        if path == f"{URL_PREFIX}/studies":
            if method == "GET":
                return ListResponse(studies=store.study_names())
            _require(method, "POST", path)
            request = CreateStudyRequest.from_wire(payload)
            describe = store.create(
                request.name,
                request.problem,
                n_initial=request.n_initial,
                max_evaluations=request.max_evaluations,
                initial_design=request.initial_design,
                seed=request.seed,
                surrogate=request.surrogate,
                acquisition=request.acquisition,
                scheduler=request.scheduler,
            )
            return CreateResponse(study=describe)
        match = _STUDY_PATH.match(path)
        if match is None:
            raise BadRequest(
                f"no such endpoint {path!r}; see repro.service.protocol "
                "for the endpoint table"
            )
        name, verb = match.group("name"), match.group("verb")
        if verb is None:
            if method == "DELETE":
                return DeleteResponse(deleted=store.delete(name))
            _require(method, "GET", path)
            describe, pending, leases = store.status(name)
            return StatusResponse(
                study=describe,
                pending_trials=[
                    WireTrial.from_trial(t, leases.get(t.id)).to_wire()
                    for t in pending
                ],
                leases={str(tid): s for tid, s in leases.items()},
            )
        if verb == "ask":
            _require(method, "POST", path)
            request = AskRequest.from_wire(payload)
            pairs = store.ask(name, n=request.n, lease_s=request.lease_s)
            return AskResponse(
                trials=[
                    WireTrial.from_trial(trial, lease).to_wire()
                    for trial, lease in pairs
                ]
            )
        if verb == "tell":
            _require(method, "POST", path)
            request = TellRequest.from_wire(payload)
            record = store.tell(
                name, request.trial_id, request.to_evaluation()
            )
            return TellResponse(record=WireRecord.from_record(record).to_wire())
        if verb == "retract":
            _require(method, "POST", path)
            request = RetractRequest.from_wire(payload)
            trial = store.retract(name, request.trial_id)
            return RetractResponse(trial=WireTrial.from_trial(trial).to_wire())
        if verb == "evaluate":
            _require(method, "POST", path)
            request = EvaluateRequest.from_wire(payload)
            record = store.evaluate(name, request.trial_id)
            return EvaluateResponse(
                record=WireRecord.from_record(record).to_wire()
            )
        if verb == "best":
            _require(method, "GET", path)
            record = store.best(name)
            return BestResponse(
                record=None
                if record is None
                else WireRecord.from_record(record).to_wire()
            )
        if verb == "checkpoint":
            _require(method, "POST", path)
            n_evaluations, n_pending = store.checkpoint(name)
            return CheckpointResponse(
                study=name, n_evaluations=n_evaluations, n_pending=n_pending
            )
        raise BadRequest(
            f"no such endpoint {path!r}; see repro.service.protocol "
            "for the endpoint table"
        )


def _require(method: str, expected: str, path: str) -> None:
    if method != expected:
        raise BadRequest(
            f"{path} expects {expected}, got {method}",
            detail={"expected": expected, "got": method},
        )


class _HTTPServer(ThreadingHTTPServer):
    """One thread per connection; error reports obey ``StudyServer.quiet``."""

    daemon_threads = True

    def __init__(self, address, owner: StudyServer):
        self.owner = owner
        super().__init__(address, _make_handler(owner))

    def handle_error(self, request, client_address):
        # e.g. the BrokenPipeError of a reply to a client that timed out
        # and hung up; socketserver would print its traceback
        if not self.owner.quiet:
            super().handle_error(request, client_address)


def _make_handler(server: StudyServer):
    class _Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # identify the wire protocol, not the host machine's python
        server_version = f"repro-service/{PROTOCOL_VERSION}"
        sys_version = ""
        # TCP_NODELAY: a reply goes out as two writes (headers, body), and
        # with Nagle on, the body waits ~40 ms for the client's delayed ACK
        disable_nagle_algorithm = True

        def log_message(self, format, *args):
            if not server.quiet:
                BaseHTTPRequestHandler.log_message(self, format, *args)

        def _handle(self, method: str) -> None:
            try:
                payload = self._read_payload()
                protocol.check_protocol_version(payload)
                response = server._dispatch(method, self.path, payload)
            except Exception as exc:
                status, envelope = error_envelope(exc)
                self._send(
                    status,
                    {"protocol_version": PROTOCOL_VERSION, "error": envelope},
                )
                return
            body = {"protocol_version": PROTOCOL_VERSION}
            body.update(response.to_wire())
            self._send(200, body)

        def _read_payload(self) -> dict:
            length = int(self.headers.get("Content-Length") or 0)
            if length == 0:
                return {}
            if length > _MAX_BODY_BYTES:
                raise BadRequest(
                    f"request body of {length} bytes exceeds the "
                    f"{_MAX_BODY_BYTES}-byte limit"
                )
            raw = self.rfile.read(length)
            try:
                payload = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise BadRequest(f"request body is not valid JSON: {exc}")
            if not isinstance(payload, dict):
                raise BadRequest(
                    "request body must be a JSON object, got "
                    f"{type(payload).__name__}"
                )
            return payload

        def _send(self, status: int, body: dict) -> None:
            data = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            self._handle("GET")

        def do_POST(self):
            self._handle("POST")

        def do_DELETE(self):
            self._handle("DELETE")

    return _Handler


__all__ = ["StudyServer"]
