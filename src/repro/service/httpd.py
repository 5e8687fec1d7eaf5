"""HTTP/JSON front end for the async compile gateway.

A thin, stdlib-only (``http.server``) JSON API over
:class:`~repro.service.gateway.AsyncCompileService`, so the ``repro
batch`` CLI becomes one client among many:

=======  =======================  ==========================================
Method   Path                     Meaning
=======  =======================  ==========================================
POST     ``/jobs``                Submit a job (``202``; ``wait`` blocks for
                                  the terminal result, ``200``).  ``429`` on
                                  admission rejection, ``503`` while
                                  draining.
GET      ``/jobs/{id}``           Status + lifecycle events (``404``
                                  unknown).
GET      ``/jobs/{id}/result``    Terminal :class:`JobResult` (``200``), or
                                  ``202`` while the job is still running.
                                  ``?artifact=1`` inlines the artefact.
GET      ``/healthz``             ``200`` serving / ``503`` draining.
GET      ``/stats``               Gateway + service + cache + pool counters.
=======  =======================  ==========================================

Job ids may contain ``/`` (the perf corpus does); clients URL-encode
them and the server unquotes.  Every response body is JSON.  The server
is a ``ThreadingHTTPServer``: handler threads only ever call the
thread-safe gateway API, never the compile service directly.

``repro serve`` (see :mod:`repro.cli`) builds the service/gateway pair,
binds this server (``--port 0`` picks an ephemeral port), and prints
the bound address before serving.
"""

from __future__ import annotations

import json
import math
import re
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlsplit

from ..devices import available_devices, get_device
from .gateway import PRIORITIES, AsyncCompileService, Draining, Overloaded
from .jobs import CompileJob

__all__ = ["GatewayServer", "GatewayRequestHandler"]

#: Default seconds a ``wait`` submission blocks before answering 202.
_DEFAULT_WAIT_S = 60.0

_RESULT_RE = re.compile(r"^/jobs/(?P<id>.+)/result$")
_JOB_RE = re.compile(r"^/jobs/(?P<id>.+)$")


class _BadRequest(Exception):
    """Client error reported as a 400 with a one-line JSON body."""


class GatewayRequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-gateway/1"
    protocol_version = "HTTP/1.1"
    # ``_send`` writes headers and body in two sends; with Nagle on, a
    # keep-alive client's delayed ACK holds the body back ~40 ms.
    disable_nagle_algorithm = True

    @property
    def gateway(self) -> AsyncCompileService:
        return self.server.gateway  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 — stdlib signature
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    # -- plumbing ------------------------------------------------------

    def _send(self, code: int, payload: dict,
              headers: dict | None = None) -> None:
        body = json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            raise _BadRequest("invalid Content-Length")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise _BadRequest("empty request body")
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _BadRequest(f"invalid JSON body: {exc}")
        if not isinstance(data, dict):
            raise _BadRequest("request body must be a JSON object")
        return data

    # -- routes --------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — stdlib name
        parts = urlsplit(self.path)
        path, params = parts.path, parse_qs(parts.query)
        try:
            if path == "/healthz":
                self._get_healthz()
            elif path == "/stats":
                self._send(200, self.gateway.stats())
            elif _RESULT_RE.match(path):
                self._get_result(
                    unquote(_RESULT_RE.match(path).group("id")), params
                )
            elif _JOB_RE.match(path):
                self._get_job(unquote(_JOB_RE.match(path).group("id")))
            else:
                self._send(404, {"error": f"no such endpoint: {path}"})
        except BrokenPipeError:  # pragma: no cover — client went away
            pass

    def do_POST(self) -> None:  # noqa: N802 — stdlib name
        path = urlsplit(self.path).path
        if path != "/jobs":
            self._send(404, {"error": f"no such endpoint: {path}"})
            return
        try:
            body = self._read_json()
            job, opts = _parse_submission(body)
        except _BadRequest as exc:
            self._send(400, {"error": str(exc)})
            return
        try:
            handle = self.gateway.submit(
                job,
                priority=opts["priority"],
                deadline=opts["deadline"],
                tenant=opts["tenant"],
            )
        except Overloaded as exc:
            headers = {}
            if exc.retry_after is not None:
                # RFC 9110 §10.2.3: delay-seconds is a non-negative
                # *integer*.  Round up so clients never retry early; a
                # 0.0 budget still advertises "Retry-After: 0".
                headers["Retry-After"] = str(math.ceil(exc.retry_after))
            self._send(
                429,
                {"error": str(exc), "reason": exc.reason,
                 "tenant": exc.tenant},
                headers,
            )
            return
        except Draining as exc:
            self._send(503, {"error": str(exc), "draining": True})
            return
        if opts["wait"]:
            try:
                result = handle.wait(opts["wait_timeout"])
            except TimeoutError:
                self._send(
                    202,
                    {"job_id": handle.job_id, "status": handle.status,
                     "priority": handle.priority},
                )
                return
            self._send(
                200, result.to_dict(include_artifact=opts["artifact"])
            )
            return
        self._send(
            202,
            {
                "job_id": handle.job_id,
                "status": handle.status,
                "priority": handle.priority,
                "tenant": handle.tenant,
            },
        )

    # -- GET helpers ---------------------------------------------------

    def _get_healthz(self) -> None:
        gw = self.gateway
        if gw.draining:
            self._send(503, {"ok": False, "draining": True})
            return
        self._send(200, {"ok": True, "draining": False})

    def _get_job(self, job_id: str) -> None:
        handle = self.gateway.get(job_id)
        if handle is None:
            self._send(404, {"error": f"unknown job {job_id!r}"})
            return
        self._send(
            200,
            {
                "job_id": handle.job_id,
                "status": handle.status,
                "terminal": handle.done(),
                "priority": handle.priority,
                "tenant": handle.tenant,
                "events": handle.event_log(),
            },
        )

    def _get_result(self, job_id: str, params: dict) -> None:
        handle = self.gateway.get(job_id)
        if handle is None:
            self._send(404, {"error": f"unknown job {job_id!r}"})
            return
        if not handle.done():
            self._send(
                202, {"job_id": handle.job_id, "status": handle.status}
            )
            return
        include = params.get("artifact", ["0"])[-1] not in ("0", "", "false")
        self._send(
            200, handle.wait(0).to_dict(include_artifact=include)
        )


def _parse_submission(body: dict) -> tuple[CompileJob, dict]:
    """Validate a POST /jobs body into (job, gateway options)."""
    qasm = body.get("qasm")
    if not isinstance(qasm, str) or not qasm.strip():
        raise _BadRequest('"qasm" must be a non-empty string')
    device = body.get("device")
    if isinstance(device, str):
        if device not in available_devices():
            raise _BadRequest(
                f"unknown device {device!r}; "
                f"one of {sorted(available_devices())} or a device dict"
            )
        device = get_device(device).to_dict()
    elif not isinstance(device, dict):
        raise _BadRequest('"device" must be a registry name or device dict')
    config = body.get("config", {})
    if not isinstance(config, dict):
        raise _BadRequest('"config" must be an object')
    priority = body.get("priority")
    if priority is not None and priority not in PRIORITIES:
        raise _BadRequest(
            f"unknown priority {priority!r}; expected one of {PRIORITIES}"
        )
    for name in ("deadline", "timeout", "wait_timeout"):
        value = body.get(name)
        if value is not None and not isinstance(value, (int, float)):
            raise _BadRequest(f'"{name}" must be a number')
    metadata = body.get("metadata", {})
    if not isinstance(metadata, dict):
        raise _BadRequest('"metadata" must be an object')
    try:
        job = CompileJob.create(
            qasm,
            device,
            config or None,
            job_id=str(body.get("job_id", "")),
            timeout=body.get("timeout"),
            metadata=metadata,
        )
    except (TypeError, ValueError, KeyError) as exc:
        raise _BadRequest(f"invalid job: {exc}")
    opts = {
        "priority": priority,
        "deadline": body.get("deadline"),
        "tenant": str(body.get("tenant", "default")),
        "wait": bool(body.get("wait", False)),
        "wait_timeout": float(body.get("wait_timeout") or _DEFAULT_WAIT_S),
        "artifact": bool(body.get("artifact", False)),
    }
    return job, opts


class GatewayServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` bound to one gateway.

    Args:
        address: ``(host, port)``; port ``0`` binds an ephemeral port
            (read it back from :attr:`port`).
        gateway: The :class:`AsyncCompileService` handlers submit into.
        verbose: Log requests to stderr (default: quiet).
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int],
                 gateway: AsyncCompileService, *,
                 verbose: bool = False) -> None:
        self.gateway = gateway
        self.verbose = verbose
        super().__init__(address, GatewayRequestHandler)

    @property
    def port(self) -> int:
        return self.server_address[1]
