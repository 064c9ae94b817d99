"""HTTP surface of the serve control plane (stdlib only).

:class:`ServeApp` is the transport-free application object — every
endpoint is an ordinary method returning ``(status, payload)`` — and
:class:`ReproServer` mounts it on a ``ThreadingHTTPServer``.  Keeping
the two apart means the routing/validation logic is testable without
sockets while the e2e tests still drive real HTTP.

Endpoints (all JSON unless noted)::

    GET  /                      service + endpoint index
    GET  /healthz               liveness (always 200 once serving)
    GET  /metrics               Prometheus text exposition (v0.0.4)
    POST /v1/sweeps             submit a sweep (schema.py documents the
                                body); sync mode answers 200 with
                                results inline, async answers 202 with
                                the job record
    GET  /v1/jobs               all jobs, newest last
    GET  /v1/jobs/<id>          job status + progress
    GET  /v1/jobs/<id>/result   per-trial results (409 while running)
    GET  /v1/jobs/<id>/telemetry  raw JSONL stream (``repro dash``
                                renders a saved copy)
    POST /v1/jobs/<id>/cancel   request cancellation

Graceful shutdown: :func:`run_server` installs SIGTERM/SIGINT handlers
that set an event; the main thread then stops accepting, drains the
job manager (interrupted jobs are journaled back to ``queued``, their
runner workers stopped and reaped), so a killed daemon leaves no worker
process behind (:func:`repro.parallel.live_workers`) and resumes its
queue on restart.
"""

from __future__ import annotations

import json
import re
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple

from repro.observability.metrics import MetricsRegistry
from repro.serve.jobs import Draining, JobManager, QueueFull
from repro.serve.schema import RequestError, parse_sweep_request

__all__ = ["ServeApp", "ReproServer", "run_server"]

#: ``mode="auto"`` submissions at or below this many trials answer
#: synchronously (the request blocks until the job finishes).
SYNC_MAX_TRIALS = 16

#: How long a sync request blocks before degrading to the async answer.
SYNC_TIMEOUT = 300.0

_JSON = "application/json"
_PROM = "text/plain; version=0.0.4; charset=utf-8"
_NDJSON = "application/x-ndjson"

#: ``(status, content-type, payload)`` — handlers that need extra
#: headers (``Retry-After`` on 429/503) append a ``{name: value}`` dict
#: as a fourth element.
Response = Tuple[Any, ...]


class ServeApp:
    """The control plane behind the HTTP handler."""

    def __init__(
        self,
        state_dir: str,
        *,
        workers: int = 2,
        min_workers: Optional[int] = None,
        max_workers: Optional[int] = None,
        max_queue_depth: Optional[int] = None,
        runner_jobs: int = 1,
        trial_timeout: Optional[float] = None,
        retries: int = 1,
        sync_max_trials: int = SYNC_MAX_TRIALS,
        sync_timeout: float = SYNC_TIMEOUT,
        scale_up_after: float = 1.0,
        scale_down_idle: float = 5.0,
        enable_chaos: bool = False,
    ) -> None:
        self.registry = MetricsRegistry()
        self.manager = JobManager(
            state_dir,
            workers=workers,
            min_workers=min_workers,
            max_workers=max_workers,
            max_queue_depth=max_queue_depth,
            runner_jobs=runner_jobs,
            trial_timeout=trial_timeout,
            retries=retries,
            registry=self.registry,
            scale_up_after=scale_up_after,
            scale_down_idle=scale_down_idle,
        )
        self.sync_max_trials = sync_max_trials
        self.sync_timeout = sync_timeout
        self.enable_chaos = enable_chaos
        self.started = time.time()

    def start(self) -> None:
        self.manager.start()

    def stop(self) -> None:
        self.manager.shutdown()

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def handle_index(self) -> Response:
        return (
            200,
            _JSON,
            {
                "service": "repro-serve",
                "endpoints": [
                    "GET /healthz",
                    "GET /metrics",
                    "POST /v1/sweeps",
                    "GET /v1/jobs",
                    "GET /v1/jobs/<id>",
                    "GET /v1/jobs/<id>/result",
                    "GET /v1/jobs/<id>/telemetry",
                    "POST /v1/jobs/<id>/cancel",
                ]
                + (["POST /v1/chaos"] if self.enable_chaos else []),
            },
        )

    def handle_health(self) -> Response:
        return (
            200,
            _JSON,
            {
                "status": "draining" if self.manager.draining else "ok",
                "uptime_seconds": round(time.time() - self.started, 3),
                "queued": self.manager.queue_depth(),
                "running": self.manager.running_count(),
                "saturation": round(self.manager.saturation(), 4),
                "pool": self.manager.pool_stats(),
            },
        )

    def handle_metrics(self) -> Response:
        manager = self.manager
        # Snapshot every gauge input *before* taking metrics_lock: the
        # manager acquires metrics_lock while holding its own lock
        # (_finish_locked -> _metric), so calling queue_depth() &c.
        # under metrics_lock would invert the lock order and deadlock
        # against a finishing job.
        depth = manager.queue_depth()
        running = manager.running_count()
        saturation = manager.saturation()
        pool = manager.pool_stats()
        entries = len(manager.store)
        uptime = round(time.time() - self.started, 3)
        with manager.metrics_lock:
            self.registry.gauge(
                "repro_serve_queue_depth", "Jobs waiting for a worker"
            ).set(depth)
            self.registry.gauge(
                "repro_serve_running_jobs", "Jobs currently executing"
            ).set(running)
            self.registry.gauge(
                "repro_serve_queue_saturation",
                "Queue depth over max_queue_depth (0 when unbounded)",
            ).set(round(saturation, 4))
            self.registry.gauge(
                "repro_serve_workers", "Live worker threads"
            ).set(pool["alive"])
            self.registry.gauge(
                "repro_serve_workers_target",
                "Worker count the supervisor is steering toward",
            ).set(pool["target"])
            self.registry.gauge(
                "repro_serve_uptime_seconds", "Seconds since server start"
            ).set(uptime)
            self.registry.gauge(
                "repro_result_store_entries", "Results in the dedup store"
            ).set(entries)
            text = self.registry.exposition()
        return (200, _PROM, text)

    def handle_submit(self, payload: Any) -> Response:
        try:
            request = parse_sweep_request(payload)
        except RequestError as exc:
            return (400, _JSON, {"error": str(exc)})
        mode = request.mode
        if mode == "auto":
            mode = (
                "sync"
                if len(request.specs) <= self.sync_max_trials
                else "async"
            )
        try:
            job = self.manager.submit(
                request.specs,
                label=request.label,
                mode=mode,
                deadline_s=request.deadline_s,
            )
        except QueueFull as exc:
            return (
                429,
                _JSON,
                {"error": str(exc), "retry_after": exc.retry_after},
                {"Retry-After": str(exc.retry_after)},
            )
        except Draining as exc:
            return (
                503,
                _JSON,
                {"error": str(exc)},
                {"Retry-After": "10"},
            )
        except ValueError as exc:
            return (400, _JSON, {"error": str(exc)})
        if mode == "sync":
            if self.manager.wait(job, timeout=self.sync_timeout):
                return (
                    200,
                    _JSON,
                    {"job": job.summary(), "results": self.manager.results(job)},
                )
            # still running: degrade to the async contract
            return (202, _JSON, {"job": job.summary()})
        return (202, _JSON, {"job": job.summary()})

    def handle_jobs(self) -> Response:
        return (
            200,
            _JSON,
            {"jobs": [job.summary() for job in self.manager.jobs()]},
        )

    def handle_job(self, job_id: str) -> Response:
        job = self.manager.get(job_id)
        if job is None:
            return (404, _JSON, {"error": f"unknown job {job_id!r}"})
        return (200, _JSON, {"job": job.summary()})

    def handle_result(self, job_id: str) -> Response:
        job = self.manager.get(job_id)
        if job is None:
            return (404, _JSON, {"error": f"unknown job {job_id!r}"})
        if job.state in ("queued", "running"):
            return (
                409,
                _JSON,
                {
                    "error": f"job {job_id} is {job.state}; poll "
                    f"{job.summary()['links']['status']} until it finishes",
                    "job": job.summary(),
                },
            )
        if job.state in ("failed", "cancelled"):
            return (
                410,
                _JSON,
                {
                    "error": f"job {job_id} finished {job.state}"
                    + (f": {job.error}" if job.error else ""),
                    "job": job.summary(),
                },
            )
        results = self.manager.results(job)
        if results is None:
            return (
                500,
                _JSON,
                {"error": f"job {job_id} journal is missing its results"},
            )
        return (200, _JSON, {"job": job.summary(), "results": results})

    def handle_telemetry(self, job_id: str) -> Response:
        job = self.manager.get(job_id)
        if job is None:
            return (404, _JSON, {"error": f"unknown job {job_id!r}"})
        if not job.telemetry_requested:
            return (
                404,
                _JSON,
                {
                    "error": f"job {job_id} has no telemetry "
                    "(no spec requested telemetry=true)"
                },
            )
        try:
            with open(job.telemetry_path, "rb") as handle:
                body = handle.read()
        except OSError:
            body = b""  # requested but nothing streamed yet
        return (200, _NDJSON, body)

    def handle_cancel(self, job_id: str) -> Response:
        state = self.manager.cancel(job_id)
        if state is None:
            return (404, _JSON, {"error": f"unknown job {job_id!r}"})
        job = self.manager.get(job_id)
        return (202, _JSON, {"job": job.summary() if job else {"state": state}})

    def handle_chaos(self, payload: Any) -> Response:
        """Fault injection for the chaos harness; a 404 unless the
        server was started with ``--enable-chaos``."""
        if not self.enable_chaos:
            return (
                404,
                _JSON,
                {"error": "chaos endpoint disabled (start with --enable-chaos)"},
            )
        fault = payload.get("fault") if isinstance(payload, dict) else None
        if fault == "kill_worker":
            self.manager.chaos_kill_worker()
            return (202, _JSON, {"fault": "kill_worker"})
        if fault == "stall_worker":
            seconds = payload.get("seconds", 5)
            if not isinstance(seconds, (int, float)) or seconds <= 0:
                return (400, _JSON, {"error": "seconds must be > 0"})
            self.manager.chaos_stall_worker(float(seconds))
            return (
                202,
                _JSON,
                {"fault": "stall_worker", "seconds": min(float(seconds), 30.0)},
            )
        return (
            400,
            _JSON,
            {
                "error": f"unknown fault {fault!r} "
                "(expected kill_worker or stall_worker)"
            },
        )

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    _ROUTES: Tuple[Tuple[str, "re.Pattern[str]", str, str], ...] = (
        ("GET", re.compile(r"^/$"), "index", "/"),
        ("GET", re.compile(r"^/healthz$"), "health", "/healthz"),
        ("GET", re.compile(r"^/metrics$"), "metrics", "/metrics"),
        ("POST", re.compile(r"^/v1/sweeps$"), "submit", "/v1/sweeps"),
        ("GET", re.compile(r"^/v1/jobs$"), "jobs", "/v1/jobs"),
        ("GET", re.compile(r"^/v1/jobs/([^/]+)$"), "job", "/v1/jobs/<id>"),
        (
            "GET",
            re.compile(r"^/v1/jobs/([^/]+)/result$"),
            "result",
            "/v1/jobs/<id>/result",
        ),
        (
            "GET",
            re.compile(r"^/v1/jobs/([^/]+)/telemetry$"),
            "telemetry",
            "/v1/jobs/<id>/telemetry",
        ),
        (
            "POST",
            re.compile(r"^/v1/jobs/([^/]+)/cancel$"),
            "cancel",
            "/v1/jobs/<id>/cancel",
        ),
        ("POST", re.compile(r"^/v1/chaos$"), "chaos", "/v1/chaos"),
    )

    def dispatch(self, method: str, path: str, body: Optional[bytes]) -> Response:
        """Route one request to its ``handle_*`` method."""
        try:
            for verb, pattern, name, _label in self._ROUTES:
                match = pattern.match(path)
                if match is None:
                    continue
                if verb != method:
                    return (
                        405,
                        _JSON,
                        {"error": f"{path} only supports {verb}"},
                    )
                handler: Callable[..., Response] = getattr(
                    self, f"handle_{name}"
                )
                args = list(match.groups())
                if method == "POST" and name in ("submit", "chaos"):
                    try:
                        payload = json.loads(body or b"")
                    except ValueError:
                        return (
                            400,
                            _JSON,
                            {"error": "request body is not valid JSON"},
                        )
                    args.append(payload)
                return handler(*args)
            return (404, _JSON, {"error": f"no route for {method} {path}"})
        except Exception as exc:  # never let a handler kill the thread
            return (
                500,
                _JSON,
                {"error": f"internal error: {type(exc).__name__}: {exc}"},
            )

    def record_http(self, method: str, route: str, code: int) -> None:
        with self.manager.metrics_lock:
            self.registry.counter(
                "repro_http_requests_total", "Control-plane HTTP requests"
            ).inc(method=method, route=route, code=str(code))

    def route_label(self, method: str, path: str) -> str:
        for _verb, pattern, _name, label in self._ROUTES:
            if pattern.match(path):
                return label
        return "<unmatched>"


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    @property
    def app(self) -> ServeApp:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    def _respond(self, response: Response) -> None:
        status, content_type, payload = response[:3]
        extra: Dict[str, str] = response[3] if len(response) > 3 else {}
        if isinstance(payload, bytes):
            body = payload
        elif content_type == _PROM:
            body = str(payload).encode("utf-8")
        else:
            body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in extra.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _serve(self, method: str) -> None:
        path = self.path.split("?", 1)[0]
        body = None
        if method == "POST":
            length = int(self.headers.get("Content-Length") or 0)
            body = self.rfile.read(length) if length else b""
        response = self.app.dispatch(method, path, body)
        try:
            self._respond(response)
        finally:
            self.app.record_http(
                method, self.app.route_label(method, path), response[0]
            )

    def do_GET(self) -> None:
        self._serve("GET")

    def do_POST(self) -> None:
        self._serve("POST")


class ReproServer:
    """A :class:`ServeApp` mounted on a threading HTTP server."""

    def __init__(self, app: ServeApp, host: str = "127.0.0.1", port: int = 0):
        self.app = app
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.app = app  # type: ignore[attr-defined]
        self.httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    def start(self) -> None:
        self.app.start()
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()

    def shutdown(self) -> None:
        """Stop accepting and drain the manager."""
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(5.0)
            self._thread = None
        self.app.stop()


def _print_flushed(message: str) -> None:
    # The listen line is parsed by supervisors (tests, smoke scripts)
    # reading our pipe; block buffering would withhold it until exit.
    print(message, flush=True)


def run_server(
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    state_dir: str,
    workers: int = 2,
    min_workers: Optional[int] = None,
    max_workers: Optional[int] = None,
    max_queue_depth: Optional[int] = None,
    runner_jobs: int = 1,
    trial_timeout: Optional[float] = None,
    retries: int = 1,
    sync_timeout: float = SYNC_TIMEOUT,
    scale_up_after: float = 1.0,
    scale_down_idle: float = 5.0,
    enable_chaos: bool = False,
    print_fn: Callable[[str], None] = _print_flushed,
) -> int:
    """Blocking entry point behind ``repro serve``.

    Runs until SIGTERM/SIGINT, then shuts down gracefully: running
    sweeps are interrupted at their next scheduling point and journaled
    back to ``queued`` (their checkpoints make the restart cheap), and
    their runner workers are reaped before exit.

    Returns 2 (with a one-line diagnostic on stderr) when the listen
    address cannot be bound — the classic already-running case must not
    be a traceback.
    """
    app = ServeApp(
        state_dir,
        workers=workers,
        min_workers=min_workers,
        max_workers=max_workers,
        max_queue_depth=max_queue_depth,
        runner_jobs=runner_jobs,
        trial_timeout=trial_timeout,
        retries=retries,
        sync_timeout=sync_timeout,
        scale_up_after=scale_up_after,
        scale_down_idle=scale_down_idle,
        enable_chaos=enable_chaos,
    )
    try:
        server = ReproServer(app, host=host, port=port)
    except OSError as exc:
        print(
            f"repro serve: cannot bind {host}:{port}: {exc.strerror or exc} "
            "(is another server already listening there?)",
            file=sys.stderr,
            flush=True,
        )
        return 2
    stop = threading.Event()

    def _signal_handler(signum: int, frame: Any) -> None:
        stop.set()

    previous = {
        sig: signal.signal(sig, _signal_handler)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        server.start()
        print_fn(
            f"repro serve listening on http://{server.host}:{server.port} "
            f"(state dir {app.manager.state_dir})"
        )
        stop.wait()
        print_fn("repro serve: shutting down (draining jobs)")
        server.shutdown()
        print_fn("repro serve: shutdown complete")
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return 0
