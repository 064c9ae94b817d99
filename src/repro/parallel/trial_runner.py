"""Fan independent protocol trials across worker processes.

The unit of work is a :class:`TrialSpec` — plain, picklable data that
fully determines one protocol run.  :func:`execute_trial` is a pure
function of the spec: protocols are rebuilt by *name* inside the worker
(rule closures don't pickle) and any randomness flows from the spec's
integer ``seed`` through :mod:`repro.rng`, so a trial's result is
bit-identical whether it runs inline or in any worker process.  That
property is what lets the experiments keep their "reproducible from one
seed" contract while scaling across cores; it is pinned by
``tests/test_parallel.py``.

Worker processes
----------------
Every multi-process sweep runs on one scheduler.  :meth:`TrialRunner.map`
forks up to ``min(jobs, pending)`` persistent workers once the spec list
is final, always with the ``fork`` start method (Linux, the only
platform this package targets): each worker inherits the spec list, so
the parent sends only a spec index down a pipe and receives the pickled
outcome.  Each worker keeps one index queued behind the trial it is
running, so it never waits on the parent between trials.  Workers exit
when the parent stops them or closes its end of the pipe, and on their
own once the parent process is gone; :func:`live_workers` audits that
none outlives its sweep.  ``jobs=1`` without the resilience knobs runs
inline: no worker, no pickling.

Resilient execution
-------------------
Long sweeps die to one hung trial or one OOM-killed worker; the runner
therefore has a second, *resilient* mode, selected by any of the
``timeout`` / ``retries`` / ``checkpoint`` knobs.  It runs on workers
even at ``jobs=1``:

* each trial gets a wall-clock ``timeout``, counted from the moment its
  worker finished the trial before it; on expiry the worker is killed
  and replaced, and the index it had queued goes back to the queue
  without being charged an attempt (a dead worker is handled the same);
* timed-out and transiently-dead attempts are retried up to ``retries``
  times with exponential backoff (``backoff * 2**attempt`` seconds);
  a trial's *own* exception is deterministic and is never retried;
* a trial that exhausts its attempts becomes a :class:`FailedTrial`
  record in the result list instead of aborting the batch;
* with ``checkpoint=PATH``, every completed trial is appended to a
  JSONL file keyed by ``(index, spec fingerprint)``; re-running with
  the same path resumes a killed sweep, executing only the missing
  trials (stale or corrupt lines are ignored and re-run).

Without any of those knobs the same scheduler runs with no timeout,
retry or checkpoint: like ``pool.map``, a trial's exception is re-raised
(the lowest-index one, after the trials in flight finish), and a dead
worker or failed fork degrades the rest of the sweep to inline
execution with a ``RuntimeWarning``.

Long-lived owners
-----------------
A sweep no longer has to be a run-to-completion black box.  Two hooks
let a persistent owner — the ``repro serve`` control plane
(:mod:`repro.serve`), or any other daemon embedding the runner — drive
it incrementally:

* ``on_result`` is called once per trial as its outcome lands
  (``on_result(index, outcome, resumed)``), including trials restored
  from a resume checkpoint (``resumed=True``) and trials answered by
  batch-sweep dispatch.  Results are unchanged; the callback only
  observes them.
* ``cancel`` is a :class:`threading.Event`; once set, the runner stops
  dispatching, kills its workers, and raises :class:`SweepCancelled`.
  Work already checkpointed stays checkpointed, so a cancelled job
  resumes exactly where it stopped.

In resilient mode the runner additionally defers a ``SIGTERM`` (main
thread, default disposition only): the handler records it, and the next
cancel safe point raises :class:`SweepInterrupted`, so a killed process
unwinds through its ``finally`` blocks: the checkpoint JSONL is flushed
and closed, the workers are killed, and the exit code is the
conventional ``128 + signum``.

Batch-sweep dispatch
--------------------
Groups of same-(protocol, graph, budget) synchronous specs with no
per-trial observation execute as one ``(k, n)`` batch-kernel call in
the parent instead of ``k`` separate runs
(:mod:`repro.parallel.batch_sweep`), with bit-identical results (pinned
by ``tests/test_engine_equivalence.py``).  It is disabled wholesale
under tracing and in resilient mode (both need per-trial execution),
and visibly so — see ``repro_batch_sweep_fallbacks_total``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing
import os
import pickle
import signal
import threading
import time
import warnings
from collections import deque
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait as _connection_wait
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.engine.registry import PROTOCOLS, preload, register_protocol
from repro.engine.result import RunResult
from repro.graphs.graph import Graph
from repro.types import NodeId

__all__ = [
    "PROTOCOLS",
    "FailedTrial",
    "SweepCancelled",
    "SweepInterrupted",
    "TrialRunner",
    "TrialSpec",
    "execute_trial",
    "live_workers",
    "register_protocol",
    "resolve_jobs",
    "run_trials",
    "spec_fingerprint",
]

#: Signature of the :class:`TrialRunner` progress callback:
#: ``(index, outcome, resumed)`` — the spec index, its
#: :class:`~repro.engine.result.RunResult` or :class:`FailedTrial`, and
#: whether it was restored from a resume checkpoint rather than run.
OnResult = Callable[[int, Union[RunResult, "FailedTrial"], bool], None]


class SweepCancelled(RuntimeError):
    """Raised by :meth:`TrialRunner.map` when its ``cancel`` event is
    set mid-sweep, or its ``deadline`` passes.  Completed trials are
    already checkpointed (resilient mode) and reported through
    ``on_result``; re-running with the same checkpoint resumes from
    where the cancel landed.

    ``reason`` distinguishes the trigger: ``"cancel"`` (owner set the
    event) vs ``"deadline"`` (wall clock passed ``deadline``), so an
    owner like :class:`repro.serve.jobs.JobManager` can classify the
    unwind without racing re-reads of the event.
    """

    def __init__(self, message: str = "sweep cancelled", *,
                 reason: str = "cancel") -> None:
        super().__init__(message)
        self.reason = reason


class SweepInterrupted(SystemExit):
    """``SIGTERM`` during a resilient sweep, raised at the runner's next
    cancel safe point so the sweep unwinds orderly — checkpoint flushed
    and closed, workers killed — before the process exits with the
    conventional ``128 + signum`` status."""

    def __init__(self, signum: int) -> None:
        super().__init__(128 + int(signum))
        self.signum = int(signum)


class _SigtermFlag:
    """A ``SIGTERM`` received during a resilient sweep.

    The handler only records the signal and writes one byte to a
    self-pipe, so the scheduler's blocking wait wakes up; it never
    raises.  An exception raised from a signal handler lands wherever
    the main thread happens to be — inside a ``with lock:`` block it is
    mangled and the signal is lost — so unwinding is left to the
    runner's cancel safe points (:meth:`TrialRunner._check_cancel`).
    """

    def __init__(self) -> None:
        self.signum: Optional[int] = None
        self._read, self._write = os.pipe()
        os.set_blocking(self._read, False)
        os.set_blocking(self._write, False)

    def handle(self, signum, frame) -> None:
        self.signum = signum
        try:
            os.write(self._write, b"\0")
        except OSError:  # pipe full: a wake-up is already pending
            pass

    def fileno(self) -> int:
        return self._read

    def drain(self) -> None:
        try:
            while os.read(self._read, 4096):
                pass
        except OSError:  # drained (EAGAIN)
            pass

    def close(self) -> None:
        os.close(self._read)
        os.close(self._write)


@dataclass(frozen=True)
class TrialSpec:
    """One protocol run, as plain data.

    Attributes
    ----------
    protocol:
        Key into :data:`repro.engine.PROTOCOLS` (``"smm"``, ``"sis"``,
        ...).
    graph / config:
        The topology and initial configuration (``None`` = clean start).
    daemon:
        ``"synchronous"`` (default), ``"central"``,
        ``"synchronized-central"`` (the E5 refinement), or
        ``"distributed"``.
    max_rounds:
        Budget, forwarded as ``max_rounds`` (``max_moves`` for the
        central daemon).  ``None`` = the runner's documented default.
    record_history:
        Keep per-round configurations (needed by E3/E6-style replays).
    seed:
        Integer seed for daemons that consume randomness.  Derive it in
        the parent (e.g. :func:`repro.rng.trial_seeds`) so the schedule
        is a function of the spec, not of execution order.
    options:
        Extra keyword arguments for the runner, as a sorted tuple of
        ``(name, value)`` pairs (kept hashable/picklable).
    backend:
        Execution backend (:mod:`repro.engine`): ``"reference"`` (the
        default), ``"auto"``, or an explicit registered kernel such as
        ``"vectorized"``.
    telemetry:
        Attach a :class:`~repro.observability.RunTelemetry` record to
        the trial's result.  Telemetry rides back through the ordinary
        pickled :class:`RunResult`, so per-worker collection needs no
        extra plumbing; aggregate with
        :func:`repro.observability.merge_telemetry` or write records out
        with :class:`repro.observability.TelemetrySink`.
    trace:
        Collect a span fragment for this trial
        (:mod:`repro.observability.tracing`) when no tracer is ambient
        — how worker processes trace: the fragment rides back on
        ``result.trace`` and the parent grafts it into the sweep's
        tracer.  :meth:`TrialRunner.map` sets this itself whenever a
        tracer is installed; callers normally never do.  Excluded from
        :func:`spec_fingerprint` (tracing does not change the result),
        so toggling ``--trace`` never invalidates resume checkpoints.
    convergence:
        Attach the proof-aware convergence record
        (:mod:`repro.observability.convergence`) to the trial's result:
        potential series, safety-monitor violation counts, and the
        paper-bound conformance verdict on ``result.bound_ok``.
        Implies telemetry collection at the engine level.  Excluded
        from :func:`spec_fingerprint` — the monitors observe the run
        without changing its outcome (same rule as ``trace``), so
        toggling ``--convergence`` never invalidates resume checkpoints
        or the serve result cache.

        Metrics need no spec flag at all: the registry's counters come
        from the :class:`RunResult` summary fields and its latency
        histogram from the ``elapsed`` wall-clock the engine stamps on
        every result, so the parent records everything after the sweep
        without asking workers for extra collection.
    """

    protocol: str
    graph: Graph
    config: Optional[Mapping[NodeId, object]] = None
    daemon: str = "synchronous"
    max_rounds: Optional[int] = None
    record_history: bool = False
    seed: Optional[int] = None
    options: Tuple[Tuple[str, object], ...] = ()
    backend: str = "reference"
    telemetry: bool = False
    trace: bool = False
    convergence: bool = False


def execute_trial(spec: TrialSpec) -> RunResult:
    """Run one trial — a pure function of the spec.

    Dispatches through :func:`repro.engine.run`, the single engine
    front door (protocol lookup, daemon routing and backend selection
    all live there).  ``spec.trace`` builds a local tracer when none is
    ambient (the worker-process case) and attaches its export to
    ``result.trace``."""
    if spec.trace:
        from repro.observability import tracing as _tracing

        if _tracing.current_tracer() is None:
            tracer = _tracing.Tracer()
            with _tracing.use_tracer(tracer):
                result = _dispatch_trial(spec)
            result.trace = tracer.export()
            return result
    return _dispatch_trial(spec)


def _dispatch_trial(spec: TrialSpec) -> RunResult:
    from repro.engine import run as engine_run

    options = dict(spec.options)
    if spec.telemetry:
        # only forwarded when requested, so runners without the keyword
        # (externally registered backends) keep working untouched
        options["telemetry"] = True
    if spec.convergence:
        # consumed by the engine front door (implies telemetry there);
        # never reaches a backend runner
        options["convergence"] = True
    return engine_run(
        spec.protocol,
        spec.graph,
        spec.config,
        daemon=spec.daemon,
        backend=spec.backend,
        rng=spec.seed,
        max_rounds=spec.max_rounds,
        record_history=spec.record_history,
        **options,
    )


@dataclass(frozen=True)
class FailedTrial:
    """A trial that could not produce a result in resilient mode.

    Takes the trial's slot in the result list (so indices still line up
    with the spec list) instead of aborting the whole batch.

    ``error_type``/``error`` name the last failure: the exception type
    raised *by the trial* (never retried — a pure function of the spec
    fails deterministically), ``"Timeout"`` for a wall-clock expiry, or
    ``"WorkerDeath"`` when the worker process vanished (signal, OOM
    kill).  ``attempts`` counts attempts actually made; ``timed_out``
    flags that the last attempt hit the timeout.
    """

    index: int
    fingerprint: str
    error_type: str
    error: str
    attempts: int
    timed_out: bool = False


def _fingerprint_canon(value):
    """JSON-serializable stand-in for arbitrary spec option values."""
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_fingerprint_canon(v) for v in value]
    try:
        import numpy as np

        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.floating):
            return float(value)
    except Exception:  # pragma: no cover - numpy always present in repo
        pass
    return repr(value)


def spec_fingerprint(spec: TrialSpec) -> str:
    """A short stable hash of everything that determines the trial's
    result — the checkpoint key that guards resumes against spec-list
    drift, and the content address of the serve result store.  Graphs
    hash by node/edge lists, configurations by sorted items, option
    values through ``to_dict`` when they have one
    (:class:`~repro.resilience.FaultPlan` does) and ``repr`` otherwise.

    The serialization schema version
    (:data:`repro.analysis.serialize.SCHEMA_VERSION`) is folded into
    the hash, so every fingerprint-keyed artefact — resume checkpoints,
    result-store entries — invalidates wholesale across incompatible
    releases instead of deserializing stale bytes.  The exact format is
    pinned by ``tests/test_parallel.py::TestFingerprintFormat``.

    The observation-only flags ``trace`` and ``convergence`` are
    deliberately *excluded*: they change what is recorded about a run,
    never the run itself, so toggling them must keep hitting the same
    checkpoints and serve-store entries.
    """
    from repro.analysis.serialize import SCHEMA_VERSION

    payload = {
        "schema": SCHEMA_VERSION,
        "protocol": spec.protocol,
        "config": (
            None
            if spec.config is None
            else sorted(
                (repr(k), _fingerprint_canon(v))
                for k, v in dict(spec.config).items()
            )
        ),
        "daemon": spec.daemon,
        "max_rounds": spec.max_rounds,
        "record_history": spec.record_history,
        "seed": None if spec.seed is None else int(spec.seed),
        "options": [
            [name, _fingerprint_canon(value)] for name, value in spec.options
        ],
        "backend": spec.backend,
        "telemetry": spec.telemetry,
    }
    # the text json.dumps(payload, sort_keys=True) would produce, with
    # the graph's two fields spliced in from its memoised fragment
    fields = {
        key: json.dumps(value, sort_keys=True, default=_fingerprint_canon)
        for key, value in payload.items()
    }
    fields["nodes"], fields["edges"] = _graph_fragment(spec.graph)
    blob = "{" + ", ".join(
        f"{json.dumps(key)}: {fields[key]}" for key in sorted(fields)
    ) + "}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _graph_fragment(graph: Graph) -> Tuple[str, str]:
    """The JSON text of the ``nodes`` and ``edges`` fingerprint fields,
    computed once per immutable graph and memoised on it: a sweep
    fingerprints the same graph once per trial."""
    fragment = graph._fingerprint
    if fragment is None:
        fragment = graph._fingerprint = (
            json.dumps([repr(n) for n in graph.nodes]),
            json.dumps(sorted(sorted(repr(x) for x in e) for e in graph.edges)),
        )
    return fragment


#: ``/proc/<pid>/comm`` of a runner worker, the name :func:`live_workers`
#: looks for (at most 15 bytes, the kernel's limit).
WORKER_NAME = "repro-worker"

#: Trials a worker holds at once: the one it runs plus one queued
#: behind it, so it never waits on the parent between trials.
_QUEUE_DEPTH = 2


def _worker_main(conn, specs: Sequence[TrialSpec], inherited) -> None:
    """Entry point of a forked worker: run ``specs[index]`` for every
    index the parent sends and answer with the outcome; exit on a
    ``None`` stop, on EOF, or once the parent process is gone.

    A trial's exception travels as ``(type name, message, exception)``,
    the exception object only when it survives a pickle round trip, so
    an unpicklable exception cannot break the transport and masquerade
    as worker death."""
    for other in inherited:  # the parent's pipe ends the fork copied:
        other.close()  # holding them would hide their EOF
    # a forked worker inherits the parent's deferring SIGTERM handler;
    # terminate() must end the worker outright
    with contextlib.suppress(ValueError):  # not the main thread
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _pin_worker_threads()
    with contextlib.suppress(OSError):  # no /proc: stay unnamed
        with open("/proc/self/comm", "w", encoding="ascii") as handle:
            handle.write(WORKER_NAME)
    parent = os.getppid()
    while True:
        try:
            while not conn.poll(1.0):
                if os.getppid() != parent:
                    return  # orphaned, e.g. the parent was SIGKILLed
            index = conn.recv()
        except (EOFError, OSError):
            return
        if index is None:
            return
        try:
            payload = ("ok", execute_trial(specs[index]))
        except Exception as exc:
            payload = ("error", type(exc).__name__, str(exc), _portable(exc))
        try:
            conn.send(payload)
        except OSError:
            return
        except Exception:
            with contextlib.suppress(OSError):
                conn.send(
                    ("error", "SerializationError",
                     "result could not be pickled", None)
                )


def _portable(exc: BaseException) -> Optional[BaseException]:
    """``exc`` if it survives a pickle round trip, else ``None``."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return None
    return exc


def live_workers() -> List[int]:
    """Pids of the runner workers alive on this host, from a ``/proc``
    scan (zombies excluded; empty without ``/proc``).  Every sweep stops
    and reaps its workers, so outside a running sweep or server this is
    the audit that no worker outlived its parent."""
    pids = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return pids
    name = WORKER_NAME.encode("ascii")
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited meanwhile
        # "pid (comm) state ...": comm itself may hold parentheses
        head, _, tail = stat.rpartition(b") ")
        if head.partition(b" (")[2] == name and not tail.startswith(b"Z"):
            pids.append(int(entry))
    return sorted(pids)


# ----------------------------------------------------------------------
# worker environment
# ----------------------------------------------------------------------
_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _pin_worker_threads() -> None:
    """Pin BLAS/OMP pools to one thread in this worker.

    ``jobs`` worker processes each spinning a BLAS pool of ``cores``
    threads oversubscribes the machine ``jobs``-fold; the trials are
    pure Python + small NumPy element-wise ops, so one thread per worker
    is optimal.  Env vars cover libraries loaded after the fork;
    ``threadpoolctl`` (if present) repins ones already loaded.

    Also clears observation context the fork start method copies from
    the parent: the parent's tracer / metrics registry objects are
    unreachable from a worker, and a worker that still *sees* them
    would record spans into a dead copy instead of building the local
    fragment that rides back on the result (``spec.trace``).
    """
    from repro.observability import metrics as _metrics
    from repro.observability import tracing as _tracing

    _tracing._CURRENT.set(None)
    _metrics._CURRENT.set(None)
    for var in _THREAD_ENV_VARS:
        os.environ[var] = "1"
    try:  # pragma: no cover - optional dependency
        from threadpoolctl import threadpool_limits

        threadpool_limits(limits=1)
    except Exception:
        pass


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` = all cores."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


# ----------------------------------------------------------------------
# scheduler plumbing
# ----------------------------------------------------------------------
@dataclass
class _Worker:
    """One persistent worker process of the scheduler."""

    process: object
    conn: object  # the parent's end of the worker's pipe
    #: ``(index, attempt)`` sent and not yet answered; ``queue[0]`` runs
    queue: deque = field(default_factory=deque)
    deadline: Optional[float] = None  # of queue[0]; monotonic seconds


class _WorkerLost(RuntimeError):
    """A plain-mode worker died: the sweep degrades to inline."""


def _stop_workers(workers: Sequence[_Worker]) -> None:
    """Stop and reap workers: a stop message to idle ones, ``SIGTERM``
    (then ``SIGKILL``) to ones still holding trials."""
    for worker in workers:
        if worker.queue:
            worker.process.terminate()
        else:
            with contextlib.suppress(OSError):  # already gone
                worker.conn.send(None)
    for worker in workers:
        worker.process.join(1.0)
        if worker.process.is_alive():  # pragma: no cover - stubborn
            worker.process.kill()
            worker.process.join()
        worker.conn.close()


def _preload(specs: Sequence[TrialSpec]) -> None:
    """Import here what the runs import lazily, so forked workers start
    warm instead of each importing its backend itself."""
    for key in {(spec.protocol, spec.daemon, spec.backend) for spec in specs}:
        preload(*key)


def _checkpoint_record(index: int, fingerprint: str, outcome) -> Dict[str, object]:
    if isinstance(outcome, FailedTrial):
        return {
            "index": index,
            "fingerprint": fingerprint,
            "status": "failed",
            "error_type": outcome.error_type,
            "error": outcome.error,
            "attempts": outcome.attempts,
            "timed_out": outcome.timed_out,
        }
    from repro.analysis.serialize import execution_to_dict

    return {
        "index": index,
        "fingerprint": fingerprint,
        "status": "ok",
        "result": execution_to_dict(outcome),
    }


def _load_checkpoint(
    path: str, fingerprints: Sequence[str]
) -> Dict[int, Union[RunResult, FailedTrial]]:
    """Completed trials from a checkpoint file, keyed by spec index.

    A line counts only when it parses, its index is in range, and its
    fingerprint matches the current spec at that index — anything else
    (truncated write from a kill, a spec list that changed since) is
    ignored and the trial simply re-runs.
    """
    from repro.analysis.serialize import execution_from_dict

    out: Dict[int, Union[RunResult, FailedTrial]] = {}
    if not os.path.exists(path):
        return out
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                index = int(record["index"])
                if not 0 <= index < len(fingerprints):
                    continue
                if record.get("fingerprint") != fingerprints[index]:
                    continue
                if record.get("status") == "ok":
                    out[index] = execution_from_dict(record["result"])
                elif record.get("status") == "failed":
                    out[index] = FailedTrial(
                        index=index,
                        fingerprint=fingerprints[index],
                        error_type=str(record.get("error_type", "Unknown")),
                        error=str(record.get("error", "")),
                        attempts=int(record.get("attempts", 1)),
                        timed_out=bool(record.get("timed_out", False)),
                    )
            except Exception:
                continue  # corrupt line: re-run that trial
    return out


def _open_checkpoint(path: str):
    """Open the checkpoint for appending.  A kill can leave the last
    record without its newline; the first new record then starts on a
    line of its own instead of being glued onto the torn one (and lost
    with it on the next resume)."""
    writer = open(path, "a", encoding="utf-8")
    if writer.tell():
        with open(path, "rb") as handle:
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                writer.write("\n")
    return writer


class TrialRunner:
    """Run trial specs, fanning across worker processes when ``jobs > 1``.

    Results always come back in spec order, and are bit-identical to
    inline execution (each trial is a pure function of its spec).
    ``jobs=1`` runs inline; when a worker dies or cannot be forked,
    execution degrades gracefully to inline.

    Setting any of ``timeout`` (per-trial wall-clock seconds),
    ``retries`` (bounded retry of timed-out / transiently-dead
    attempts, with ``backoff * 2**attempt`` seconds between them) or
    ``checkpoint`` (JSONL resume file) switches :meth:`map` to the
    resilient mode documented in the module docstring; the result list
    may then contain :class:`FailedTrial` records in the failed trials'
    slots.

    ``batch_sweep`` toggles batch-sweep dispatch (result-preserving;
    the knob exists for benchmarking).

    ``on_result`` and ``cancel`` are the long-lived-owner hooks (module
    docstring): a per-trial progress callback
    ``(index, outcome, resumed)`` and a :class:`threading.Event` whose
    setting makes the sweep stop and raise :class:`SweepCancelled`.
    ``deadline`` is the same unwind on a clock instead of an event: an
    absolute ``time.time()`` timestamp after which the sweep stops with
    ``SweepCancelled(reason="deadline")`` at the next trial boundary.
    None of the three changes any result.
    """

    def __init__(
        self,
        jobs: Optional[int] = 1,
        *,
        timeout: Optional[float] = None,
        retries: int = 0,
        backoff: float = 0.1,
        checkpoint: Optional[str] = None,
        batch_sweep: bool = True,
        on_result: Optional[OnResult] = None,
        cancel: Optional[threading.Event] = None,
        deadline: Optional[float] = None,
    ):
        self.jobs = resolve_jobs(jobs)
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.checkpoint = None if checkpoint is None else str(checkpoint)
        self.batch_sweep = bool(batch_sweep)
        self.on_result = on_result
        self.cancel = cancel
        if deadline is not None:
            deadline = float(deadline)
        self.deadline = deadline
        self._sigterm: Optional[_SigtermFlag] = None

    @property
    def resilient(self) -> bool:
        return (
            self.timeout is not None
            or self.retries > 0
            or self.checkpoint is not None
        )

    # ------------------------------------------------------------------
    # long-lived-owner hooks
    # ------------------------------------------------------------------
    def _notify(self, index: int, outcome, resumed: bool = False) -> None:
        if self.on_result is not None:
            self.on_result(index, outcome, resumed)

    def _cancel_reason(self) -> Optional[str]:
        if self._sigterm is not None and self._sigterm.signum is not None:
            return "sigterm"
        if self.cancel is not None and self.cancel.is_set():
            return "cancel"
        if self.deadline is not None and time.time() > self.deadline:
            return "deadline"
        return None

    def _check_cancel(self) -> None:
        reason = self._cancel_reason()
        if reason == "sigterm":
            raise SweepInterrupted(self._sigterm.signum)
        if reason == "cancel":
            raise SweepCancelled("sweep cancelled by owner")
        if reason == "deadline":
            raise SweepCancelled("sweep deadline exceeded", reason="deadline")

    @contextlib.contextmanager
    def _deferred_sigterm(self):
        """Defer ``SIGTERM`` to the cancel safe points for the block.

        Installed only in the main thread (signal handlers cannot be set
        elsewhere) and only when the signal's disposition is the default
        (an embedding application that installed its own handler — the
        serve control plane does — keeps it).  A signal that lands after
        the last safe point still ends the sweep when the block exits.
        ``SIGINT`` needs no deferral: ``KeyboardInterrupt`` already
        unwinds ``finally`` blocks.
        """
        if threading.current_thread() is not threading.main_thread():
            yield
            return
        try:
            previous = signal.getsignal(signal.SIGTERM)
        except (ValueError, OSError):  # pragma: no cover - exotic platform
            yield
            return
        if previous is not signal.SIG_DFL:
            yield
            return
        self._sigterm = _SigtermFlag()
        signal.signal(signal.SIGTERM, self._sigterm.handle)
        try:
            yield
            if self._sigterm.signum is not None:
                raise SweepInterrupted(self._sigterm.signum)
        finally:
            signal.signal(signal.SIGTERM, previous)
            self._sigterm.close()
            self._sigterm = None

    def map(
        self, specs: Sequence[TrialSpec]
    ) -> List[Union[RunResult, FailedTrial]]:
        """Execute ``specs`` and return their results, in order.

        When a tracer / metrics registry is ambiently installed
        (:func:`repro.observability.use_tracer` /
        :func:`~repro.observability.use_registry` — the CLI's
        ``--trace`` / ``--metrics``), traced trials collect span
        fragments in their workers and the runner grafts them into the
        tracer here in the parent; metrics are recorded entirely
        parent-side from the results (counters from the summary
        fields, latency from the engine-stamped ``elapsed``).  Both
        happen *in spec order*, so traces and counter exports are
        deterministic for any ``jobs``.  Results themselves stay
        bit-identical to an unobserved run.
        """
        from repro.observability import metrics as _metrics
        from repro.observability import tracing as _tracing

        specs = list(specs)
        tracer = _tracing.current_tracer()
        registry = _metrics.current_registry()
        traced = tracer is not None
        self._check_cancel()

        # batch-sweep dispatch (parent-side, result-preserving;
        # per-trial observation modes bypass it visibly)
        batched: Dict[int, RunResult] = {}
        if self.batch_sweep and len(specs) > 1:
            from repro.parallel import batch_sweep as _batch_sweep

            if self.resilient or traced:
                _batch_sweep.record_fallback(
                    "resilient" if self.resilient else "traced"
                )
            else:
                batched = _batch_sweep.dispatch_groups(specs)
        for index in sorted(batched):
            self._notify(index, batched[index])

        if self.resilient:
            # batching never applies here, so indices line up; a
            # SIGTERM unwinds through the scheduler's finally (workers
            # killed, checkpoint closed) instead of killing us cold
            with self._deferred_sigterm():
                outcomes, attempts, resumed = self._map_resilient(
                    specs, traced=traced
                )
        else:
            rest_indices = [i for i in range(len(specs)) if i not in batched]
            rest_outcomes = iter(
                self._map_plain(
                    [specs[i] for i in rest_indices],
                    traced=traced,
                    indices=rest_indices,
                )
            )
            outcomes = [
                batched[i] if i in batched else next(rest_outcomes)
                for i in range(len(specs))
            ]
            attempts, resumed = {}, frozenset()
        if traced:
            _graft_trial_spans(tracer, outcomes, attempts, resumed)
        if registry is not None:
            _record_trial_metrics(registry, outcomes, attempts, resumed)
        return outcomes

    def _map_plain(
        self,
        specs: List[TrialSpec],
        *,
        traced: bool,
        indices: Sequence[int],
    ) -> List[RunResult]:
        """``indices`` maps positions in ``specs`` back to positions in
        the caller's full spec list (batch-sweep dispatch may have
        answered some up front) — it labels ``on_result`` calls only."""
        specs = _prepare_specs(specs, traced=traced)
        outcomes: Dict[int, RunResult] = {}

        def finish(j: int, outcome: RunResult) -> None:
            outcomes[j] = outcome
            self._notify(indices[j], outcome)

        if self.jobs > 1 and len(specs) > 1:
            pending = deque((j, 0) for j in range(len(specs)))
            errors: Dict[int, BaseException] = {}

            def record(j: int, payload, attempts: int) -> None:
                if payload[0] == "ok":
                    finish(j, payload[1])
                elif payload[0] == "error":
                    # like pool.map: dispatch nothing more, let the
                    # trials in flight finish, raise the lowest index's
                    errors[j] = (
                        payload[3]
                        if payload[3] is not None
                        else RuntimeError(f"{payload[1]}: {payload[2]}")
                    )
                    pending.clear()
                else:
                    raise _WorkerLost(payload[2])

            _preload(specs)
            try:
                self._run_scheduler(specs, pending, record)
            except (_WorkerLost, OSError) as exc:
                # the trials are side-effect free, so running the
                # remainder inline is safe (results already notified
                # are kept)
                warnings.warn(
                    f"worker processes failed ({exc!r}); falling back to "
                    "inline execution",
                    RuntimeWarning,
                    stacklevel=3,
                )
            else:
                if errors:
                    raise errors[min(errors)]
        for j, spec in enumerate(specs):
            if j not in outcomes:
                self._check_cancel()
                finish(j, _execute_local(spec))
        return [outcomes[j] for j in range(len(specs))]

    def _map_resilient(
        self, specs: List[TrialSpec], *, traced: bool = False
    ) -> Tuple[
        List[Union[RunResult, FailedTrial]], Dict[int, int], frozenset
    ]:
        """Returns ``(outcomes, attempts made per executed index,
        checkpoint-resumed indices)``.  Fingerprints come from the
        *original* specs — the trace flag is observation-only and must
        not invalidate resumes."""
        fingerprints = [spec_fingerprint(spec) for spec in specs]
        run_specs = _prepare_specs(specs, traced=traced)
        _preload(specs)
        results: Dict[int, Union[RunResult, FailedTrial]] = {}
        attempts: Dict[int, int] = {}
        resumed: frozenset = frozenset()
        writer = None
        if self.checkpoint is not None:
            loaded = _load_checkpoint(self.checkpoint, fingerprints)
            results.update(loaded)
            resumed = frozenset(loaded)
            for index in sorted(loaded):
                self._notify(index, loaded[index], resumed=True)
            writer = _open_checkpoint(self.checkpoint)

        def record(index: int, payload, made: int) -> None:
            if payload[0] == "ok":
                outcome = payload[1]
            else:
                outcome = FailedTrial(
                    index=index,
                    fingerprint=fingerprints[index],
                    error_type=payload[1],
                    error=payload[2],
                    attempts=made,
                    timed_out=payload[:2] == ("lost", "Timeout"),
                )
            results[index] = outcome
            attempts[index] = made
            if writer is not None:
                # one-shot dumps runs the C encoder; json.dump does not
                writer.write(
                    json.dumps(
                        _checkpoint_record(index, fingerprints[index], outcome)
                    )
                    + "\n"
                )
                writer.flush()
            self._notify(index, outcome)

        try:
            self._run_scheduler(
                run_specs,
                deque((i, 0) for i in range(len(specs)) if i not in results),
                record,
            )
        finally:
            if writer is not None:
                writer.close()
        return [results[i] for i in range(len(specs))], attempts, resumed

    # ------------------------------------------------------------------
    # the worker scheduler
    # ------------------------------------------------------------------
    def _run_scheduler(self, specs, pending, record) -> None:
        """Run ``specs[index]`` for each ``(index, attempt)`` of the
        ``pending`` deque on persistent forked workers (module
        docstring, "Worker processes").

        ``record(index, payload, attempts)`` receives each trial's final
        answer: ``("ok", result)``; ``("error", type name, message,
        exception or None)`` for the trial's own exception; or
        ``("lost", "Timeout" | "WorkerDeath", message)`` once the
        trial's retries are used up.  The caller owns ``pending`` and
        may clear it to stop dispatching.  However the loop ends, every
        worker is stopped and reaped."""
        ctx = multiprocessing.get_context("fork")
        workers: Dict[object, _Worker] = {}  # parent conn -> worker
        backing_off: List[Tuple[float, int, int]] = []  # (ready_at, idx, att)
        wake = [] if self._sigterm is None else [self._sigterm]

        def fork() -> _Worker:
            conn, child = ctx.Pipe()
            process = ctx.Process(
                target=_worker_main,
                args=(child, specs, [conn, *workers]),
                daemon=True,
            )
            try:
                process.start()
            except BaseException:
                conn.close()
                raise
            finally:
                child.close()
            worker = workers[conn] = _Worker(process, conn)
            return worker

        def lose(worker: _Worker, error_type: str, message: str) -> None:
            # kill/reap the worker; charge the attempt to its running
            # trial only and put the trial queued behind it back
            del workers[worker.conn]
            _stop_workers([worker])
            if not worker.queue:
                return
            (index, attempt), *queued = worker.queue
            pending.extendleft(reversed(queued))
            if attempt < self.retries:
                ready_at = time.monotonic() + self.backoff * (2**attempt)
                backing_off.append((ready_at, index, attempt + 1))
                backing_off.sort()
            else:
                record(index, ("lost", error_type, message), attempt + 1)

        def start_head(worker: _Worker) -> None:
            worker.deadline = (
                None if self.timeout is None else time.monotonic() + self.timeout
            )

        try:
            while True:
                self._check_cancel()
                now = time.monotonic()
                while backing_off and backing_off[0][0] <= now:
                    _, index, attempt = backing_off.pop(0)
                    pending.append((index, attempt))
                while pending:
                    worker = min(
                        workers.values(), key=lambda w: len(w.queue), default=None
                    )
                    if worker is None or (worker.queue and len(workers) < self.jobs):
                        worker = fork()
                    elif len(worker.queue) >= _QUEUE_DEPTH:
                        break
                    item = pending.popleft()
                    try:
                        worker.conn.send(item[0])
                    except OSError:  # it died
                        pending.appendleft(item)
                        lose(worker, "WorkerDeath", "worker process died")
                        continue
                    worker.queue.append(item)
                    if len(worker.queue) == 1:
                        start_head(worker)
                busy = [w for w in workers.values() if w.queue]
                if not busy:
                    if not backing_off:
                        return
                    # everything is backing off: sleep to the earliest
                    # retry (a deferred SIGTERM cuts the sleep short)
                    _connection_wait(
                        wake, timeout=max(0.0, backing_off[0][0] - now)
                    )
                    continue
                wake_points = [w.deadline for w in busy if w.deadline is not None]
                if backing_off:
                    wake_points.append(backing_off[0][0])
                ready = set(
                    _connection_wait(
                        [w.conn for w in workers.values()]
                        + [w.process.sentinel for w in workers.values()]
                        + wake,
                        timeout=(
                            max(0.0, min(wake_points) - time.monotonic())
                            if wake_points
                            else None
                        ),
                    )
                )
                if self._sigterm is not None and self._sigterm in ready:
                    self._sigterm.drain()  # the next safe point raises
                for worker in list(workers.values()):
                    if worker.conn in ready:
                        try:
                            payload = worker.conn.recv()
                        except (EOFError, OSError):
                            lose(worker, "WorkerDeath", "worker process died")
                            continue
                        index, attempt = worker.queue.popleft()
                        start_head(worker)
                        record(index, payload, attempt + 1)
                    elif worker.process.sentinel in ready:
                        lose(worker, "WorkerDeath", "worker process died")
                now = time.monotonic()
                for worker in list(workers.values()):
                    expired = worker.deadline is not None and worker.deadline <= now
                    if worker.queue and expired:
                        lose(
                            worker,
                            "Timeout",
                            f"trial exceeded {self.timeout}s wall clock",
                        )
        finally:
            # however the loop ends (done, cancel, SIGTERM, a raising
            # callback), no worker outlives the sweep
            _stop_workers(list(workers.values()))


# ----------------------------------------------------------------------
# observation plumbing (tracing + metrics; no-ops when neither is on)
# ----------------------------------------------------------------------
def _prepare_specs(
    specs: List[TrialSpec], *, traced: bool
) -> List[TrialSpec]:
    """Stamp the trace flag onto the specs actually dispatched.  The
    originals stay untouched — fingerprints, and therefore resume
    checkpoints, are computed from them."""
    if not traced:
        return specs
    return [replace(spec, trace=True) for spec in specs]


def _execute_local(spec: TrialSpec) -> RunResult:
    """Inline execution of a (possibly observation-stamped) spec.

    Suppresses the ambient tracer for traced specs so the trial builds
    a local fragment exactly as a worker process would — ``jobs=1`` and
    ``jobs=N`` then produce identical span structure, grafted by the
    same code path."""
    if spec.trace:
        from repro.observability import tracing as _tracing

        if _tracing.current_tracer() is not None:
            with _tracing.use_tracer(None):
                return execute_trial(spec)
    return execute_trial(spec)


def _graft_trial_spans(tracer, outcomes, attempts, resumed) -> None:
    """Attach each trial's span to the sweep tracer, in spec order.

    Executed trials contribute the fragment their worker recorded
    (annotated with the attempt count when the resilient scheduler ran
    them more than once); failed and checkpoint-resumed trials get a
    point span so the timeline still accounts for every slot."""
    for index, outcome in enumerate(outcomes):
        attrs: Dict[str, object] = {"trial": index}
        made = attempts.get(index)
        if made is not None and made > 1:
            attrs["attempts"] = made
        if isinstance(outcome, FailedTrial):
            now = tracer.now()
            tracer.record(
                f"trial:{index}",
                now,
                now,
                failed=outcome.error_type,
                attempts=outcome.attempts,
                timed_out=outcome.timed_out,
                **attrs,
            )
            continue
        if index in resumed:
            # the checkpointed fragment (if any) was recorded by an
            # earlier invocation — its wall-clock belongs to that run's
            # timeline, so note the resume instead of grafting it
            outcome.trace = None
            now = tracer.now()
            tracer.record(f"trial:{index}", now, now, resumed=True, **attrs)
            continue
        if outcome.trace:
            for fragment in outcome.trace:
                tracer.graft(fragment, **attrs)
            outcome.trace = None


def _record_trial_metrics(registry, outcomes, attempts, resumed) -> None:
    """Fold the batch into the ambient metrics registry, in spec order
    (deterministic for any ``jobs``)."""
    from repro.observability.metrics import (
        record_failed_trial,
        record_run_result,
    )

    executed = len(outcomes) - len(resumed)
    if executed:
        registry.counter(
            "repro_trials_started_total",
            "Trials dispatched for execution (checkpoint-resumed "
            "trials excluded)",
        ).inc(executed)
    if resumed:
        registry.counter(
            "repro_trials_resumed_total",
            "Trials restored from a resume checkpoint instead of re-running",
        ).inc(len(resumed))
    for index, outcome in enumerate(outcomes):
        if isinstance(outcome, FailedTrial):
            record_failed_trial(registry, outcome)
            continue
        record_run_result(registry, outcome)
        extra = attempts.get(index, 1) - 1
        if extra > 0:
            registry.counter(
                "repro_trial_retries_total", "Extra attempts made for trials"
            ).inc(extra)


def run_trials(
    specs: Sequence[TrialSpec],
    *,
    jobs: Optional[int] = 1,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.1,
    checkpoint: Optional[str] = None,
    batch_sweep: bool = True,
    on_result: Optional[OnResult] = None,
    cancel: Optional[threading.Event] = None,
    deadline: Optional[float] = None,
) -> List[Union[RunResult, FailedTrial]]:
    """Convenience wrapper: ``TrialRunner(...).map(specs)``.  The
    ``timeout``/``retries``/``backoff``/``checkpoint`` knobs select the
    resilient mode; ``batch_sweep`` toggles batch-sweep dispatch;
    ``on_result``/``cancel``/``deadline`` are the
    long-lived-owner hooks (see :class:`TrialRunner`)."""
    return TrialRunner(
        jobs,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        checkpoint=checkpoint,
        batch_sweep=batch_sweep,
        on_result=on_result,
        cancel=cancel,
        deadline=deadline,
    ).map(specs)
