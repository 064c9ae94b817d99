"""Fan independent protocol trials across worker processes.

The unit of work is a :class:`TrialSpec` — plain, picklable data that
fully determines one protocol run.  :func:`execute_trial` is a pure
function of the spec: protocols are rebuilt by *name* inside the worker
(rule closures don't pickle) and any randomness flows from the spec's
integer ``seed`` through :mod:`repro.rng`, so a trial's result is
bit-identical whether it runs inline, in this process, or in any worker
of any pool.  That property is what lets the experiments keep their
"reproducible from one seed" contract while scaling across cores; it is
pinned by ``tests/test_parallel.py``.

Resilient execution
-------------------
Long sweeps die to one hung trial or one OOM-killed worker; the runner
therefore has a second, *resilient* mode, selected by any of the
``timeout`` / ``retries`` / ``checkpoint`` knobs:

* each trial attempt runs in its own worker process with a wall-clock
  ``timeout``; an expired attempt is terminated;
* timed-out and transiently-dead attempts are retried up to ``retries``
  times with exponential backoff (``backoff * 2**attempt`` seconds);
  a trial's *own* exception is deterministic and is never retried;
* a trial that exhausts its attempts becomes a :class:`FailedTrial`
  record in the result list instead of aborting the batch;
* with ``checkpoint=PATH``, every completed trial is appended to a
  JSONL file keyed by ``(index, spec fingerprint)``; re-running with
  the same path resumes a killed sweep, executing only the missing
  trials (stale or corrupt lines are ignored and re-run).

Without any of those knobs, :meth:`TrialRunner.map` is the original
pool path, byte-for-byte.

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
  dispatching, terminates in-flight resilient attempts, and raises
  :class:`SweepCancelled`.  Work already checkpointed stays
  checkpointed, so a cancelled job resumes exactly where it stopped.

In resilient mode the runner additionally defers a ``SIGTERM`` (main
thread, default disposition only): the handler records it, and the next
cancel safe point raises :class:`SweepInterrupted`, so a killed process
unwinds through its ``finally`` blocks: the checkpoint JSONL is flushed
and closed, shared-memory segments are unlinked, and the exit code is
the conventional ``128 + signum``.

Sweep fast paths
----------------
Two transparent optimisations sit in front of both modes, each
preserving bit-identical results (pinned by
``tests/test_engine_equivalence.py``):

* **batch-sweep dispatch** (:mod:`repro.parallel.batch_sweep`): groups
  of same-(protocol, graph, budget) synchronous specs with no
  per-trial observation execute as one ``(k, n)`` batch-kernel call in
  the parent instead of ``k`` separate runs.  Disabled wholesale under
  tracing and in resilient mode (both need per-trial execution), and
  visibly so — see ``repro_batch_sweep_fallbacks_total``.
* **zero-copy graph handoff** (:mod:`repro.parallel.shared_graph`):
  when trials do cross a process boundary, each distinct graph ships
  once — large graphs as CSR buffers in shared memory that workers
  attach to, small ones as a memoized pickle payload deserialized once
  per worker — instead of being re-pickled into every spec.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
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

from repro.engine.registry import PROTOCOLS, register_protocol
from repro.engine.result import RunResult
from repro.graphs.graph import Graph
from repro.types import NodeId

__all__ = [
    "PROTOCOLS",
    "BATCH_SWEEP_DEFAULT",
    "SHARED_GRAPHS_DEFAULT",
    "FailedTrial",
    "SweepCancelled",
    "SweepInterrupted",
    "TrialRunner",
    "TrialSpec",
    "execute_trial",
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
    and closed, shared-memory segments unlinked — before the process
    exits with the conventional ``128 + signum`` status."""

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


#: Process-wide defaults for the sweep fast paths, read by
#: :class:`TrialRunner` when the corresponding keyword is omitted.  The
#: CLI's ``--no-batch-sweep`` / ``--shared-graphs`` flags set these so
#: every runner built downstream (experiments construct their own)
#: honours them.
BATCH_SWEEP_DEFAULT: bool = True
SHARED_GRAPHS_DEFAULT: str = "auto"

_SHARED_GRAPH_POLICIES = {"auto": None, "always": True, "never": False}


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
        "nodes": [repr(n) for n in spec.graph.nodes],
        "edges": sorted(sorted(repr(x) for x in e) for e in spec.graph.edges),
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
    blob = json.dumps(payload, sort_keys=True, default=_fingerprint_canon)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class _TrialFailure:
    """Picklable wrapper tagging an exception as *raised by a trial*,
    as opposed to by the pool machinery.  Without the tag, a trial's
    own ``OSError``/``RuntimeError`` escaping ``pool.map`` is
    indistinguishable from pool death — and was silently swallowed by
    the inline-fallback path, re-running every trial (including the
    failing one, now raising from a misleading inline stack)."""

    __slots__ = ("error",)

    def __init__(self, error: BaseException) -> None:
        self.error = error


def _execute_trial_tagged(spec: TrialSpec):
    """Worker entry point: run the trial, tagging its own exceptions."""
    try:
        return execute_trial(spec)
    except Exception as exc:
        return _TrialFailure(exc)


def _resilient_worker(conn, spec: TrialSpec) -> None:
    """Worker entry point of the resilient mode: one attempt, one
    process.  Exceptions travel as ``(type name, message)`` strings —
    never pickled, so an unpicklable exception cannot kill the
    transport and masquerade as worker death."""
    # a forked worker inherits the parent's deferring SIGTERM handler;
    # terminate() must end the attempt outright
    with contextlib.suppress(ValueError):  # not the main thread
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _pin_worker_threads()
    try:
        payload = ("ok", execute_trial(spec))
    except Exception as exc:
        payload = ("error", type(exc).__name__, str(exc))
    try:
        conn.send(payload)
    except Exception:
        try:
            conn.send(
                ("error", "SerializationError", "result could not be pickled")
            )
        except Exception:  # pragma: no cover - pipe gone: parent sees EOF
            pass
    finally:
        conn.close()


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
# resilient-mode plumbing
# ----------------------------------------------------------------------
@dataclass
class _Attempt:
    """One in-flight worker process of the resilient scheduler."""

    index: int
    attempt: int  # 0-based attempt number
    process: object
    deadline: Optional[float]  # monotonic seconds, None = no timeout


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


class TrialRunner:
    """Run trial specs, fanning across processes when ``jobs > 1``.

    Results always come back in spec order, and are bit-identical to
    inline execution (each trial is a pure function of its spec).  When
    the pool cannot be used — ``jobs=1``, pickling trouble, or the pool
    dying mid-flight — execution degrades gracefully to inline.

    Setting any of ``timeout`` (per-trial wall-clock seconds),
    ``retries`` (bounded retry of timed-out / transiently-dead
    attempts, with ``backoff * 2**attempt`` seconds between them) or
    ``checkpoint`` (JSONL resume file) switches :meth:`map` to the
    resilient mode documented in the module docstring; the result list
    may then contain :class:`FailedTrial` records in the failed trials'
    slots.

    ``batch_sweep`` (default :data:`BATCH_SWEEP_DEFAULT`) toggles
    batch-sweep dispatch; ``shared_graphs`` — ``"auto"``, ``"always"``
    or ``"never"`` (default :data:`SHARED_GRAPHS_DEFAULT`) — selects
    how graphs ship to worker processes (shared-memory CSR vs memoized
    pickle; see :mod:`repro.parallel.shared_graph`).  Both fast paths
    are result-preserving; the knobs exist for benchmarking and for
    environments without a usable shared-memory filesystem.

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
        chunksize: Optional[int] = None,
        timeout: Optional[float] = None,
        retries: int = 0,
        backoff: float = 0.1,
        checkpoint: Optional[str] = None,
        batch_sweep: Optional[bool] = None,
        shared_graphs: Optional[str] = None,
        on_result: Optional[OnResult] = None,
        cancel: Optional[threading.Event] = None,
        deadline: Optional[float] = None,
    ):
        self.jobs = resolve_jobs(jobs)
        self.chunksize = chunksize
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.checkpoint = None if checkpoint is None else str(checkpoint)
        self.batch_sweep = (
            BATCH_SWEEP_DEFAULT if batch_sweep is None else bool(batch_sweep)
        )
        if shared_graphs is None:
            shared_graphs = SHARED_GRAPHS_DEFAULT
        if shared_graphs not in _SHARED_GRAPH_POLICIES:
            raise ValueError(
                f"shared_graphs must be one of "
                f"{sorted(_SHARED_GRAPH_POLICIES)}, got {shared_graphs!r}"
            )
        self.shared_graphs = shared_graphs
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

        # ------------------------------------------------------------
        # fast path 1: batch-sweep dispatch (parent-side, result-
        # preserving; per-trial observation modes bypass it visibly)
        # ------------------------------------------------------------
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
        if batched:
            rest = [spec for i, spec in enumerate(specs) if i not in batched]
            rest_indices = [i for i in range(len(specs)) if i not in batched]
        else:
            rest = specs
            rest_indices = list(range(len(specs)))

        # ------------------------------------------------------------
        # fast path 2: per-sweep graph handoff for everything that will
        # cross a process boundary (resilient mode forks per attempt)
        # ------------------------------------------------------------
        store = None
        try:
            if rest and (
                self.resilient or (self.jobs > 1 and len(rest) > 1)
            ):
                from repro.parallel.shared_graph import SharedGraphStore

                store = SharedGraphStore(
                    _SHARED_GRAPH_POLICIES[self.shared_graphs]
                )
                rest = store.pack_specs(rest)
            if self.resilient:
                # batching never applies here, so indices line up; a
                # SIGTERM unwinds through the finally below (checkpoint
                # closed, segments unlinked) instead of killing us cold
                with self._deferred_sigterm():
                    outcomes, attempts, resumed = self._map_resilient(
                        rest, traced=traced
                    )
            else:
                rest_outcomes = self._map_plain(
                    rest, traced=traced, indices=rest_indices
                )
                attempts, resumed = {}, frozenset()
                if batched:
                    rest_iter = iter(rest_outcomes)
                    outcomes = [
                        batched[i] if i in batched else next(rest_iter)
                        for i in range(len(specs))
                    ]
                else:
                    outcomes = rest_outcomes
        finally:
            if store is not None:
                store.close()
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
        indices: Optional[Sequence[int]] = None,
    ) -> List[Union[RunResult, FailedTrial]]:
        """``indices`` maps positions in ``specs`` back to positions in
        the caller's full spec list (batch-sweep dispatch may have
        answered some up front) — it labels ``on_result`` calls only."""
        specs = _prepare_specs(specs, traced=traced)
        indices = list(indices) if indices is not None else list(range(len(specs)))
        if self.jobs <= 1 or len(specs) <= 1:
            outcomes = []
            for j, spec in enumerate(specs):
                self._check_cancel()
                outcome = _execute_local(spec)
                self._notify(indices[j], outcome)
                outcomes.append(outcome)
            return outcomes
        chunk = self.chunksize or max(1, len(specs) // (self.jobs * 4))
        outcomes: List[Union[RunResult, FailedTrial]] = []
        failure: Optional[_TrialFailure] = None
        try:
            with ProcessPoolExecutor(
                max_workers=min(self.jobs, len(specs)),
                initializer=_pin_worker_threads,
            ) as pool:
                # pool.map yields in spec order as chunks complete, so
                # progress streams without changing result order.  Trial
                # exceptions come back tagged as _TrialFailure and are
                # re-raised *outside* this try: an exception reaching
                # the except clause below really is pool machinery
                # failing — a trial's own OSError or RuntimeError must
                # propagate, not trigger the fallback (and must not be
                # mistaken for pool death by being raised in here).
                for outcome in pool.map(
                    _execute_trial_tagged, specs, chunksize=chunk
                ):
                    if self._cancel_reason() is not None:
                        pool.shutdown(wait=False, cancel_futures=True)
                        self._check_cancel()
                    if isinstance(outcome, _TrialFailure):
                        failure = outcome
                        pool.shutdown(wait=False, cancel_futures=True)
                        break
                    self._notify(indices[len(outcomes)], outcome)
                    outcomes.append(outcome)
        except SweepCancelled:
            raise
        except (BrokenProcessPool, OSError, RuntimeError) as exc:
            # Pool died (OOM kill, fork failure, interpreter without
            # multiprocessing support...): the trials are side-effect
            # free, so running the remainder inline is safe (results
            # already yielded — and notified — are kept).
            import warnings

            warnings.warn(
                f"process pool failed ({exc!r}); falling back to inline execution",
                RuntimeWarning,
                stacklevel=2,
            )
            for j in range(len(outcomes), len(specs)):
                self._check_cancel()
                outcome = _execute_local(specs[j])
                self._notify(indices[j], outcome)
                outcomes.append(outcome)
            return outcomes
        if failure is not None:
            raise failure.error
        return outcomes

    # ------------------------------------------------------------------
    # resilient mode
    # ------------------------------------------------------------------
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
            writer = open(self.checkpoint, "a", encoding="utf-8")
        try:
            self._run_scheduler(run_specs, fingerprints, results, writer, attempts)
        finally:
            if writer is not None:
                writer.close()
        return [results[i] for i in range(len(specs))], attempts, resumed

    def _run_scheduler(
        self, specs, fingerprints, results, writer, attempts=None
    ) -> None:
        ctx = multiprocessing.get_context()
        pending = deque(
            (i, 0) for i in range(len(specs)) if i not in results
        )
        backing_off: List[Tuple[float, int, int]] = []  # (ready_at, idx, att)
        running: Dict[object, _Attempt] = {}  # parent conn -> attempt

        def record(index: int, outcome, made: int = 1) -> None:
            results[index] = outcome
            if attempts is not None:
                attempts[index] = made
            if writer is not None:
                json.dump(
                    _checkpoint_record(index, fingerprints[index], outcome),
                    writer,
                )
                writer.write("\n")
                writer.flush()
            self._notify(index, outcome)

        def retry_or_fail(att: _Attempt, error_type: str, message: str) -> None:
            timed_out = error_type == "Timeout"
            if att.attempt < self.retries:
                ready_at = time.monotonic() + self.backoff * (2**att.attempt)
                backing_off.append((ready_at, att.index, att.attempt + 1))
                backing_off.sort()
            else:
                record(
                    att.index,
                    FailedTrial(
                        index=att.index,
                        fingerprint=fingerprints[att.index],
                        error_type=error_type,
                        error=message,
                        attempts=att.attempt + 1,
                        timed_out=timed_out,
                    ),
                    made=att.attempt + 1,
                )

        def reap(att: _Attempt, kill: bool = False) -> None:
            if kill:
                att.process.terminate()
                att.process.join(1.0)
                if att.process.is_alive():  # pragma: no cover - stubborn
                    att.process.kill()
            att.process.join()

        try:
            self._scheduler_loop(
                ctx,
                specs,
                fingerprints,
                pending,
                backing_off,
                running,
                record,
                retry_or_fail,
                reap,
            )
        finally:
            # exceptional unwind (cancel, SIGTERM, a raising callback):
            # in-flight attempts must not outlive the sweep — their
            # results have nowhere to land and the worker processes
            # would keep shared-memory attachments alive
            for conn, att in list(running.items()):
                reap(att, kill=True)
                conn.close()
            running.clear()

    def _scheduler_loop(
        self,
        ctx,
        specs,
        fingerprints,
        pending,
        backing_off,
        running,
        record,
        retry_or_fail,
        reap,
    ) -> None:
        while pending or backing_off or running:
            self._check_cancel()
            now = time.monotonic()
            while backing_off and backing_off[0][0] <= now:
                _, index, attempt = backing_off.pop(0)
                pending.append((index, attempt))
            while pending and len(running) < self.jobs:
                index, attempt = pending.popleft()
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                process = ctx.Process(
                    target=_resilient_worker,
                    args=(child_conn, specs[index]),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                started = time.monotonic()
                running[parent_conn] = _Attempt(
                    index=index,
                    attempt=attempt,
                    process=process,
                    deadline=(
                        None if self.timeout is None else started + self.timeout
                    ),
                )
            wake = [] if self._sigterm is None else [self._sigterm]
            if not running:
                # everything is backing off: sleep to the earliest retry
                # (a deferred SIGTERM cuts the sleep short)
                _connection_wait(
                    wake, timeout=max(0.0, backing_off[0][0] - time.monotonic())
                )
                continue
            wake_points = [
                att.deadline for att in running.values() if att.deadline is not None
            ]
            if backing_off:
                wake_points.append(backing_off[0][0])
            wait_for = (
                None
                if not wake_points
                else max(0.0, min(wake_points) - time.monotonic())
            )
            ready = _connection_wait(list(running) + wake, timeout=wait_for)
            for conn in ready:
                if conn is self._sigterm:
                    conn.drain()  # the next safe point raises
                    continue
                att = running.pop(conn)
                try:
                    payload = conn.recv()
                except (EOFError, OSError):
                    payload = None  # worker died before sending
                conn.close()
                reap(att)
                if payload is None:
                    retry_or_fail(att, "WorkerDeath", "worker process died")
                elif payload[0] == "ok":
                    record(att.index, payload[1], made=att.attempt + 1)
                else:
                    # the trial's own exception: deterministic, no retry
                    record(
                        att.index,
                        FailedTrial(
                            index=att.index,
                            fingerprint=fingerprints[att.index],
                            error_type=payload[1],
                            error=payload[2],
                            attempts=att.attempt + 1,
                        ),
                        made=att.attempt + 1,
                    )
            now = time.monotonic()
            for conn, att in list(running.items()):
                if att.deadline is not None and att.deadline <= now:
                    del running[conn]
                    reap(att, kill=True)
                    conn.close()
                    retry_or_fail(
                        att,
                        "Timeout",
                        f"trial exceeded {self.timeout}s wall clock",
                    )


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
    chunksize: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff: float = 0.1,
    checkpoint: Optional[str] = None,
    batch_sweep: Optional[bool] = None,
    shared_graphs: Optional[str] = None,
    on_result: Optional[OnResult] = None,
    cancel: Optional[threading.Event] = None,
    deadline: Optional[float] = None,
) -> List[Union[RunResult, FailedTrial]]:
    """Convenience wrapper: ``TrialRunner(...).map(specs)``.  The
    ``timeout``/``retries``/``backoff``/``checkpoint`` knobs select the
    resilient mode; ``batch_sweep``/``shared_graphs`` tune the sweep
    fast paths; ``on_result``/``cancel``/``deadline`` are the
    long-lived-owner hooks (see :class:`TrialRunner`)."""
    return TrialRunner(
        jobs,
        chunksize=chunksize,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
        checkpoint=checkpoint,
        batch_sweep=batch_sweep,
        shared_graphs=shared_graphs,
        on_result=on_result,
        cancel=cancel,
        deadline=deadline,
    ).map(specs)
