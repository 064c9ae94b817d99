"""The worker scheduler behind every multi-process sweep.

:meth:`repro.parallel.TrialRunner.map` forks persistent workers that
inherit the spec list and receive spec indices, one queued behind the
trial each is running.  These tests pin what that buys and what it must
not break: one worker serves a whole ``jobs=1`` resilient sweep, a
crash charges only the trial that was running (the one queued behind
it re-runs elsewhere), a plain sweep that loses a worker degrades to
inline with a ``RuntimeWarning``, and no worker outlives its sweep
however the sweep ends: completed, raised, crashed, SIGTERMed (the
checkpoint flushed, exit 143) or with its parent SIGKILLed (the workers
exit on their own).

The signal tests hold a sweep mid-way without sleeping: their trials
take one byte from a *gate* pipe before they run
(:func:`_gate`), so a sweep with ``t`` bytes in its gate completes at
most ``t`` trials until the gate's write end is closed.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.core.faults import random_configuration
from repro.engine import make_protocol
from repro.errors import ExperimentError
from repro.graphs.generators import cycle_graph, erdos_renyi_graph
from repro.matching.smm import SynchronousMaximalMatching
from repro.parallel import (
    FailedTrial,
    SweepCancelled,
    TrialRunner,
    TrialSpec,
    live_workers,
    run_trials,
)
from repro.parallel.trial_runner import PROTOCOLS, register_protocol
from repro.rng import ensure_rng

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: the test process; forked workers see a different ``os.getpid()``
PARENT_PID = os.getpid()

#: where :class:`_PidMatching` appends the pid of the process running it
PID_LOG = {"path": None}


class _PidMatching(SynchronousMaximalMatching):
    """SMM that records which process evaluates its rules."""

    def enabled_rule(self, view):
        with open(PID_LOG["path"], "a", encoding="ascii") as handle:
            handle.write(f"{os.getpid()}\n")
        return super().enabled_rule(view)


class _CrashingMatching(SynchronousMaximalMatching):
    """SMM that kills whichever process evaluates its rules."""

    def enabled_rule(self, view):
        os._exit(13)


class _CrashInWorkerMatching(SynchronousMaximalMatching):
    """SMM that kills a worker process but runs normally in the test
    process, so a sweep that degrades to inline still completes."""

    def enabled_rule(self, view):
        if os.getpid() != PARENT_PID:
            os._exit(13)
        return super().enabled_rule(view)


#: how long one :class:`_NappingMatching` trial sleeps
NAP = {"seconds": 0.1}


class _NappingMatching(SynchronousMaximalMatching):
    """SMM that sleeps ``NAP["seconds"]`` once per trial."""

    def enabled_rule(self, view):
        if not getattr(self, "_napped", False):
            self._napped = True
            time.sleep(NAP["seconds"])
        return super().enabled_rule(view)


@pytest.fixture
def protocols():
    """Register the fixture protocols for one test."""
    table = {
        "pid-test": _PidMatching,
        "crash-test": _CrashingMatching,
        "crash-in-worker-test": _CrashInWorkerMatching,
        "napping-test": _NappingMatching,
    }
    for key, factory in table.items():
        register_protocol(key, factory)
    try:
        yield
    finally:
        for key in table:
            del PROTOCOLS[key]


def _gate(tokens):
    """A gate pipe holding ``tokens`` bytes: ``(read_fd, write_fd)``."""
    read, write = os.pipe()
    os.write(write, b"x" * tokens)
    return read, write


#: the gated SMM of the subprocess sweeps: its first rule evaluation in
#: a trial takes one byte from the gate (fd ``GATE``), blocking while the
#: gate is empty; EOF (the write end closed) opens it for good
_GATED = """
import os
from repro.matching.smm import SynchronousMaximalMatching

class GatedMatching(SynchronousMaximalMatching):
    def enabled_rule(self, view):
        if not getattr(self, "_gated", False):
            self._gated = True
            os.read(GATE, 1)
        return super().enabled_rule(view)
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ["src", env.get("PYTHONPATH", "")] if p
    )
    return env


def _specs(protocol="smm", count=4, n=6):
    return [TrialSpec(protocol, cycle_graph(n), seed=s) for s in range(count)]


def _finals(results):
    return [(r.final, r.rounds, r.moves) for r in results]


class TestPersistentWorkers:
    def test_resilient_jobs1_sweep_forks_one_worker(self, protocols, tmp_path):
        PID_LOG["path"] = str(tmp_path / "pids.txt")
        results = TrialRunner(jobs=1, retries=1).map(_specs("pid-test", 10))
        assert not any(isinstance(r, FailedTrial) for r in results)
        pids = set((tmp_path / "pids.txt").read_text().split())
        assert len(pids) == 1
        assert str(PARENT_PID) not in pids

    def test_plain_jobs2_sweep_forks_two_workers(self, protocols, tmp_path):
        PID_LOG["path"] = str(tmp_path / "pids.txt")
        specs = _specs("pid-test", 10)
        pooled = run_trials(specs, jobs=2)
        pids = set((tmp_path / "pids.txt").read_text().split())
        assert len(pids) == 2
        assert str(PARENT_PID) not in pids
        assert _finals(pooled) == _finals(run_trials(specs, jobs=1))

    def test_crash_charges_only_the_running_trial(self, protocols):
        # jobs=1: the crash runs first and the good trial sits queued
        # behind it on the same worker when the worker dies
        good = _specs(count=2)
        results = TrialRunner(jobs=1, retries=0, timeout=60).map(
            [TrialSpec("crash-test", cycle_graph(6)), *good]
        )
        failure = results[0]
        assert isinstance(failure, FailedTrial)
        assert failure.error_type == "WorkerDeath"
        assert failure.attempts == 1
        assert _finals(results[1:]) == _finals(run_trials(good))

    def test_plain_worker_death_degrades_inline(self, protocols):
        specs = _specs(count=2) + _specs("crash-in-worker-test", 2)
        with pytest.warns(RuntimeWarning, match="falling back to inline"):
            results = run_trials(specs, jobs=2)
        # the crash protocol is SMM when run in this process
        assert _finals(results) == _finals(
            run_trials(_specs(count=2) + _specs(count=2))
        )
        assert multiprocessing.active_children() == []

    def test_queued_trial_clock_starts_at_its_turn(self, protocols):
        # each trial naps half the timeout, so the pair queued on one
        # worker outlasts it: the second trial's clock starts when the
        # first one's result arrives, so neither times out
        NAP["seconds"] = 0.5
        try:
            results = TrialRunner(jobs=1, timeout=1.0).map(
                _specs("napping-test", 2)
            )
        finally:
            NAP["seconds"] = 0.1
        assert not any(isinstance(r, FailedTrial) for r in results)


class TestNoWorkerOutlivesItsSweep:
    """``multiprocessing.active_children()`` is empty however a sweep
    ends."""

    def _assert_clean(self):
        assert multiprocessing.active_children() == []
        assert live_workers() == []

    def test_completion(self):
        run_trials(_specs(count=6), jobs=2)
        self._assert_clean()
        run_trials(_specs(count=6), jobs=2, retries=1)
        self._assert_clean()

    def test_trial_exception(self):
        specs = _specs(count=3) + [TrialSpec("no-such-protocol", cycle_graph(4))]
        with pytest.raises(ExperimentError):
            run_trials(specs, jobs=2)
        self._assert_clean()

    def test_lowest_index_exception_wins(self):
        specs = [
            TrialSpec("smm", cycle_graph(4)),
            TrialSpec("no-such-protocol", cycle_graph(4)),
            TrialSpec("also-missing", cycle_graph(4)),
        ]
        with pytest.raises(ExperimentError, match="no-such-protocol"):
            run_trials(specs, jobs=2)
        self._assert_clean()

    @pytest.mark.parametrize("resilient", (False, True))
    def test_cancel(self, protocols, resilient):
        cancel = threading.Event()
        runner = TrialRunner(
            jobs=2,
            retries=1 if resilient else 0,
            batch_sweep=False,
            cancel=cancel,
            on_result=lambda *_: cancel.set(),
        )
        with pytest.raises(SweepCancelled) as excinfo:
            runner.map(_specs("napping-test", 8))
        assert excinfo.value.reason == "cancel"
        self._assert_clean()

    @pytest.mark.parametrize("resilient", (False, True))
    def test_deadline(self, protocols, resilient):
        holder = {}

        def expire(*_):
            holder["runner"].deadline = time.time() - 1.0

        runner = holder["runner"] = TrialRunner(
            jobs=2,
            retries=1 if resilient else 0,
            batch_sweep=False,
            deadline=time.time() + 3600.0,
            on_result=expire,
        )
        with pytest.raises(SweepCancelled) as excinfo:
            runner.map(_specs("napping-test", 8))
        assert excinfo.value.reason == "deadline"
        self._assert_clean()

    def test_timeout(self, protocols):
        NAP["seconds"] = 5.0
        try:
            results = TrialRunner(jobs=2, timeout=0.5).map(
                _specs(count=2) + _specs("napping-test", 1)
            )
        finally:
            NAP["seconds"] = 0.1
        assert results[2].error_type == "Timeout" and results[2].timed_out
        assert not any(isinstance(r, FailedTrial) for r in results[:2])
        self._assert_clean()

    #: a resilient jobs=2 sweep that SIGTERMs itself after its first
    #: result; reports the exit status and the children left behind
    _SIGTERM_SCRIPT = """
import json, multiprocessing, os, signal, time
from repro.graphs.generators import cycle_graph
from repro.matching.smm import SynchronousMaximalMatching
from repro.parallel import SweepInterrupted, TrialRunner, TrialSpec
from repro.parallel.trial_runner import register_protocol

class SleepyMatching(SynchronousMaximalMatching):
    def enabled_rule(self, view):
        time.sleep(0.01)
        return super().enabled_rule(view)

register_protocol("sleepy-sigterm-test", SleepyMatching)
specs = [TrialSpec("sleepy-sigterm-test", cycle_graph(6), seed=s) for s in range(8)]
runner = TrialRunner(
    jobs=2, retries=1,
    on_result=lambda *_: os.kill(os.getpid(), signal.SIGTERM),
)
try:
    runner.map(specs)
    code = 0
except SweepInterrupted as exc:
    code = exc.code
print(json.dumps({"code": code, "children": len(multiprocessing.active_children())}))
"""

    def test_sigterm(self):
        out = subprocess.run(
            [sys.executable, "-c", self._SIGTERM_SCRIPT],
            capture_output=True,
            env=_env(),
            cwd=ROOT,
            text=True,
            timeout=120,
            check=True,
        )
        report = json.loads(out.stdout.strip().splitlines()[-1])
        assert report == {"code": 143, "children": 0}
        self._assert_clean()

    def test_vectorized_sweep_completion(self):
        graph = erdos_renyi_graph(30, 0.3, ensure_rng(4))
        results = run_trials(_vector_specs(graph, count=4), jobs=2)
        assert len(results) == 4
        self._assert_clean()

    def test_vectorized_sweep_that_raises(self):
        graph = erdos_renyi_graph(30, 0.3, ensure_rng(5))
        specs = _vector_specs(graph, count=3)
        specs[1] = TrialSpec("no-such-protocol", graph)
        with pytest.raises(Exception):
            run_trials(specs, jobs=2)
        self._assert_clean()

    def test_worker_crash(self, protocols):
        graph = erdos_renyi_graph(30, 0.3, ensure_rng(6))
        good = _vector_specs(graph, count=1)
        crash = TrialSpec("crash-test", graph)
        results = TrialRunner(jobs=2, retries=1, backoff=0.05).map(good + [crash])
        assert not isinstance(results[0], FailedTrial)
        assert isinstance(results[1], FailedTrial)
        assert results[1].error_type == "WorkerDeath"
        self._assert_clean()

    #: a resilient jobs=2 sweep of gated trials that reports each result
    _KILL_SCRIPT = _GATED + """
import sys
from repro.graphs.generators import erdos_renyi_graph
from repro.parallel import TrialRunner, TrialSpec
from repro.parallel.trial_runner import register_protocol
from repro.rng import ensure_rng

GATE = int(sys.argv[2])
register_protocol("gated-kill-test", GatedMatching)
graph = erdos_renyi_graph(40, 0.3, ensure_rng(7))
specs = [TrialSpec("gated-kill-test", graph, seed=s) for s in range(8)]
TrialRunner(
    jobs=2,
    checkpoint=sys.argv[1],
    on_result=lambda *_: print("DONE", flush=True),
).map(specs)
"""

    def test_sigkilled_parent_then_resume(self, tmp_path):
        # SIGKILL a parent mid-sweep: it never reaches its finally, so
        # its workers must notice on their own (EOF on the pipe, or the
        # parent pid changing) and exit.  The resumed sweep then
        # completes from the checkpoint and cleans up normally.
        ck = tmp_path / "sweep.jsonl"
        gate, feed = _gate(1)  # one trial completes, the rest wait
        proc = subprocess.Popen(
            [sys.executable, "-c", self._KILL_SCRIPT, str(ck), str(gate)],
            stdout=subprocess.PIPE,
            env=_env(),
            cwd=ROOT,
            pass_fds=(gate,),
        )
        os.close(gate)
        try:
            assert proc.stdout.readline().strip() == b"DONE"
            orphans = set(live_workers())
            assert orphans  # the sweep's workers are running
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
        finally:
            os.close(feed)  # the orphans' trials run on and end
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
            proc.stdout.close()
        deadline = time.monotonic() + 10
        while orphans & set(live_workers()) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not orphans & set(live_workers())
        # resume the sweep normally (checkpointed resilient mode)
        graph = erdos_renyi_graph(40, 0.3, ensure_rng(7))
        first = run_trials(_vector_specs(graph, count=2), jobs=2, checkpoint=str(ck))
        again = run_trials(_vector_specs(graph, count=2), jobs=2, checkpoint=str(ck))
        for a, b in zip(first, again):
            assert a.final == b.final
        self._assert_clean()


def _vector_specs(graph, count=3):
    """Vectorized SMM trials from seeded random configurations."""
    protocol = make_protocol("smm")
    return [
        TrialSpec(
            "smm",
            graph,
            random_configuration(protocol, graph, ensure_rng(s)),
            backend="vectorized",
        )
        for s in range(count)
    ]


class TestSignalDrivenShutdown:
    """SIGTERM during a resilient sweep: the runner converts it into an
    unwinding exception, so the checkpoint JSONL is flushed and every
    worker is reaped before the process exits with the conventional
    128+15 status."""

    _SCRIPT = _GATED + """
import sys
from repro.graphs.generators import erdos_renyi_graph
from repro.rng import ensure_rng
from repro.parallel import TrialRunner, TrialSpec
from repro.parallel.trial_runner import register_protocol

GATE = int(sys.argv[2])
register_protocol("gated-sig-test", GatedMatching)
graph = erdos_renyi_graph(60, 0.1, ensure_rng(3))
specs = [TrialSpec("gated-sig-test", graph, seed=s) for s in range(6)]
runner = TrialRunner(
    jobs=1,
    checkpoint=sys.argv[1],
    on_result=lambda i, outcome, resumed: print("DONE", i, flush=True),
)
runner.map(specs)
print("FINISHED", flush=True)
"""

    #: forks one resilient sweep per iteration, lets a seeded random
    #: number (1..11) of its 12 trials through the gate and SIGTERMs it
    #: at a seeded random offset after its first result; prints the exit
    #: codes and the checkpoint line counts as one JSON line
    _STRESS_SCRIPT = _GATED + """
import json, os, random, signal, sys, time
from repro.graphs.generators import cycle_graph
from repro.parallel import TrialRunner, TrialSpec
from repro.parallel.trial_runner import register_protocol

register_protocol("gated-stress-test", GatedMatching)
graph = cycle_graph(6)
specs = [TrialSpec("gated-stress-test", graph, seed=s) for s in range(12)]
rng = random.Random(int(sys.argv[2]))
codes, lines = [], []
for i in range(int(sys.argv[3])):
    ck = os.path.join(sys.argv[1], f"sweep-{i}.jsonl")
    delay = rng.uniform(0.0, 0.01)
    GATE, feed = os.pipe()
    os.write(feed, b"x" * rng.randint(1, 11))
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        os.close(feed)
        runner = TrialRunner(
            jobs=1, checkpoint=ck,
            on_result=lambda *_: os.write(write, b"x"),
        )
        try:
            runner.map(specs)
        except SystemExit as exc:
            os._exit(exc.code)
        os._exit(0)
    os.close(write)
    os.read(read, 1)  # the first result landed
    time.sleep(delay)
    os.kill(pid, signal.SIGTERM)
    codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for fd in (read, GATE, feed):
        os.close(fd)
    with open(ck, encoding="utf-8") as fh:
        lines.append([json.loads(line)["index"] for line in fh if line.strip()])
print(json.dumps({"codes": codes, "lines": lines}))
"""

    def test_sigterm_at_random_offsets_always_unwinds(self, tmp_path):
        """Regression for the lost SIGTERM: the handler used to raise
        from wherever the main thread was, and inside a ``with lock:``
        block the exception was mangled, the signal lost and the sweep
        ran to completion with exit 0.  Fifty SIGTERMs at seeded random
        offsets must all unwind with 143, a well-formed checkpoint and
        no leaked worker."""
        out = subprocess.run(
            [sys.executable, "-c", self._STRESS_SCRIPT, str(tmp_path), "5", "50"],
            capture_output=True,
            env=_env(),
            cwd=ROOT,
            text=True,
            timeout=300,
            check=True,
        )
        report = json.loads(out.stdout.strip().splitlines()[-1])
        assert report["codes"] == [143] * 50
        for indices in report["lines"]:
            # every completed trial was flushed, and the sweep stopped
            # short of the end (the signal landed mid-sweep)
            assert 1 <= len(indices) < 12
            assert len(set(indices)) == len(indices)
        assert live_workers() == []

    def test_sigterm_flushes_checkpoint_and_resumes(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        gate, feed = _gate(2)  # two trials complete, the third waits
        proc = subprocess.Popen(
            [sys.executable, "-c", self._SCRIPT, str(ck), str(gate)],
            stdout=subprocess.PIPE,
            env=_env(),
            cwd=ROOT,
            text=True,
            pass_fds=(gate,),
        )
        os.close(gate)
        try:
            done = 0
            for line in proc.stdout:
                if line.startswith("DONE"):
                    done += 1
                if done == 2:
                    break
            assert done == 2, "sweep never produced two results"
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
        finally:
            os.close(feed)
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
                proc.wait(timeout=10)
        assert proc.returncode == 143  # 128 + SIGTERM, via SweepInterrupted
        # the flushed checkpoint holds everything that completed
        lines = [
            line
            for line in ck.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        assert len(lines) >= 2
        # ... and the SIGTERM'd parent reaped its workers on the way out
        assert live_workers() == []

        # a resumed sweep completes from the checkpoint (the gate is
        # gone: the same SMM, ungated)
        register_protocol("gated-sig-test", SynchronousMaximalMatching)
        try:
            graph = erdos_renyi_graph(60, 0.1, ensure_rng(3))
            specs = [
                TrialSpec("gated-sig-test", graph, seed=s) for s in range(6)
            ]
            resumed_flags = []
            results = TrialRunner(
                jobs=1,
                checkpoint=str(ck),
                on_result=lambda i, outcome, resumed: resumed_flags.append(
                    resumed
                ),
            ).map(specs)
        finally:
            del PROTOCOLS["gated-sig-test"]
        assert len(results) == 6
        assert not any(isinstance(r, FailedTrial) for r in results)
        assert resumed_flags.count(True) >= 2
        assert live_workers() == []
