"""The worker scheduler behind every multi-process sweep.

:meth:`repro.parallel.TrialRunner.map` forks persistent workers that
inherit the spec list and receive spec indices, one queued behind the
trial each is running.  These tests pin what that buys and what it must
not break: one worker serves a whole ``jobs=1`` resilient sweep, a
crash charges only the trial that was running (the one queued behind
it re-runs elsewhere), a plain sweep that loses a worker degrades to
inline with a ``RuntimeWarning``, and no worker outlives its sweep
however the sweep ends.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import ExperimentError
from repro.graphs.generators import cycle_graph
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
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ["src", env.get("PYTHONPATH", "")] if p
        )
        out = subprocess.run(
            [sys.executable, "-c", self._SIGTERM_SCRIPT],
            capture_output=True,
            env=env,
            cwd=ROOT,
            text=True,
            timeout=120,
            check=True,
        )
        report = json.loads(out.stdout.strip().splitlines()[-1])
        assert report == {"code": 143, "children": 0}
        self._assert_clean()
