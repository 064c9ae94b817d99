"""Worker hygiene: no runner worker outlives its sweep.

The runner forks persistent workers for every multi-process sweep
(:mod:`repro.parallel.trial_runner`).  This file pins that every one of
them is stopped and reaped whether the sweep completes, raises, loses a
worker, or is unwound by SIGTERM, and that the workers of a SIGKILLed
parent exit on their own.  The equivalence half (multi-process results
byte-identical to inline) lives in ``test_engine_equivalence.py``.

The file and its test names date from the shared-memory graph handoff
this scheduler replaced; the audit moved from ``/dev/shm`` segments to
worker processes (:func:`repro.parallel.live_workers`), and the test
ids were kept.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.faults import random_configuration
from repro.engine import make_protocol
from repro.graphs.generators import erdos_renyi_graph
from repro.matching.smm import SynchronousMaximalMatching
from repro.parallel import (
    FailedTrial,
    TrialRunner,
    TrialSpec,
    live_workers,
    run_trials,
)
from repro.parallel.trial_runner import PROTOCOLS, register_protocol
from repro.rng import ensure_rng

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _graph(n=12, seed=0):
    return erdos_renyi_graph(n, 0.3, ensure_rng(seed))


def _specs(graph, count=3, backend="vectorized"):
    protocol = make_protocol("smm")
    return [
        TrialSpec(
            "smm",
            graph,
            random_configuration(protocol, graph, ensure_rng(s)),
            backend=backend,
        )
        for s in range(count)
    ]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ["src", env.get("PYTHONPATH", "")] if p
    )
    return env


def _assert_no_workers():
    assert multiprocessing.active_children() == []
    assert live_workers() == []


class _CrashingMatching(SynchronousMaximalMatching):
    """SMM that kills its worker process outright — the WorkerDeath
    fixture.  Registered by name before the sweep forks, so the
    workers inherit it."""

    def enabled_rule(self, view):
        os._exit(13)


class TestSweepHygiene:
    def test_no_segments_after_completed_pool_sweep(self):
        graph = _graph(n=30, seed=4)
        results = run_trials(_specs(graph, count=4), jobs=2)
        assert len(results) == 4
        _assert_no_workers()

    def test_no_segments_after_sweep_that_raises(self):
        graph = _graph(n=30, seed=5)
        specs = _specs(graph, count=3)
        specs[1] = TrialSpec("no-such-protocol", graph)
        with pytest.raises(Exception):
            run_trials(specs, jobs=2)
        _assert_no_workers()

    def test_no_segments_after_worker_crash(self):
        register_protocol("crashing-test", _CrashingMatching)
        try:
            graph = _graph(n=30, seed=6)
            good = _specs(graph, count=1)
            crash = TrialSpec("crashing-test", graph)
            results = TrialRunner(jobs=2, retries=1, backoff=0.05).map(
                good + [crash]
            )
        finally:
            del PROTOCOLS["crashing-test"]
        assert not isinstance(results[0], FailedTrial)
        assert isinstance(results[1], FailedTrial)
        assert results[1].error_type == "WorkerDeath"
        _assert_no_workers()

    #: a resilient jobs=2 sweep of slow trials that reports each result
    _KILL_SCRIPT = """
import sys, time
from repro.graphs.generators import erdos_renyi_graph
from repro.matching.smm import SynchronousMaximalMatching
from repro.parallel import TrialRunner, TrialSpec
from repro.parallel.trial_runner import register_protocol
from repro.rng import ensure_rng

class SlowMatching(SynchronousMaximalMatching):
    def enabled_rule(self, view):
        time.sleep(0.005)
        return super().enabled_rule(view)

register_protocol("slow-kill-test", SlowMatching)
graph = erdos_renyi_graph(40, 0.3, ensure_rng(7))
specs = [TrialSpec("slow-kill-test", graph, seed=s) for s in range(8)]
TrialRunner(
    jobs=2,
    checkpoint=sys.argv[1],
    on_result=lambda *_: print("DONE", flush=True),
).map(specs)
"""

    def test_no_segments_after_kill_resume(self, tmp_path):
        # SIGKILL a parent mid-sweep: it never reaches its finally, so
        # its workers must notice on their own (EOF on the pipe, or the
        # parent pid changing) and exit.  The resumed sweep then
        # completes from the checkpoint and cleans up normally.
        ck = tmp_path / "sweep.jsonl"
        proc = subprocess.Popen(
            [sys.executable, "-c", self._KILL_SCRIPT, str(ck)],
            stdout=subprocess.PIPE,
            env=_env(),
            cwd=ROOT,
        )
        try:
            assert proc.stdout.readline().strip() == b"DONE"
            orphans = set(live_workers())
            assert orphans  # the sweep's workers are running
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
            proc.stdout.close()
        deadline = time.monotonic() + 10
        while orphans & set(live_workers()) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not orphans & set(live_workers())
        # resume the sweep normally (checkpointed resilient mode)
        graph = _graph(n=40, seed=7)
        first = run_trials(_specs(graph, count=2), jobs=2, checkpoint=str(ck))
        again = run_trials(_specs(graph, count=2), jobs=2, checkpoint=str(ck))
        for a, b in zip(first, again):
            assert a.final == b.final
        _assert_no_workers()


class _SlowSigMatching(SynchronousMaximalMatching):
    """SMM that naps per rule evaluation — slow enough to SIGTERM
    mid-sweep.  Registered by name before the sweep forks, so the
    workers inherit it."""

    def enabled_rule(self, view):
        time.sleep(0.005)
        return super().enabled_rule(view)


class TestSignalDrivenShutdown:
    """SIGTERM during a resilient sweep: the runner converts it into an
    unwinding exception, so the checkpoint JSONL is flushed and every
    worker is reaped before the process exits with the conventional
    128+15 status."""

    _SCRIPT = """
import sys, time
from repro.graphs.generators import erdos_renyi_graph
from repro.rng import ensure_rng
from repro.matching.smm import SynchronousMaximalMatching
from repro.parallel import TrialRunner, TrialSpec
from repro.parallel.trial_runner import register_protocol

class SlowMatching(SynchronousMaximalMatching):
    def enabled_rule(self, view):
        time.sleep(0.005)
        return super().enabled_rule(view)

register_protocol("slow-sig-test", SlowMatching)
graph = erdos_renyi_graph(60, 0.1, ensure_rng(3))
specs = [TrialSpec("slow-sig-test", graph, seed=s) for s in range(6)]
runner = TrialRunner(
    jobs=1,
    checkpoint=sys.argv[1],
    on_result=lambda i, outcome, resumed: print("DONE", i, flush=True),
)
runner.map(specs)
print("FINISHED", flush=True)
"""

    #: forks one resilient sweep per iteration and SIGTERMs it at a
    #: seeded random offset after its first result; prints the exit
    #: codes and the checkpoint line counts as one JSON line
    _STRESS_SCRIPT = """
import json, os, random, signal, sys, time
from repro.graphs.generators import cycle_graph
from repro.matching.smm import SynchronousMaximalMatching
from repro.parallel import TrialRunner, TrialSpec
from repro.parallel.trial_runner import register_protocol

class SlowMatching(SynchronousMaximalMatching):
    def enabled_rule(self, view):
        time.sleep(0.002)
        return super().enabled_rule(view)

register_protocol("slow-stress-test", SlowMatching)
graph = cycle_graph(6)
specs = [TrialSpec("slow-stress-test", graph, seed=s) for s in range(12)]
rng = random.Random(int(sys.argv[2]))
codes, lines = [], []
for i in range(int(sys.argv[3])):
    ck = os.path.join(sys.argv[1], f"sweep-{i}.jsonl")
    delay = rng.uniform(0.0, 0.1)
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
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
    os.close(read)
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
        import json

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ["src", env.get("PYTHONPATH", "")] if p
        )
        out = subprocess.run(
            [sys.executable, "-c", self._STRESS_SCRIPT, str(tmp_path), "5", "50"],
            capture_output=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
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

    def test_sigterm_flushes_checkpoint_and_unlinks_shm(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ["src", env.get("PYTHONPATH", "")] if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", self._SCRIPT, str(ck)],
            stdout=subprocess.PIPE,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            text=True,
        )
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

        # a resumed sweep completes from the checkpoint
        register_protocol("slow-sig-test", _SlowSigMatching)
        try:
            graph = erdos_renyi_graph(60, 0.1, ensure_rng(3))
            specs = [
                TrialSpec("slow-sig-test", graph, seed=s) for s in range(6)
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
            del PROTOCOLS["slow-sig-test"]
        assert len(results) == 6
        assert not any(isinstance(r, FailedTrial) for r in results)
        assert resumed_flags.count(True) >= 2
        assert live_workers() == []
