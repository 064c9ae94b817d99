"""Zero-copy graph handoff: proxies, lifecycle, and /dev/shm hygiene.

The equivalence half (pool results byte-identical under every handoff
policy) lives in ``test_engine_equivalence.py``; this file pins the
mechanics — proxy behaviour, memoization, and above all that no
shared-memory segment outlives its sweep, whether the sweep completes,
raises, loses workers, or the whole parent process is SIGKILLed
(the resource tracker reclaims segments the parent never got to
unlink).
"""

from __future__ import annotations

import os
import pickle
import signal
import subprocess
import sys
import time

import pytest

from repro.core.faults import random_configuration
from repro.engine import make_protocol
from repro.graphs.generators import cycle_graph, erdos_renyi_graph
from repro.graphs.graph import Graph
from repro.matching.smm import SynchronousMaximalMatching
from repro.parallel import (
    FailedTrial,
    MemoGraph,
    SharedGraph,
    SharedGraphStore,
    TrialRunner,
    TrialSpec,
    leaked_shared_segments,
    run_trials,
    spec_fingerprint,
)
from repro.parallel.shared_graph import SHARED_MIN_NODES
from repro.parallel.trial_runner import PROTOCOLS, register_protocol
from repro.rng import ensure_rng


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


class _CrashingMatching(SynchronousMaximalMatching):
    """SMM that kills its worker process outright — the WorkerDeath
    fixture.  Module-level so forked workers can unpickle it."""

    def enabled_rule(self, view):
        os._exit(13)


class TestProxies:
    def test_shared_graph_is_the_graph(self):
        graph = _graph()
        with SharedGraphStore(shared=True) as store:
            (packed,) = store.pack_specs(_specs(graph, count=1))
            proxy = packed.graph
            assert isinstance(proxy, SharedGraph)
            assert proxy == graph and hash(proxy) == hash(graph)
            assert proxy.nodes == graph.nodes and proxy.edges == graph.edges
            # fingerprints must not notice the wrapping, or resume
            # checkpoints would invalidate under the fast path
            original = _specs(graph, count=1)[0]
            assert spec_fingerprint(packed) == spec_fingerprint(original)

    def test_shared_graph_pickle_attaches_csr_views(self):
        import numpy as np

        graph = _graph(n=20, seed=1)
        with SharedGraphStore(shared=True) as store:
            (packed,) = store.pack_specs(_specs(graph, count=1))
            clone = pickle.loads(pickle.dumps(packed.graph))
            assert type(clone) is Graph
            assert clone == graph
            indptr, indices, ids = clone.adjacency_arrays()
            ref_indptr, ref_indices, ref_ids = graph.adjacency_arrays()
            assert np.array_equal(indptr, ref_indptr)
            assert np.array_equal(indices, ref_indices)
            assert np.array_equal(ids, ref_ids)
            # the views are zero-copy: backed by the segment, read-only
            assert not indices.flags.writeable
            assert not indices.flags.owndata

    def test_memo_graph_round_trips_and_memoizes(self):
        from repro.parallel import shared_graph as sg

        graph = _graph(n=10, seed=2)
        with SharedGraphStore(shared=False) as store:
            packed = store.pack_specs(_specs(graph, count=2))
            proxies = [spec.graph for spec in packed]
            assert all(isinstance(p, MemoGraph) for p in proxies)
            assert proxies[0] is proxies[1]  # one payload per graph
            first = pickle.loads(pickle.dumps(proxies[0]))
            second = pickle.loads(pickle.dumps(proxies[1]))
            assert first == graph
            assert second is first  # memo hit, not a second deserialize
            sg._MEMO.clear()

    def test_auto_policy_splits_on_graph_size(self):
        small = cycle_graph(8)
        big = cycle_graph(SHARED_MIN_NODES)
        with SharedGraphStore(shared=None) as store:
            packed = store.pack_specs(
                _specs(small, count=1) + _specs(big, count=1)
            )
            assert isinstance(packed[0].graph, MemoGraph)
            assert isinstance(packed[1].graph, SharedGraph)

    def test_store_close_is_idempotent_and_unlinks(self):
        graph = _graph(n=16, seed=3)
        store = SharedGraphStore(shared=True)
        store.pack_specs(_specs(graph, count=1))
        assert leaked_shared_segments() != []
        store.close()
        assert leaked_shared_segments() == []
        store.close()  # second close: no error


class TestSweepHygiene:
    def test_no_segments_after_completed_pool_sweep(self):
        graph = _graph(n=30, seed=4)
        results = run_trials(
            _specs(graph, count=4), jobs=2, shared_graphs="always"
        )
        assert len(results) == 4
        assert leaked_shared_segments() == []

    def test_no_segments_after_sweep_that_raises(self):
        graph = _graph(n=30, seed=5)
        specs = _specs(graph, count=3)
        specs[1] = TrialSpec("no-such-protocol", graph)
        with pytest.raises(Exception):
            run_trials(specs, jobs=2, shared_graphs="always")
        assert leaked_shared_segments() == []

    def test_no_segments_after_worker_crash(self):
        register_protocol("crashing-test", _CrashingMatching)
        try:
            graph = _graph(n=30, seed=6)
            good = _specs(graph, count=1)
            crash = TrialSpec("crashing-test", graph)
            results = TrialRunner(
                jobs=2, retries=1, backoff=0.05, shared_graphs="always"
            ).map(good + [crash])
        finally:
            del PROTOCOLS["crashing-test"]
        assert not isinstance(results[0], FailedTrial)
        assert isinstance(results[1], FailedTrial)
        assert results[1].error_type == "WorkerDeath"
        assert leaked_shared_segments() == []

    def test_no_segments_after_kill_resume(self, tmp_path):
        # SIGKILL a parent mid-sweep: it never reaches store.close(),
        # so reclamation falls to the multiprocessing resource tracker
        # (the segments were created through the tracked path).  The
        # resumed sweep then completes and cleans up normally.
        ck = tmp_path / "sweep.jsonl"
        script = (
            "import os, sys, time\n"
            "from repro.graphs.generators import erdos_renyi_graph\n"
            "from repro.rng import ensure_rng\n"
            "from repro.parallel import SharedGraphStore, TrialSpec\n"
            "graph = erdos_renyi_graph(40, 0.3, ensure_rng(7))\n"
            "store = SharedGraphStore(shared=True)\n"
            "store.pack_specs([TrialSpec('smm', graph, backend='vectorized')])\n"
            "print('READY', flush=True)\n"
            "time.sleep(30)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ["src", env.get("PYTHONPATH", "")] if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        try:
            assert proc.stdout.readline().strip() == b"READY"
            assert leaked_shared_segments() != []  # segment exists now
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
        # the tracker notices the parent's death asynchronously
        deadline = time.monotonic() + 10
        while leaked_shared_segments() and time.monotonic() < deadline:
            time.sleep(0.1)
        assert leaked_shared_segments() == []
        # resume the sweep normally (checkpointed resilient mode)
        graph = _graph(n=40, seed=7)
        first = run_trials(
            _specs(graph, count=2),
            jobs=2,
            shared_graphs="always",
            checkpoint=str(ck),
        )
        again = run_trials(
            _specs(graph, count=2),
            jobs=2,
            shared_graphs="always",
            checkpoint=str(ck),
        )
        for a, b in zip(first, again):
            assert a.final == b.final
        assert leaked_shared_segments() == []


class _SlowSigMatching(SynchronousMaximalMatching):
    """SMM that naps per rule evaluation — slow enough to SIGTERM
    mid-sweep.  Module-level so forked workers can unpickle it."""

    def enabled_rule(self, view):
        time.sleep(0.005)
        return super().enabled_rule(view)


class TestSignalDrivenShutdown:
    """SIGTERM during a resilient sweep (PR 7 satellite): the runner
    converts it into an unwinding exception, so the checkpoint JSONL is
    flushed and every shm segment is unlinked before the process exits
    with the conventional 128+15 status."""

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
    shared_graphs="always",
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
            jobs=1, checkpoint=ck, shared_graphs="always",
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
        no leaked segment."""
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
        assert leaked_shared_segments() == []

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
        # ... and the SIGTERM'd parent unlinked its segments on the way out
        assert leaked_shared_segments() == []

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
                shared_graphs="always",
                on_result=lambda i, outcome, resumed: resumed_flags.append(
                    resumed
                ),
            ).map(specs)
        finally:
            del PROTOCOLS["slow-sig-test"]
        assert len(results) == 6
        assert not any(isinstance(r, FailedTrial) for r in results)
        assert resumed_flags.count(True) >= 2
        assert leaked_shared_segments() == []
