"""The serve path's cost contracts: a sweep costs about its trials.

* **warm forks** — the resilient runner imports every module its specs'
  runs need before it forks (:func:`repro.engine.registry.preload`), so
  a forked trial imports nothing; :func:`repro.kernels
  .closed_neighborhood` no longer goes through ``np.unique`` (which
  imports ``numpy.ma`` lazily) and still equals it;
* **one fingerprint fragment per graph** — the memoised graph part of
  :func:`repro.parallel.spec_fingerprint` gives the unmemoised hash on
  every way a graph is made, and is never pickled;
* **journal** — ``job.json`` holds each distinct graph once; journals
  with inline graphs still recover and resume; finished jobs recover
  from ``status.json`` alone;
* **memory** — a finished job keeps only its summary; its specs and
  results are read back from the journal.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.serialize import (
    SCHEMA_VERSION,
    execution_to_dict,
    trial_spec_to_dict,
)
from repro.engine import registry
from repro.graphs.generators import cycle_graph, erdos_renyi_graph
from repro.graphs.graph import Graph
from repro.kernels import closed_neighborhood
from repro.parallel import TrialRunner, TrialSpec, run_trials, spec_fingerprint
from repro.parallel.trial_runner import _fingerprint_canon
from repro.serve import JobManager
from repro.serve import jobs as jobs_module

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ----------------------------------------------------------------------
# warm forks
# ----------------------------------------------------------------------
_FORK_PROBE = """
import json, sys
from repro.graphs.generators import erdos_renyi_graph
from repro.parallel import TrialSpec, execute_trial, trial_runner

imported = {}

def scheduler(self, specs, pending, record):
    # the parent's state at the point where it would fork the workers
    for index, _ in pending:
        before = set(sys.modules)
        record(index, ("ok", execute_trial(specs[index])), 1)
        imported[specs[index].protocol] = sorted(set(sys.modules) - before)

trial_runner.TrialRunner._run_scheduler = scheduler
graph = erdos_renyi_graph(300, 0.05, rng=1)
spec = TrialSpec(sys.argv[1], graph, seed=3, backend="auto")
trial_runner.TrialRunner(retries=1).map([spec])
print(json.dumps(imported))
"""


class TestWarmFork:
    def _imported_by_trial(self, protocol):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ["src", env.get("PYTHONPATH", "")] if p
        )
        out = subprocess.run(
            [sys.executable, "-c", _FORK_PROBE, protocol],
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=120,
            check=True,
        )
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_forked_trials_import_nothing(self):
        for protocol in ("smm", "sis", "luby"):
            assert self._imported_by_trial(protocol) == {protocol: []}

    def test_preload_leaves_failures_to_the_run(self):
        registry.preload("no-such-protocol")
        registry.preload("smm", backend="no-such-backend")
        registry.preload("smm", daemon="no-such-daemon")

        def broken():
            raise RuntimeError("factory failed")

        registry.register_protocol("broken-factory-test", broken)
        try:
            registry.preload("broken-factory-test")
            (outcome,) = TrialRunner(retries=1).map(
                [TrialSpec("broken-factory-test", cycle_graph(4), seed=1)]
            )
            assert outcome.error_type == "RuntimeError"
        finally:
            del registry.PROTOCOLS["broken-factory-test"]


@st.composite
def csr_rows(draw):
    """``(indptr, indices, rows)`` of a random CSR with empty rows
    (trailing ones included) and ``rows`` that may repeat."""
    n = draw(st.integers(1, 12))
    degrees = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    if draw(st.booleans()):
        degrees[-1] = 0
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = np.array(
        draw(
            st.lists(
                st.integers(0, n - 1),
                min_size=int(indptr[-1]),
                max_size=int(indptr[-1]),
            )
        ),
        dtype=np.int64,
    )
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    rows = np.array(
        draw(st.lists(st.integers(0, n - 1), max_size=2 * n)), dtype=dtype
    )
    return indptr, indices, rows


class TestClosedNeighborhood:
    @settings(max_examples=200, deadline=None)
    @given(csr_rows())
    def test_equals_np_unique(self, case):
        from repro.kernels import csr_entry_positions

        indptr, indices, rows = case
        positions, _ = csr_entry_positions(indptr, rows)
        expected = np.unique(np.concatenate((rows, indices[positions])))
        got = closed_neighborhood(indptr, indices, rows)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


# ----------------------------------------------------------------------
# fingerprint memo
# ----------------------------------------------------------------------
def _unmemoised_fingerprint(spec):
    """The fingerprint as one ``json.dumps`` of the whole payload."""
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


def _graphs():
    base = erdos_renyi_graph(30, 0.2, rng=4)
    derived = base.with_updates(
        add_nodes=[100, -3], add_edges=[(100, 0), (-3, 100)]
    )
    yield "Graph()", Graph([5, -2, 9, 0], [(5, -2), (9, 0), (0, 5)])
    yield "with_updates", derived
    yield "with_edges", derived.with_edges(remove=[(100, 0)])
    yield "pickle", pickle.loads(pickle.dumps(derived))


class TestFingerprintMemo:
    def test_equals_unmemoised(self):
        for name, graph in _graphs():
            for spec in (
                TrialSpec("smm", graph, seed=7),
                TrialSpec(
                    "sis",
                    graph,
                    daemon="central",
                    max_rounds=40,
                    options=(("step_limit", 5), ("scale", np.float64(0.5))),
                    backend="auto",
                    telemetry=True,
                ),
            ):
                expected = _unmemoised_fingerprint(spec)
                assert spec_fingerprint(spec) == expected, name
                assert graph._fingerprint is not None, name
                assert spec_fingerprint(spec) == expected, name  # memo hit

    def test_memo_is_not_pickled(self):
        graph = cycle_graph(6)
        spec_fingerprint(TrialSpec("smm", graph, seed=1))
        assert graph._fingerprint is not None
        assert pickle.loads(pickle.dumps(graph))._fingerprint is None
        assert "_fingerprint" not in graph.__getstate__()

    def test_derived_graph_does_not_inherit_memo(self):
        graph = cycle_graph(6)
        spec_fingerprint(TrialSpec("smm", graph, seed=1))
        derived = graph.with_edges(add=[(0, 3)])
        assert derived._fingerprint is None
        spec = TrialSpec("smm", derived, seed=1)
        assert spec_fingerprint(spec) == _unmemoised_fingerprint(spec)


# ----------------------------------------------------------------------
# journal and memory
# ----------------------------------------------------------------------
def _specs(count, seed=100, graph=None):
    graph = cycle_graph(8) if graph is None else graph
    return [TrialSpec("smm", graph, seed=seed + i) for i in range(count)]


def _direct(specs):
    return [execution_to_dict(r) for r in run_trials(specs)]


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class TestJournal:
    def test_job_json_writes_each_graph_once(self, tmp_path):
        manager = JobManager(str(tmp_path / "state"), workers=1)
        other = cycle_graph(5)
        specs = _specs(4) + _specs(2, graph=other) + _specs(1, seed=7)
        job = manager.submit(specs)  # not started: stays queued
        record = _read(job.spec_path)
        assert len(record["graphs"]) == 2
        assert [s["graph"] for s in record["specs"]] == [0, 0, 0, 0, 1, 1, 0]
        rebuilt = jobs_module._specs_from_journal(record)
        assert rebuilt == specs
        assert rebuilt[0].graph is rebuilt[3].graph

    def test_inline_graph_journal_recovers_and_resumes(self, tmp_path):
        state = tmp_path / "state"
        specs = _specs(3)
        first = JobManager(str(state), workers=1)
        job = first.submit(specs)
        # rewrite the journal the way earlier releases wrote it: every
        # spec with its graph inline, status without summary fields
        record = _read(job.spec_path)
        del record["graphs"]
        record["specs"] = [trial_spec_to_dict(s) for s in specs]
        with open(job.spec_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, sort_keys=True)
        with open(job.status_path, "w", encoding="utf-8") as handle:
            json.dump({"state": "running", "progress": {"total": 3}}, handle)
        # two of the three trials already ran before the "crash"
        run_trials(specs[:2], checkpoint=job.checkpoint_path)

        second = JobManager(str(state), workers=1)
        second.start()
        try:
            recovered = second.get(job.id)
            assert recovered is not None
            assert second.wait(recovered, timeout=60)
            assert recovered.state == "done"
            assert recovered.progress["resumed"] == 2
            assert recovered.progress["computed"] == 3
            results = second.results(recovered)
            assert [e["result"] for e in results] == _direct(specs)
        finally:
            second.shutdown()

    def test_legacy_finished_job_recovers(self, tmp_path):
        state = tmp_path / "state"
        first = JobManager(str(state), workers=1)
        first.start()
        try:
            job = first.submit(_specs(2), label="old", mode="sync")
            assert first.wait(job, timeout=60)
        finally:
            first.shutdown()
        status = _read(job.status_path)
        for key in ("label", "mode", "deadline", "telemetry"):
            del status[key]
        with open(job.status_path, "w", encoding="utf-8") as handle:
            json.dump(status, handle)

        second = JobManager(str(state), workers=1)
        second.start()
        try:
            recovered = second.get(job.id)
            assert recovered.state == "done"
            assert recovered.summary()["label"] == "old"
            assert recovered.summary()["mode"] == "sync"
            assert recovered.entries is None
            assert len(second.results(recovered)) == 2
        finally:
            second.shutdown()

    def test_finished_jobs_recover_from_status_alone(
        self, tmp_path, monkeypatch
    ):
        state = tmp_path / "state"
        first = JobManager(str(state), workers=1)
        first.start()
        try:
            done = first.submit(_specs(2), label="kept", deadline_s=600)
            assert first.wait(done, timeout=60)
            pending = first.submit(_specs(1, seed=50))
            first.cancel(pending.id)
            queued = JobManager(str(state), workers=1).submit(_specs(1, seed=9))
        finally:
            first.shutdown()
        expected = done.summary()
        os.remove(done.spec_path)  # a finished job never needs it

        parsed = []
        original = jobs_module._specs_from_journal

        def counting(record):
            parsed.append(record["id"])
            return original(record)

        monkeypatch.setattr(jobs_module, "_specs_from_journal", counting)
        second = JobManager(str(state), workers=1)
        second.start()
        try:
            assert parsed == [queued.id]  # only the job that runs again
            recovered = second.get(done.id)
            assert recovered.summary() == expected
            assert second.results(recovered) == first.results(done)
            assert second.get(pending.id).state == "cancelled"
            assert second.wait(second.get(queued.id), timeout=60)
        finally:
            second.shutdown()


class TestFinishedJobsReleasePayload:
    def test_twenty_jobs_keep_only_summaries(self, tmp_path, monkeypatch):
        in_memory = {}
        release = jobs_module.Job.release

        def snapshot(job):
            if job.entries is not None:
                in_memory[job.id] = [dict(e) for e in job.entries]
            release(job)

        monkeypatch.setattr(jobs_module.Job, "release", snapshot)
        manager = JobManager(str(tmp_path / "state"), workers=2)
        manager.start()
        try:
            jobs = [
                manager.submit(_specs(2, seed=1000 + 10 * i)) for i in range(20)
            ]
            for job in jobs:
                assert manager.wait(job, timeout=60)
                assert job.state == "done"
            for job in jobs:
                assert job._specs is None and job._fingerprints is None
                assert job.entries is None
                assert manager.results(job) == in_memory[job.id]
                assert job.summary()["trials"] == 2
            # specs and fingerprints read back from the journal
            assert jobs[0].specs == tuple(_specs(2, seed=1000))
            assert jobs[0].fingerprints == tuple(
                spec_fingerprint(s) for s in _specs(2, seed=1000)
            )
            assert jobs[0]._specs is None
        finally:
            manager.shutdown()
