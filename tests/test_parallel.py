"""Tests for :mod:`repro.parallel` — the trial fan-out subsystem.

The contract under test: ``TrialRunner`` output is a pure function of
the spec list — same specs, same results, for every ``jobs`` value,
with worker processes or inline.  Determinism comes from drawing all
randomness (configurations, integer seeds) in the parent before
dispatch, so no test here needs statistical tolerance: everything is
compared for exact equality.
"""

import dataclasses
import warnings

import pytest

from repro.core.configuration import Configuration
from repro.core.executor import run_central, run_synchronous
from repro.errors import ExperimentError
from repro.graphs.generators import cycle_graph, erdos_renyi_graph, random_tree
from repro.matching.smm import SynchronousMaximalMatching
from repro.parallel import (
    PROTOCOLS,
    TrialRunner,
    TrialSpec,
    execute_trial,
    resolve_jobs,
    run_trials,
    spec_fingerprint,
)
from repro.parallel.trial_runner import register_protocol

SMM = SynchronousMaximalMatching()


# module-level so forked workers can rebuild the "protocol" by name
def _raise_trial_oserror():
    raise OSError("trial-scoped I/O failure")


def _raise_trial_runtimeerror():
    raise RuntimeError("trial-scoped runtime failure")


def executions_equal(a, b):
    return (
        a.stabilized == b.stabilized
        and a.rounds == b.rounds
        and a.moves == b.moves
        and a.moves_by_rule == b.moves_by_rule
        and a.initial == b.initial
        and a.final == b.final
        and a.move_log == b.move_log
        and a.history == b.history
    )


class TestExecuteTrial:
    def test_matches_direct_run(self):
        g = cycle_graph(8)
        clean = {i: None for i in g.nodes}
        direct = run_synchronous(SMM, g, clean, record_history=True)
        via_spec = execute_trial(
            TrialSpec("smm", g, clean, record_history=True)
        )
        assert executions_equal(direct, via_spec)

    def test_central_daemon(self):
        g = cycle_graph(6)
        direct = run_central(SMM, g, rng=5)
        via_spec = execute_trial(TrialSpec("smm", g, daemon="central", seed=5))
        assert executions_equal(direct, via_spec)

    def test_seed_controls_randomness(self):
        g = erdos_renyi_graph(12, 0.3, rng=1)
        a = execute_trial(TrialSpec("smm", g, daemon="central", seed=42))
        b = execute_trial(TrialSpec("smm", g, daemon="central", seed=42))
        assert executions_equal(a, b)

    def test_unknown_protocol(self):
        with pytest.raises(ExperimentError, match="protocol"):
            execute_trial(TrialSpec("nope", cycle_graph(4)))

    def test_unknown_daemon(self):
        with pytest.raises(ExperimentError, match="daemon"):
            execute_trial(TrialSpec("smm", cycle_graph(4), daemon="quantum"))

    def test_registry_contents(self):
        assert {"smm", "sis", "hsu-huang"} <= set(PROTOCOLS)

    def test_register_protocol(self):
        register_protocol("smm-alias", SynchronousMaximalMatching)
        try:
            ex = execute_trial(TrialSpec("smm-alias", cycle_graph(4)))
            assert ex.stabilized
        finally:
            del PROTOCOLS["smm-alias"]


class TestTrialRunner:
    def _specs(self, count=6):
        specs = []
        for i in range(count):
            g = random_tree(8, rng=i)
            specs.append(TrialSpec("smm", g, record_history=True))
            specs.append(TrialSpec("sis", g))
        return specs

    def test_inline_path(self):
        specs = self._specs()
        results = TrialRunner(jobs=1).map(specs)
        assert len(results) == len(specs)
        assert all(ex.stabilized for ex in results)

    def test_pool_matches_inline(self):
        specs = self._specs()
        inline = TrialRunner(jobs=1).map(specs)
        pooled = TrialRunner(jobs=2).map(specs)
        assert len(inline) == len(pooled)
        for a, b in zip(inline, pooled):
            assert executions_equal(a, b)

    def test_single_spec_runs_inline(self):
        # a one-element batch should not pay pool start-up cost; the
        # observable contract is just that it works with jobs > 1
        [ex] = TrialRunner(jobs=4).map([TrialSpec("smm", cycle_graph(5))])
        assert ex.stabilized

    def test_empty_batch(self):
        assert TrialRunner(jobs=4).map([]) == []

    def test_run_trials_helper(self):
        specs = self._specs(count=2)
        a = run_trials(specs, jobs=1)
        b = run_trials(specs, jobs=2)
        for x, y in zip(a, b):
            assert executions_equal(x, y)

    def test_worker_failure_propagates(self):
        # a bad spec raises the original error, pool or no pool
        specs = [TrialSpec("smm", cycle_graph(4)), TrialSpec("nope", cycle_graph(4))]
        with pytest.raises(ExperimentError):
            TrialRunner(jobs=1).map(specs)
        with pytest.raises(ExperimentError):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                TrialRunner(jobs=2).map(specs)

    @pytest.mark.parametrize(
        "key,factory,exc_type",
        [
            ("boom-os", _raise_trial_oserror, OSError),
            ("boom-rt", _raise_trial_runtimeerror, RuntimeError),
        ],
    )
    def test_trial_exception_not_mistaken_for_pool_death(
        self, key, factory, exc_type
    ):
        # regression: a trial raising OSError/RuntimeError used to be
        # indistinguishable from pool death — the runner warned and
        # silently re-ran every spec inline.  The original error must
        # propagate from the worker processes with no degradation warning.
        register_protocol(key, factory)
        try:
            specs = [
                TrialSpec("smm", cycle_graph(4)),
                TrialSpec(key, cycle_graph(4)),
            ]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(exc_type, match="trial-scoped"):
                    TrialRunner(jobs=2).map(specs)
        finally:
            del PROTOCOLS[key]

    def test_telemetry_identical_across_jobs(self):
        specs = [
            dataclasses.replace(spec, telemetry=True)
            for spec in self._specs(count=3)
        ]
        inline = TrialRunner(jobs=1).map(specs)
        pooled = TrialRunner(jobs=2).map(specs)
        for a, b in zip(inline, pooled):
            assert a.telemetry is not None and b.telemetry is not None
            assert a.telemetry.moves == b.telemetry.moves
            assert a.telemetry.moves_by_rule == b.telemetry.moves_by_rule
            assert a.telemetry.per_round_moves == b.telemetry.per_round_moves
            assert a.telemetry.node_type_census == b.telemetry.node_type_census


class TestResolveJobs:
    def test_positive_passthrough(self):
        assert resolve_jobs(3) == 3

    def test_zero_and_none_mean_all_cores(self):
        import os

        expected = os.cpu_count() or 1
        assert resolve_jobs(0) == expected
        assert resolve_jobs(None) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestExperimentDeterminism:
    def test_e1_rows_identical_across_jobs(self):
        """The acceptance check: E1 with jobs=4 is bit-identical to
        jobs=1 (same RNG streams, same rows)."""
        from repro.experiments import e1_smm_convergence

        kwargs = dict(families=("cycle", "tree"), sizes=(4, 8), trials=4, seed=101)
        serial = e1_smm_convergence.run(jobs=1, **kwargs)
        fanned = e1_smm_convergence.run(jobs=4, **kwargs)
        assert serial.rows == fanned.rows
        assert serial.notes == fanned.notes

    def test_e2_rows_identical_across_jobs(self):
        from repro.experiments import e2_sis_convergence

        kwargs = dict(families=("cycle",), sizes=(4, 8), trials=4, seed=102)
        serial = e2_sis_convergence.run(jobs=1, **kwargs)
        fanned = e2_sis_convergence.run(jobs=3, **kwargs)
        assert serial.rows == fanned.rows

    def test_e5_rows_identical_across_jobs(self):
        from repro.experiments import e5_baseline

        kwargs = dict(families=("cycle",), sizes=(8,), trials=2, seed=105)
        serial = e5_baseline.run(jobs=1, **kwargs)
        fanned = e5_baseline.run(jobs=4, **kwargs)
        assert serial.rows == fanned.rows


class TestSpecPickling:
    def test_spec_roundtrip(self):
        import pickle

        g = cycle_graph(6)
        spec = TrialSpec(
            "smm",
            g,
            Configuration({i: None for i in g.nodes}),
            daemon="central",
            max_rounds=200,
            seed=9,
            options=(("strategy", "random"),),
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert executions_equal(execute_trial(clone), execute_trial(spec))

    def test_graph_cache_not_pickled(self):
        import pickle

        g = cycle_graph(6)
        g.neighbors(0), g.edges, g.dense_index(), hash(g)  # build the views
        clone = pickle.loads(pickle.dumps(g))
        assert clone._adj is None and clone._edges is None and clone._pos is None
        assert clone._hash is None
        assert clone == g


class TestFingerprintFormat:
    """Pin the versioned fingerprint format (PR 7 satellite).

    The serve result store and resume checkpoints are content-addressed
    by these hashes; an accidental payload change would silently replay
    stale artefacts.  The pinned literals were computed with
    ``SCHEMA_VERSION = 2`` — if a schema bump changes them, update BOTH
    the literals and ``SCHEMA_VERSION``'s history note deliberately.
    """

    def test_pinned_fingerprints(self):
        spec = TrialSpec(protocol="smm", graph=cycle_graph(6), seed=7)
        assert spec_fingerprint(spec) == "fee222a31e568303"
        rich = TrialSpec(
            protocol="smm",
            graph=cycle_graph(6),
            daemon="central",
            seed=7,
            options=(("step_limit", 500),),
        )
        assert spec_fingerprint(rich) == "8ce0656b43130cc1"

    def test_schema_version_is_folded_in(self, monkeypatch):
        from repro.analysis import serialize

        spec = TrialSpec(protocol="smm", graph=cycle_graph(6), seed=7)
        before = spec_fingerprint(spec)
        monkeypatch.setattr(serialize, "SCHEMA_VERSION", 999)
        assert spec_fingerprint(spec) != before

    def test_shape_and_determinism(self):
        spec = TrialSpec(protocol="smm", graph=cycle_graph(6), seed=7)
        fp = spec_fingerprint(spec)
        assert len(fp) == 16
        assert int(fp, 16) >= 0  # hex
        assert spec_fingerprint(spec) == fp
        other = dataclasses.replace(spec, seed=8)
        assert spec_fingerprint(other) != fp

    def test_observation_flags_do_not_change_fingerprint(self):
        """``trace`` and ``convergence`` observe a run without changing
        its result, so they are excluded from the fingerprint — toggling
        ``--convergence`` must keep serving cached results and resuming
        old checkpoints.  The pinned literals double as the regression:
        they were computed before the flags existed."""
        spec = TrialSpec(protocol="smm", graph=cycle_graph(6), seed=7)
        fp = spec_fingerprint(spec)
        assert fp == "fee222a31e568303"
        assert spec_fingerprint(
            dataclasses.replace(spec, convergence=True)
        ) == fp
        assert spec_fingerprint(dataclasses.replace(spec, trace=True)) == fp
        assert spec_fingerprint(
            dataclasses.replace(spec, trace=True, convergence=True)
        ) == fp
        rich = TrialSpec(
            protocol="smm",
            graph=cycle_graph(6),
            daemon="central",
            seed=7,
            options=(("step_limit", 500),),
        )
        assert spec_fingerprint(
            dataclasses.replace(rich, convergence=True)
        ) == "8ce0656b43130cc1"


class TestOwnerHooks:
    """The long-lived-owner surface: on_result callbacks and
    cooperative cancellation (what `repro serve` drives)."""

    def _specs(self, count=4):
        graph = cycle_graph(8)
        return [
            TrialSpec("smm", graph, seed=100 + i) for i in range(count)
        ]

    def test_on_result_sees_every_trial_inline(self):
        seen = []
        runner = TrialRunner(
            jobs=1,
            batch_sweep=False,
            on_result=lambda i, outcome, resumed: seen.append(
                (i, outcome, resumed)
            ),
        )
        results = runner.map(self._specs())
        assert [s[0] for s in seen] == [0, 1, 2, 3]
        assert all(outcome.stabilized for _, outcome, _ in seen)
        assert all(resumed is False for _, _, resumed in seen)
        assert len(results) == 4

    def test_on_result_sees_every_trial_pooled(self):
        seen = []
        runner = TrialRunner(
            jobs=2,
            batch_sweep=False,
            on_result=lambda i, outcome, resumed: seen.append(i),
        )
        results = runner.map(self._specs())
        assert sorted(seen) == [0, 1, 2, 3]
        assert len(results) == 4

    def test_on_result_with_batch_dispatch(self):
        seen = []
        runner = TrialRunner(
            jobs=1,
            batch_sweep=True,
            on_result=lambda i, outcome, resumed: seen.append(i),
        )
        runner.map(self._specs())
        assert sorted(seen) == [0, 1, 2, 3]

    def test_on_result_resilient_and_resumed(self, tmp_path):
        ck = tmp_path / "sweep.jsonl"
        first = []
        TrialRunner(
            jobs=1,
            checkpoint=str(ck),
            on_result=lambda i, outcome, resumed: first.append(resumed),
        ).map(self._specs())
        assert first == [False] * 4
        second = []
        results = TrialRunner(
            jobs=1,
            checkpoint=str(ck),
            on_result=lambda i, outcome, resumed: second.append(resumed),
        ).map(self._specs())
        assert second == [True] * 4  # everything came from the checkpoint
        assert len(results) == 4

    def test_results_identical_with_and_without_hooks(self):
        plain = run_trials(self._specs())
        hooked = TrialRunner(
            jobs=1, on_result=lambda *a: None
        ).map(self._specs())
        for a, b in zip(plain, hooked):
            assert a.final == b.final and a.moves == b.moves

    def test_preset_cancel_raises_before_work(self):
        import threading

        from repro.parallel import SweepCancelled

        cancel = threading.Event()
        cancel.set()
        runner = TrialRunner(jobs=1, cancel=cancel)
        with pytest.raises(SweepCancelled):
            runner.map(self._specs())

    def test_cancel_mid_sweep_inline(self):
        import threading

        from repro.parallel import SweepCancelled

        cancel = threading.Event()
        seen = []

        def hook(i, outcome, resumed):
            seen.append(i)
            if len(seen) == 2:
                cancel.set()

        runner = TrialRunner(
            jobs=1, batch_sweep=False, cancel=cancel, on_result=hook
        )
        with pytest.raises(SweepCancelled):
            runner.map(self._specs())
        assert len(seen) == 2  # stopped at the next scheduling point

    def test_cancel_mid_sweep_resilient_checkpoints(self, tmp_path):
        import threading

        from repro.parallel import SweepCancelled

        ck = tmp_path / "sweep.jsonl"
        cancel = threading.Event()
        seen = []

        def hook(i, outcome, resumed):
            seen.append(i)
            if len(seen) == 2:
                cancel.set()

        runner = TrialRunner(
            jobs=1, checkpoint=str(ck), cancel=cancel, on_result=hook
        )
        with pytest.raises(SweepCancelled):
            runner.map(self._specs())
        # the completed trials were flushed before the unwind: a fresh
        # runner resumes them instead of recomputing
        resumed = []
        results = TrialRunner(
            jobs=1,
            checkpoint=str(ck),
            on_result=lambda i, outcome, r: resumed.append(r),
        ).map(self._specs())
        assert len(results) == 4
        assert resumed.count(True) >= 2

    def test_expired_deadline_raises_before_work(self):
        import time as _time

        from repro.parallel import SweepCancelled

        runner = TrialRunner(jobs=1, deadline=_time.time() - 1.0)
        with pytest.raises(SweepCancelled) as excinfo:
            runner.map(self._specs())
        assert excinfo.value.reason == "deadline"

    def test_deadline_mid_sweep_inline(self):
        import time as _time

        from repro.parallel import SweepCancelled

        state = {"deadline": _time.time() + 3600.0}
        seen = []

        def hook(i, outcome, resumed):
            seen.append(i)
            if len(seen) == 2:
                state["runner"].deadline = _time.time() - 1.0

        runner = TrialRunner(
            jobs=1, batch_sweep=False, on_result=hook,
            deadline=state["deadline"],
        )
        state["runner"] = runner
        with pytest.raises(SweepCancelled) as excinfo:
            runner.map(self._specs())
        assert excinfo.value.reason == "deadline"
        assert len(seen) == 2  # stopped at the next scheduling point

    def test_cancel_reason_defaults_to_cancel(self):
        import threading

        from repro.parallel import SweepCancelled

        cancel = threading.Event()
        cancel.set()
        runner = TrialRunner(jobs=1, cancel=cancel)
        with pytest.raises(SweepCancelled) as excinfo:
            runner.map(self._specs())
        assert excinfo.value.reason == "cancel"
