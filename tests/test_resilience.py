"""Tests for the fault-campaign engine and the resilient trial runner.

Covers the :mod:`repro.resilience` package (plans, the campaign driver,
recovery metrics), the regression fixes in :mod:`repro.core.faults`,
and the resilient mode of :class:`repro.parallel.TrialRunner` (per-trial
timeouts, bounded retry, checkpoint/resume, failed-trial records).
The cross-backend byte-identity of campaigns is pinned separately in
``tests/test_engine_equivalence.py``.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.core.configuration import Configuration
from repro.core.executor import run_central, run_distributed, run_synchronous
from repro.core.faults import (
    migrate_configuration,
    perturb_configuration,
    perturb_victims,
    random_configuration,
)
from repro.core.transform import run_synchronized_central
from repro.engine import run as engine_run
from repro.errors import ExperimentError, ProtocolError, StabilizationTimeout
from repro.graphs.generators import cycle_graph, path_graph, random_tree
from repro.graphs.graph import Graph
from repro.matching.smm import SynchronousMaximalMatching
from repro.matching.verify import verify_execution as verify_matching
from repro.mis.sis import SynchronousMaximalIndependentSet
from repro.parallel import (
    FailedTrial,
    TrialRunner,
    TrialSpec,
    run_trials,
    spec_fingerprint,
)
from repro.parallel.trial_runner import PROTOCOLS, register_protocol
from repro.resilience import FaultEvent, FaultPlan, run_reference_campaign
from repro.rng import ensure_rng


class _SleepyMatching(SynchronousMaximalMatching):
    """SMM that hangs in every rule evaluation — the timeout fixture.

    Module-level so forked workers can unpickle it; the registry entry
    itself is inherited through fork (registration happens in the parent
    before the worker processes start).
    """

    def enabled_rule(self, view):
        time.sleep(5.0)
        return super().enabled_rule(view)


class TestFaultPlan:
    def make_plan(self) -> FaultPlan:
        return FaultPlan(
            events=(
                FaultEvent(round=9, kind="churn", churn=2),
                FaultEvent(round=4, kind="perturb", fraction=0.3),
                FaultEvent(round=14, kind="crash", nodes=(1, 2)),
                FaultEvent(round=14, kind="rejoin"),
                FaultEvent(
                    round=20,
                    kind="churn",
                    add_edges=((0, 2),),
                    remove_edges=((0, 1),),
                ),
            ),
            seed=5,
        )

    def test_events_sorted_by_round_stable(self):
        plan = self.make_plan()
        assert [ev.round for ev in plan.events] == [4, 9, 14, 14, 20]
        # same-round events keep their original relative order
        assert plan.events[2].kind == "crash"
        assert plan.events[3].kind == "rejoin"

    def test_json_roundtrip(self):
        plan = self.make_plan()
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_save_load(self, tmp_path):
        plan = self.make_plan()
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.load(path) == plan

    def test_unknown_event_field_rejected(self):
        with pytest.raises(ExperimentError, match="unknown fault-event"):
            FaultPlan.from_dict(
                {"events": [{"round": 1, "kind": "perturb", "victims": [1]}]}
            )

    def test_missing_round_or_kind_rejected(self):
        with pytest.raises(ExperimentError, match="'round' and 'kind'"):
            FaultPlan.from_dict({"events": [{"kind": "perturb"}]})

    def test_invalid_json_rejected(self):
        with pytest.raises(ExperimentError, match="not valid JSON"):
            FaultPlan.from_json("{nope")
        with pytest.raises(ExperimentError, match="must be an object"):
            FaultPlan.from_json("[1, 2]")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"round": 1, "kind": "meteor-strike"},
            {"round": -1, "kind": "perturb"},
            {"round": 1, "kind": "perturb", "fraction": 1.5},
            {"round": 1, "kind": "perturb", "count": -2},
        ],
    )
    def test_invalid_event_rejected(self, kwargs):
        with pytest.raises(ExperimentError):
            FaultEvent(**kwargs)

    def test_victim_count_rules(self):
        assert FaultEvent(round=1, kind="perturb", count=3).victim_count(10) == 3
        assert FaultEvent(round=1, kind="perturb", count=99).victim_count(10) == 10
        # default fraction 0.25, at least one victim when positive
        assert FaultEvent(round=1, kind="perturb").victim_count(12) == 3
        assert (
            FaultEvent(round=1, kind="perturb", fraction=0.01).victim_count(10)
            == 1
        )
        assert (
            FaultEvent(round=1, kind="perturb", fraction=0.0).victim_count(10)
            == 0
        )

    def test_event_rng_deterministic_and_overridable(self):
        plan = self.make_plan()
        a = plan.event_rng(0).integers(0, 1 << 30, size=4)
        b = plan.event_rng(0).integers(0, 1 << 30, size=4)
        assert (a == b).all()
        # distinct events get independent streams
        c = plan.event_rng(1).integers(0, 1 << 30, size=4)
        assert not (a == c).all()
        # an explicit event seed overrides the derived one
        ev = FaultEvent(round=1, kind="perturb", seed=123)
        seeded = FaultPlan(events=(ev,), seed=5)
        expect = np.random.default_rng(123).integers(0, 1 << 30, size=4)
        assert (seeded.event_rng(0).integers(0, 1 << 30, size=4) == expect).all()


class TestCampaignDriver:
    def test_idle_fill_to_event_round(self):
        # SMM on a small cycle stabilizes in a handful of rounds; an
        # event at round 20 must still fire — quiescent rounds are
        # counted up to it (beacons keep flowing in a stable system)
        graph = cycle_graph(8)
        protocol = SynchronousMaximalMatching()
        config = random_configuration(protocol, graph, ensure_rng(0))
        plan = FaultPlan(events=(FaultEvent(round=20, kind="perturb"),), seed=1)
        ex = run_reference_campaign(protocol, graph, config, fault_plan=plan)
        record = ex.telemetry.fault_events[0]
        assert record["round"] == 20
        assert ex.rounds >= 20
        assert ex.stabilized and ex.legitimate
        verify_matching(graph, ex)

    def test_history_has_one_extra_entry_per_event(self):
        graph = cycle_graph(8)
        protocol = SynchronousMaximalMatching()
        config = random_configuration(protocol, graph, ensure_rng(1))
        plan = FaultPlan(
            events=(
                FaultEvent(round=10, kind="perturb"),
                FaultEvent(round=15, kind="perturb"),
            ),
            seed=2,
        )
        ex = run_reference_campaign(
            protocol, graph, config, fault_plan=plan, record_history=True
        )
        # initial config + one per round + the post-event snapshots
        assert len(ex.history) == ex.rounds + 1 + len(plan.events)

    def test_recovery_record_shape(self):
        graph = random_tree(10, ensure_rng(4))
        protocol = SynchronousMaximalIndependentSet()
        config = random_configuration(protocol, graph, ensure_rng(4))
        plan = FaultPlan(
            events=(FaultEvent(round=12, kind="perturb", fraction=0.5),),
            seed=3,
        )
        ex = run_reference_campaign(protocol, graph, config, fault_plan=plan)
        (record,) = ex.telemetry.fault_events
        assert set(record) == {
            "index",
            "kind",
            "round",
            "sites",
            "recovered",
            "recovery_rounds",
            "moves",
            "moves_by_rule",
            "touched",
            "radius",
        }
        assert record["index"] == 0 and record["kind"] == "perturb"
        assert record["recovered"] is True
        assert record["touched"] <= graph.n
        assert json.dumps(record)  # telemetry records stay JSON-clean

    def test_message_loss_is_noop_for_bit_protocols(self):
        # SIS states reference no neighbour, so evicting a silent node
        # from everyone's tables changes nobody's state: recovery is
        # instant by construction
        graph = cycle_graph(9)
        protocol = SynchronousMaximalIndependentSet()
        config = random_configuration(protocol, graph, ensure_rng(2))
        plan = FaultPlan(
            events=(FaultEvent(round=12, kind="message_loss", count=2),),
            seed=4,
        )
        ex = run_reference_campaign(protocol, graph, config, fault_plan=plan)
        (record,) = ex.telemetry.fault_events
        assert record["recovery_rounds"] == 0
        assert record["touched"] == 0
        assert ex.stabilized and ex.legitimate

    def test_crash_rejoin_restores_topology(self):
        graph = cycle_graph(8)
        protocol = SynchronousMaximalMatching()
        config = random_configuration(protocol, graph, ensure_rng(3))
        plan = FaultPlan(
            events=(
                FaultEvent(round=10, kind="crash", nodes=(0,)),
                FaultEvent(round=20, kind="rejoin"),
            ),
            seed=5,
        )
        ex = run_reference_campaign(protocol, graph, config, fault_plan=plan)
        crash, rejoin = ex.telemetry.fault_events
        assert crash["kind"] == "crash" and rejoin["kind"] == "rejoin"
        assert 0 in crash["sites"]
        assert ex.stabilized and ex.legitimate
        # after the rejoin every downed link is back: the final
        # configuration is a maximal matching of the ORIGINAL graph
        verify_matching(graph, ex)

    def test_crash_already_crashed_rejected(self):
        graph = cycle_graph(6)
        plan = FaultPlan(
            events=(
                FaultEvent(round=8, kind="crash", nodes=(2,)),
                FaultEvent(round=12, kind="crash", nodes=(2,)),
            ),
        )
        with pytest.raises(ExperimentError, match="already-crashed"):
            run_reference_campaign(
                SynchronousMaximalMatching(), graph, fault_plan=plan
            )

    def test_events_beyond_budget_never_fire(self):
        graph = cycle_graph(8)
        protocol = SynchronousMaximalMatching()
        config = random_configuration(protocol, graph, ensure_rng(5))
        plan = FaultPlan(events=(FaultEvent(round=50, kind="perturb"),))
        ex = run_reference_campaign(
            protocol, graph, config, fault_plan=plan, max_rounds=10
        )
        assert ex.telemetry.fault_events == []
        plain = run_synchronous(protocol, graph, config, max_rounds=10)
        assert ex.rounds == plain.rounds and ex.final == plain.final

    def test_monitors_rejected(self):
        plan = FaultPlan(events=(FaultEvent(round=2, kind="perturb"),))
        with pytest.raises(ExperimentError, match="monitor"):
            run_reference_campaign(
                SynchronousMaximalMatching(),
                cycle_graph(6),
                fault_plan=plan,
                monitors=(lambda *a, **k: None,),
            )

    def test_raise_on_timeout(self):
        graph = cycle_graph(10)
        protocol = SynchronousMaximalMatching()
        config = random_configuration(protocol, graph, ensure_rng(6))
        plan = FaultPlan(events=(FaultEvent(round=1, kind="perturb"),), seed=1)
        with pytest.raises(StabilizationTimeout):
            run_reference_campaign(
                protocol,
                graph,
                config,
                fault_plan=plan,
                max_rounds=1,
                raise_on_timeout=True,
            )

    @pytest.mark.parametrize(
        "runner", [run_central, run_distributed, run_synchronized_central]
    )
    def test_other_daemons_reject_fault_plans(self, runner):
        plan = FaultPlan(events=(FaultEvent(round=2, kind="perturb"),))
        with pytest.raises(ExperimentError, match="fault campaign"):
            runner(
                SynchronousMaximalMatching(),
                cycle_graph(6),
                rng=0,
                fault_plan=plan,
            )

    def test_engine_front_door_runs_campaigns(self):
        # run_synchronous(fault_plan=...) and engine run() agree
        graph = cycle_graph(9)
        protocol = SynchronousMaximalMatching()
        config = random_configuration(protocol, graph, ensure_rng(7))
        plan = FaultPlan(
            events=(FaultEvent(round=11, kind="churn", churn=2),), seed=9
        )
        direct = run_synchronous(protocol, graph, config, fault_plan=plan)
        engined = engine_run(
            "smm", graph, config, backend="reference", fault_plan=plan
        )
        assert direct.final == engined.final
        assert direct.rounds == engined.rounds
        assert (
            direct.telemetry.fault_events == engined.telemetry.fault_events
        )


class _ResetOnMigrate:
    """Minimal protocol stub: validate_state always rejects with the
    library's own error type, so migration resets every node."""

    def validate_state(self, node, graph, state):
        raise ProtocolError("never valid")

    def initial_state(self, node, graph):
        return "INIT"

    def validate_configuration(self, graph, config):
        return None


class _BuggyValidate(_ResetOnMigrate):
    """validate_state crashes with a non-repro error — a protocol bug
    that migration must surface, not swallow."""

    def validate_state(self, node, graph, state):
        raise TypeError("boom")


class TestFaultsRegressions:
    def test_migrate_resets_on_protocol_error(self):
        graph = cycle_graph(4)
        config = Configuration({i: i for i in range(4)})
        out = migrate_configuration(_ResetOnMigrate(), graph, graph, config)
        assert all(out[i] == "INIT" for i in range(4))

    def test_migrate_propagates_foreign_errors(self):
        # the old bare `except Exception` silently reset states on ANY
        # error; a buggy validate_state must now raise through
        graph = cycle_graph(4)
        config = Configuration({i: i for i in range(4)})
        with pytest.raises(TypeError, match="boom"):
            migrate_configuration(_BuggyValidate(), graph, graph, config)

    def test_perturb_victims_keep_id_types(self):
        # the draw goes through dense indices and maps back via the node
        # tuple, so victims are plain Python ints (not numpy scalars)
        # even for sparse, non-contiguous id spaces
        graph = Graph([5, 17, 42, 99], [(5, 17), (17, 42), (42, 99)])
        victims = perturb_victims(graph, 3, ensure_rng(0))
        assert len(victims) == 3 and len(set(victims)) == 3
        assert set(victims) <= set(graph.nodes)
        assert all(type(v) is int for v in victims)
        ints = perturb_victims(path_graph(5), 4, ensure_rng(0))
        assert all(type(v) is int for v in ints)

    def test_perturb_configuration_sparse_ids(self):
        graph = Graph([5, 17, 42, 99], [(5, 17), (17, 42), (42, 99)])
        protocol = SynchronousMaximalMatching()
        config = Configuration({v: None for v in graph.nodes})
        out = perturb_configuration(
            protocol, graph, config, fraction=1.0, rng=ensure_rng(1)
        )
        protocol.validate_configuration(graph, out)
        assert set(out.as_dict()) == set(graph.nodes)
        # perturbed states reference real ids of the original graph
        for node, state in out.as_dict().items():
            assert state is None or type(state) is int


def _make_specs(count=4, seed0=0):
    graph = cycle_graph(9)
    protocol = SynchronousMaximalMatching()
    return [
        TrialSpec(
            protocol="smm",
            graph=graph,
            config=random_configuration(protocol, graph, ensure_rng(seed0 + s)),
        )
        for s in range(count)
    ]


class TestResilientRunner:
    def test_knob_validation(self):
        with pytest.raises(ValueError):
            TrialRunner(timeout=0)
        with pytest.raises(ValueError):
            TrialRunner(retries=-1)
        assert not TrialRunner().resilient
        assert TrialRunner(timeout=5).resilient
        assert TrialRunner(retries=1).resilient
        assert TrialRunner(checkpoint="x.jsonl").resilient

    def test_resilient_matches_legacy(self, tmp_path):
        specs = _make_specs()
        legacy = TrialRunner(jobs=1).map(specs)
        resilient = TrialRunner(
            jobs=1, timeout=60, retries=1, checkpoint=str(tmp_path / "ck.jsonl")
        ).map(specs)
        for a, b in zip(legacy, resilient):
            assert a.final == b.final
            assert a.rounds == b.rounds
            assert a.moves_by_rule == b.moves_by_rule

    def test_kill_resume_runs_exactly_the_missing_trials(self, tmp_path):
        specs = _make_specs(4)
        ck = tmp_path / "sweep.jsonl"
        uninterrupted = TrialRunner(jobs=1).map(specs)
        full = TrialRunner(jobs=1, checkpoint=str(ck)).map(specs)
        lines = ck.read_text().strip().splitlines()
        assert len(lines) == 4
        # simulate a kill after 2 of 4 trials: truncate the checkpoint
        ck.write_text("\n".join(lines[:2]) + "\n")
        resumed = TrialRunner(jobs=1, checkpoint=str(ck)).map(specs)
        # exactly n - k = 2 new records were appended
        assert len(ck.read_text().strip().splitlines()) == 4
        for a, b, c in zip(uninterrupted, full, resumed):
            assert a.final == b.final == c.final
            assert a.rounds == b.rounds == c.rounds
            assert a.moves_by_rule == b.moves_by_rule == c.moves_by_rule

    def test_torn_checkpoint_tail_loses_no_later_record(self, tmp_path):
        # a kill mid-write leaves the last record without its newline;
        # the resumed sweep must not glue its first record onto it, or
        # the next resume discards that record and re-runs its trial
        specs = _make_specs(4)
        ck = tmp_path / "sweep.jsonl"
        TrialRunner(jobs=1, checkpoint=str(ck)).map(specs)
        lines = ck.read_text().splitlines()
        ck.write_text("\n".join(lines[:2]) + "\n" + lines[2][: len(lines[2]) // 2])
        runs = []

        def count(index, outcome, resumed):
            if not resumed:
                runs.append(index)

        TrialRunner(jobs=1, checkpoint=str(ck), on_result=count).map(specs)
        assert runs == [2, 3]
        runs.clear()
        results = TrialRunner(jobs=1, checkpoint=str(ck), on_result=count).map(
            specs
        )
        assert runs == []  # every trial came back from the checkpoint
        assert not any(isinstance(r, FailedTrial) for r in results)

    def test_checkpoint_ignores_corrupt_and_stale_lines(self, tmp_path):
        specs = _make_specs(2)
        ck = tmp_path / "sweep.jsonl"
        fingerprint = spec_fingerprint(specs[0])
        ck.write_text(
            "this is not json\n"
            + json.dumps(
                {"index": 1, "fingerprint": "0123456789abcdef", "status": "ok"}
            )
            + "\n"
        )
        results = TrialRunner(jobs=1, checkpoint=str(ck)).map(specs)
        assert all(not isinstance(r, FailedTrial) for r in results)
        # both trials re-ran (the stale fingerprint did not match)
        assert spec_fingerprint(specs[0]) == fingerprint
        assert len(ck.read_text().strip().splitlines()) == 2 + 2

    def test_spec_fingerprint_sensitivity(self):
        a, b = _make_specs(2)
        assert spec_fingerprint(a) == spec_fingerprint(a)
        assert spec_fingerprint(a) != spec_fingerprint(b)
        plan = FaultPlan(events=(FaultEvent(round=3, kind="perturb"),))
        with_plan = TrialSpec(
            protocol=a.protocol,
            graph=a.graph,
            config=a.config,
            options=(("fault_plan", plan),),
        )
        assert spec_fingerprint(with_plan) != spec_fingerprint(a)

    def test_deterministic_error_becomes_failed_trial_without_retry(
        self, tmp_path
    ):
        specs = _make_specs(3)
        broken = TrialSpec(protocol="no-such-protocol", graph=specs[0].graph)
        batch = [specs[0], broken, specs[2]]
        results = TrialRunner(jobs=1, retries=2).map(batch)
        assert not isinstance(results[0], FailedTrial)
        assert not isinstance(results[2], FailedTrial)
        failure = results[1]
        assert isinstance(failure, FailedTrial)
        assert failure.index == 1
        assert failure.error_type == "ExperimentError"
        assert failure.attempts == 1  # the trial's own error: no retry
        assert not failure.timed_out

    def test_timeout_retries_then_failed_trial(self):
        register_protocol("sleepy-test", _SleepyMatching)
        try:
            graph = cycle_graph(6)
            good = _make_specs(1)[0]
            sleepy = TrialSpec(protocol="sleepy-test", graph=graph)
            results = TrialRunner(
                jobs=1, timeout=0.5, retries=1, backoff=0.05
            ).map([good, sleepy])
        finally:
            del PROTOCOLS["sleepy-test"]
        assert not isinstance(results[0], FailedTrial)  # batch survived
        failure = results[1]
        assert isinstance(failure, FailedTrial)
        assert failure.timed_out
        assert failure.error_type == "Timeout"
        assert failure.attempts == 2  # first run + one retry

    def test_failed_trials_checkpoint_and_resume(self, tmp_path):
        # a failed record is checkpointed too: resuming does not re-run
        # the known-bad trial
        specs = _make_specs(2)
        broken = TrialSpec(protocol="no-such-protocol", graph=specs[0].graph)
        ck = tmp_path / "sweep.jsonl"
        first = TrialRunner(jobs=1, checkpoint=str(ck)).map([specs[0], broken])
        assert isinstance(first[1], FailedTrial)
        lines_before = len(ck.read_text().strip().splitlines())
        again = TrialRunner(jobs=1, checkpoint=str(ck)).map([specs[0], broken])
        assert isinstance(again[1], FailedTrial)
        assert again[1].error_type == first[1].error_type
        assert len(ck.read_text().strip().splitlines()) == lines_before

    def test_run_trials_forwards_resilience_knobs(self, tmp_path):
        specs = _make_specs(2)
        ck = tmp_path / "ck.jsonl"
        results = run_trials(
            specs, jobs=1, timeout=60, retries=1, checkpoint=str(ck)
        )
        assert len(results) == 2
        assert ck.exists()
        baseline = run_trials(specs)
        for a, b in zip(baseline, results):
            assert a.final == b.final

    def test_campaign_specs_roundtrip_through_checkpoint(self, tmp_path):
        # a campaign result (telemetry + fault_events) survives the
        # JSONL checkpoint: the resumed value equals the computed one
        graph = cycle_graph(9)
        protocol = SynchronousMaximalMatching()
        plan = FaultPlan(
            events=(FaultEvent(round=11, kind="perturb", fraction=0.4),),
            seed=6,
        )
        spec = TrialSpec(
            protocol="smm",
            graph=graph,
            config=random_configuration(protocol, graph, ensure_rng(8)),
            options=(("fault_plan", plan),),
        )
        ck = tmp_path / "ck.jsonl"
        (computed,) = TrialRunner(jobs=1, checkpoint=str(ck)).map([spec])
        (resumed,) = TrialRunner(jobs=1, checkpoint=str(ck)).map([spec])
        assert resumed.final == computed.final
        assert resumed.telemetry is not None
        assert (
            resumed.telemetry.fault_events == computed.telemetry.fault_events
        )
