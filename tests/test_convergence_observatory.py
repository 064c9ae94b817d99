"""Tests for :mod:`repro.observability.convergence` — the proof-aware
convergence observatory (potential functions, safety monitors, bound
conformance) and its surfacing through the engine, metrics, serve jobs,
streaming reports, dash and the bench trajectory.

The load-bearing property: the SMM variant function Φ strictly
decreases on every central-daemon move (the Theorem 1 proof shape),
and is non-increasing along synchronous executions.  Everything else
is plumbing around quantities that are already cross-backend pinned —
the byte-identity half lives in ``test_engine_equivalence.py``.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import engine
from repro.core.faults import random_configuration
from repro.engine import make_protocol
from repro.graphs.generators import (
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
    random_tree,
    star_graph,
)
from repro.observability import MetricsRegistry, merge_telemetry
from repro.observability.convergence import (
    SMM_TYPE_WEIGHTS,
    bound_for,
    convergence_report,
    domination_violations,
    independence_violations,
    matching_violations,
    pointer_violations,
    potential_series,
    progress_estimate,
    protocol_family,
    sis_enabled_count,
    smm_potential,
    smm_potential_from_census,
    smm_unmatched_weight,
)
from repro.observability.metrics import record_run_result
from repro.rng import ensure_rng


def _graphs():
    return [
        ("cycle", cycle_graph(9)),
        ("path", path_graph(8)),
        ("star", star_graph(7)),
        ("tree", random_tree(10, rng=4)),
        ("grid", grid_graph(3, 3)),
        ("er", erdos_renyi_graph(12, 0.3, rng=5)),
    ]


class TestSmmPotential:
    def test_weights_are_the_documented_fig2_order(self):
        assert SMM_TYPE_WEIGHTS == {
            "M": 0, "A1": 1, "PA": 2, "A0": 3, "PM": 4, "PP": 5,
        }
        # the matched-count term outweighs any single node's class
        # weight (for any graph large enough to hold an edge), so
        # matching one more edge always lowers Φ
        for n in (1, 2, 10, 1000):
            assert smm_unmatched_weight(n) == 2 * n + 1
        for n in (3, 10, 1000):
            assert smm_unmatched_weight(n) > max(SMM_TYPE_WEIGHTS.values())

    @pytest.mark.parametrize("seed", (0, 1, 2, 3))
    def test_strictly_decreases_on_central_daemon_moves(self, seed):
        """The Theorem-1 shape: under the central daemon every applied
        move strictly decreases Φ, so Φ is a variant function."""
        for name, graph in _graphs():
            protocol = make_protocol("smm")
            config = random_configuration(protocol, graph, ensure_rng(seed))
            result = engine.run(
                "smm", graph, config, daemon="central", rng=seed,
                record_history=True,
            )
            assert result.stabilized
            series = [smm_potential(graph, c) for c in result.history]
            for t, (a, b) in enumerate(zip(series, series[1:])):
                assert b < a, (name, seed, t, series)

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_non_increasing_along_synchronous_runs(self, seed):
        for name, graph in _graphs():
            protocol = make_protocol("smm")
            config = random_configuration(protocol, graph, ensure_rng(seed))
            result = engine.run(
                "smm", graph, config, rng=seed, telemetry=True
            )
            series = potential_series(result, graph)
            assert series is not None and len(series) == result.rounds + 1
            assert all(b <= a for a, b in zip(series, series[1:])), (
                name, series,
            )

    def test_census_potential_equals_direct_classification(self):
        for _, graph in _graphs():
            protocol = make_protocol("smm")
            config = random_configuration(protocol, graph, ensure_rng(7))
            result = engine.run("smm", graph, config, telemetry=True)
            from_census = [
                smm_potential_from_census(census, graph.n)
                for census in result.telemetry.node_type_census
            ]
            assert potential_series(result, graph) == from_census
            assert from_census[-1] == smm_potential(graph, result.final)

    def test_vectorized_kernel_potential_matches(self):
        from repro.matching.smm_vectorized import VectorizedSMM

        graph = erdos_renyi_graph(16, 0.25, rng=8)
        protocol = make_protocol("smm")
        config = random_configuration(protocol, graph, ensure_rng(8))
        kernel = VectorizedSMM(graph)
        assert kernel.potential(kernel.encode(config)) == smm_potential(
            graph, config
        )


class TestSisPotential:
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_series_from_counters_equals_direct_evaluation(self, seed):
        """Under the synchronous daemon every enabled node fires, so
        round ``t+1``'s move count equals the enabled count after round
        ``t`` — the potential series falls out of telemetry for free."""
        for name, graph in _graphs():
            protocol = make_protocol("sis")
            config = random_configuration(protocol, graph, ensure_rng(seed))
            counters = engine.run("sis", graph, config, telemetry=True)
            direct = engine.run("sis", graph, config, record_history=True)
            from_counters = potential_series(counters, graph)
            from_history = [
                sis_enabled_count(graph, c) for c in direct.history
            ]
            assert from_counters == from_history, name
            assert from_counters[-1] == 0  # quiescent = no enabled node

    def test_vectorized_kernel_methods_match(self):
        from repro.mis.sis_vectorized import VectorizedSIS

        graph = erdos_renyi_graph(16, 0.25, rng=9)
        protocol = make_protocol("sis")
        config = random_configuration(protocol, graph, ensure_rng(9))
        kernel = VectorizedSIS(graph)
        x = kernel.encode(config)
        assert kernel.enabled_count(x) == sis_enabled_count(graph, config)
        assert kernel.independence_violations(x) == independence_violations(
            graph, config
        )
        assert kernel.domination_violations(x) == domination_violations(
            graph, config
        )


class TestSafetyMonitors:
    def test_clean_quiescent_runs_have_zero_violations(self):
        for key in ("smm", "sis"):
            for _, graph in _graphs():
                protocol = make_protocol(key)
                config = random_configuration(
                    protocol, graph, ensure_rng(11)
                )
                result = engine.run(key, graph, config, convergence=True)
                record = result.telemetry.convergence
                assert record["violations"] == 0, (key, record["checks"])

    def test_monitors_catch_corruption(self):
        graph = cycle_graph(6)
        from repro.core.configuration import Configuration

        # pointer at a non-neighbour, reciprocated: phantom match
        bad = Configuration({0: 3, 3: 0, 1: None, 2: None, 4: None, 5: None})
        assert pointer_violations(graph, bad) == 2
        assert matching_violations(graph, bad) == 2
        # self-pointer is invalid but not a pair
        selfish = Configuration(
            {0: 0, 1: None, 2: None, 3: None, 4: None, 5: None}
        )
        assert pointer_violations(graph, selfish) == 1
        assert matching_violations(graph, selfish) == 0
        # adjacent in-set nodes / undominated out-of-set node
        mis_bad = Configuration({0: 1, 1: 1, 2: 0, 3: 0, 4: 0, 5: 0})
        assert independence_violations(graph, mis_bad) == 1
        assert domination_violations(graph, mis_bad) == 2  # nodes 3, 4

    def test_violation_span_event_recorded(self):
        from repro.observability import Tracer, use_tracer
        from repro.observability.convergence import attach_convergence
        from repro.core.configuration import Configuration

        graph = cycle_graph(6)
        result = engine.run("smm", graph, telemetry=True)
        # corrupt the final configuration post-hoc to trip the monitors
        result.final = Configuration(
            {0: 3, 3: 0, 1: None, 2: None, 4: None, 5: None}
        )
        result.telemetry.node_type_census = []  # force direct census
        tracer = Tracer()
        with use_tracer(tracer):
            attach_convergence(result, graph)
        names = [s["name"] for s in tracer.export()]
        assert "convergence:violation" in names


class TestBoundConformance:
    def test_bound_for_cases(self):
        from repro.analysis.theory import (
            hsu_huang_move_bound,
            sis_round_bound,
            smm_round_bound,
        )

        assert bound_for("SMM", "synchronous", 10) == (
            "theorem1_rounds", smm_round_bound(10), "rounds",
        )
        assert bound_for("SIS", "synchronous", 10) == (
            "theorem2_rounds", sis_round_bound(10), "rounds",
        )
        assert bound_for("HsuHuang92", "central:RandomStrategy", 10) == (
            "hsu_huang_moves", hsu_huang_move_bound(10), "moves",
        )
        # no proved envelope: central SMM, synchronous Hsu-Huang,
        # unknown protocols, empty graphs
        assert bound_for("SMM", "central:RandomStrategy", 10)[0] is None
        assert bound_for("HsuHuang92", "synchronous", 10)[0] is None
        assert bound_for("Luby86", "synchronous", 10)[0] is None
        assert bound_for("SMM", "synchronous", 0) == (None, None, "rounds")

    def test_smm_and_sis_conform(self):
        for key in ("smm", "sis"):
            for _, graph in _graphs():
                result = engine.run(key, graph, rng=13, convergence=True)
                record = result.telemetry.convergence
                assert result.bound_ok is True
                assert record["observed"] <= record["bound"]
                assert 0.0 <= record["bound_margin"] <= 1.0

    def test_hsu_huang_central_moves_conform(self):
        graph = cycle_graph(8)
        result = engine.run(
            "hsu-huang", graph, daemon="central", rng=3, convergence=True
        )
        record = result.telemetry.convergence
        assert record["bound_kind"] == "hsu_huang_moves"
        assert record["observed_metric"] == "moves"
        assert result.bound_ok is True

    def test_budget_cut_below_bound_is_inconclusive(self):
        graph = path_graph(40)
        protocol = make_protocol("sis")
        config = random_configuration(protocol, graph, ensure_rng(17))
        result = engine.run(
            "sis", graph, config, max_rounds=2, convergence=True
        )
        if not result.stabilized:  # 2 rounds rarely finishes a path(40)
            assert result.bound_ok is None


class TestReportAndProgress:
    def test_report_fields(self):
        graph = cycle_graph(10)
        protocol = make_protocol("smm")
        config = random_configuration(protocol, graph, ensure_rng(19))
        result = engine.run("smm", graph, config, telemetry=True)
        record = convergence_report(result, graph)
        assert record["protocol"] == "SMM"
        assert record["family"] == "matching"
        assert protocol_family("SMM") == "matching"
        assert protocol_family("SIS") == "independent"
        assert protocol_family("Luby86") is None
        assert record["monotone"] is True
        assert record["initial_potential"] == record["potential"][0]
        assert record["final_potential"] == record["potential"][-1]
        assert json.loads(json.dumps(record)) == record  # JSON-safe

    def test_progress_estimate(self):
        report = {
            "final_potential": 30,
            "initial_potential": 90,
            "decay_per_round": 10.0,
            "violations": 0,
            "bound_ok": None,
        }
        estimate = progress_estimate(report)
        assert estimate["eta_rounds"] == pytest.approx(3.0)
        done = dict(report, final_potential=0)
        assert progress_estimate(done)["eta_rounds"] is None


class TestPlumbing:
    def test_metrics_families_recorded(self):
        registry = MetricsRegistry()
        graph = cycle_graph(8)
        result = engine.run("smm", graph, rng=23, convergence=True)
        record_run_result(registry, result)
        data = registry.to_dict()
        assert "repro_convergence_runs_total" in data
        assert "repro_convergence_bound_ok_total" in data
        assert "repro_convergence_bound_margin" in data
        exposition = registry.exposition()
        assert "repro_convergence_runs_total" in exposition

    def test_merge_telemetry_aggregate(self):
        graph = cycle_graph(8)
        results = [
            engine.run("smm", graph, rng=seed, convergence=True)
            for seed in range(3)
        ]
        merged = merge_telemetry([r.telemetry for r in results])
        assert merged["convergence"] == {
            "runs": 3,
            "violations": 0,
            "bound_ok": 3,
            "bound_exceeded": 0,
            "bound_inconclusive": 0,
        }

    def test_serialization_round_trip(self):
        from repro.analysis.serialize import (
            execution_from_dict,
            execution_to_dict,
        )
        from repro.parallel.trial_runner import TrialSpec, run_trials

        graph = cycle_graph(8)
        [execution] = run_trials(
            [TrialSpec("smm", graph, seed=29, convergence=True)], jobs=1
        )
        assert execution.bound_ok is True
        data = execution_to_dict(execution)
        back = execution_from_dict(data)
        assert back.bound_ok is True
        assert (
            back.telemetry.convergence == execution.telemetry.convergence
        )

    def test_convergence_specs_not_batch_swept(self):
        from repro.parallel.batch_sweep import sweep_eligible
        from repro.parallel.trial_runner import TrialSpec

        graph = cycle_graph(8)
        specs = [TrialSpec("smm", graph, seed=s, backend="auto") for s in range(4)]
        assert sweep_eligible(specs[0])
        monitored = [
            dataclasses.replace(s, convergence=True) for s in specs
        ]
        assert not sweep_eligible(monitored[0])

    def test_jobs_equivalence(self):
        """Convergence records are identical for any ``--jobs``."""
        from repro.parallel.trial_runner import TrialSpec, run_trials

        graph = erdos_renyi_graph(16, 0.2, rng=31)
        specs = [
            TrialSpec("smm", graph, seed=s, convergence=True)
            for s in range(4)
        ]
        serial = run_trials(specs, jobs=1)
        fanned = run_trials(specs, jobs=2)
        for a, b in zip(serial, fanned):
            assert a.telemetry.convergence == b.telemetry.convergence
            assert a.bound_ok == b.bound_ok


class TestSurfacing:
    def test_stream_convergence_snapshot(self):
        from repro.streaming import StreamEngine, poisson_plan

        graph = cycle_graph(16)
        plan = poisson_plan(
            graph, rate=0.2, events=3, seed=5, kinds=("perturb",)
        )
        stream = StreamEngine("sis", graph, backend="vectorized")
        report = stream.run(plan)
        snap = report.convergence
        assert snap is not None and snap["family"] == "independent"
        assert snap["quiescent"] is (snap["potential"] == 0)
        assert "convergence" in report.to_dict()
        assert "convergence" not in report.counters()  # identity pin

    def test_dash_renders_convergence_panels(self, tmp_path):
        from repro.observability import TelemetrySink
        from repro.observability.dash import load_telemetry, render_html

        path = tmp_path / "telemetry.jsonl"
        sink = TelemetrySink(path)
        for seed in range(2):
            result = engine.run(
                "smm", cycle_graph(12), rng=seed, convergence=True
            )
            sink.write(
                {
                    "family": "cycle",
                    "n": 12,
                    "trial": seed,
                    "telemetry": result.telemetry.to_dict(),
                }
            )
        sink.close()
        text = render_html(load_telemetry(path))
        assert "Potential decay" in text
        assert "invariant violations" in text

    def test_serve_job_progress_block(self, tmp_path):
        from repro.serve.jobs import Job

        job = Job("j1", [], directory=str(tmp_path))
        assert job.summary()["convergence"] is None
        record = {
            "violations": 0,
            "bound_ok": True,
            "final_potential": 5,
            "initial_potential": 50,
            "decay_per_round": 9.0,
        }
        job.note_convergence({"telemetry": {"convergence": record}})
        job.note_convergence({"telemetry": {"convergence": None}})  # no-op
        block = job.summary()["convergence"]
        assert block["runs"] == 1
        assert block["bound_ok"] == 1
        assert block["potential"] == 5

    def test_bench_report_trajectory(self, tmp_path):
        from repro.observability.bench_report import (
            cmd_bench_report,
            flatten_metrics,
            load_bench_results,
            render_bench_html,
            summarize_bench,
        )

        payload = {
            "host": {"cpu_count": 1},
            "quick_mode": False,
            "suite": {
                "workload": "w",
                "speedup": 2.5,
                "trials": 10,  # config key: excluded
                "series": [{"n": 8, "rps": 100.0}],
            },
        }
        (tmp_path / "BENCH_demo.json").write_text(json.dumps(payload))
        (tmp_path / "BENCH_torn.json").write_text("{not json")
        (tmp_path / "ignored.txt").write_text("x")
        results = load_bench_results(tmp_path)
        assert [name for name, _ in results] == ["demo"]
        metrics = dict(flatten_metrics(payload))
        assert metrics == {"suite.speedup": 2.5, "suite.series[0].rps": 100.0}
        table = summarize_bench(results)
        assert "suite.speedup" in table and "host:" in table
        html = render_bench_html(results)
        assert "demo" in html
        out = tmp_path / "report.html"
        assert cmd_bench_report(str(tmp_path), html=str(out)) == 0
        assert out.exists()
        assert cmd_bench_report(str(tmp_path / "empty")) == 1
