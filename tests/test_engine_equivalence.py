"""Cross-backend equivalence: every registered backend is byte-identical
to the reference engine.

The acceptance bar of the unified engine layer: for every registered
non-reference backend, ``repro.engine.run(protocol, graph, backend=b)``
must reproduce the reference engine's final configuration, round count,
per-rule move counts and legitimacy verdict exactly — over several
graph families, several seeds, and the degenerate graphs (empty, single
node, disconnected).  The backend list is read from the registry, so a
newly registered kernel is swept automatically.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core.faults import random_configuration
from repro.engine import backends_for, fallback_backend, make_protocol, run
from repro.errors import ExperimentError, InvalidConfigurationError
from repro.resilience import FaultEvent, FaultPlan
from repro.graphs.generators import (
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    random_tree,
)
from repro.graphs.graph import Graph
from repro.rng import ensure_rng

#: every (protocol, kernel backend) pair in the registry
KERNEL_CASES = [
    (key, backend.name)
    for key in ("smm", "sis", "luby")
    for backend in backends_for(key, "synchronous")
    if backend.name != "reference"
]

#: ... plus the batch-sweep path, whose trials run as rows of the
#: ``(k, n)`` batch kernels and come back labelled ``backend="batch"``
PATH_CASES = KERNEL_CASES + [("smm", "batch"), ("sis", "batch")]


def run_path(key, backend, graph, config=None, *, rng=None, max_rounds=None):
    """``run(...)`` on ``backend``; the ``"batch"`` path dispatches two
    identical ``auto`` specs as one batch-sweep group instead and
    returns the first row."""
    if backend != "batch":
        return run(
            key, graph, config, backend=backend, rng=rng, max_rounds=max_rounds
        )
    from repro.parallel import TrialSpec
    from repro.parallel.batch_sweep import dispatch_groups

    spec = TrialSpec(key, graph, config, backend="auto", max_rounds=max_rounds)
    results = dispatch_groups([spec, spec])
    assert sorted(results) == [0, 1]
    assert results[0].final == results[1].final
    return results[0]

FAMILIES = ("cycle", "tree", "grid", "er")
SEEDS = (0, 1, 2)


def make_graph(family: str, seed: int) -> Graph:
    rng = ensure_rng(1000 + seed)
    if family == "cycle":
        return cycle_graph(12)
    if family == "tree":
        return random_tree(12, rng)
    if family == "grid":
        return grid_graph(3, 4)
    return erdos_renyi_graph(12, 0.35, rng)


def assert_equivalent(reference, result):
    assert result.stabilized == reference.stabilized
    assert result.rounds == reference.rounds
    assert result.final == reference.final
    assert result.moves == reference.moves
    assert result.moves_by_rule == reference.moves_by_rule
    assert result.legitimate == reference.legitimate


class TestKernelEquivalence:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("key,backend", PATH_CASES)
    def test_backend_matches_reference(self, key, backend, family, seed):
        graph = make_graph(family, seed)
        protocol = make_protocol(key)
        config = random_configuration(protocol, graph, ensure_rng(seed))
        reference = run(key, graph, config, backend="reference", rng=seed)
        result = run_path(key, backend, graph, config, rng=seed)
        assert result.backend == backend
        assert_equivalent(reference, result)

    @pytest.mark.parametrize("key,backend", PATH_CASES)
    def test_clean_start_matches_reference(self, key, backend):
        graph = cycle_graph(9)
        reference = run(key, graph, backend="reference", rng=7)
        result = run_path(key, backend, graph, rng=7)
        assert_equivalent(reference, result)

    @pytest.mark.parametrize("key,backend", PATH_CASES)
    def test_timeout_accounting_matches_reference(self, key, backend):
        # a budget of 1 round times out on graphs that need more; both
        # engines must report the same rounds/stabilized/final
        graph = erdos_renyi_graph(14, 0.3, rng=9)
        protocol = make_protocol(key)
        config = random_configuration(protocol, graph, ensure_rng(5))
        reference = run(
            key, graph, config, backend="reference", rng=5, max_rounds=1
        )
        result = run_path(key, backend, graph, config, rng=5, max_rounds=1)
        assert_equivalent(reference, result)


class TestTelemetryEquivalence:
    """Telemetry *counters* are byte-identical across backends.

    The diagnostic fields (``active_set_sizes``, ``timings``) describe
    the producing backend and are deliberately excluded.
    """

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("key,backend", KERNEL_CASES)
    def test_telemetry_counters_match_reference(self, key, backend, family, seed):
        graph = make_graph(family, seed)
        protocol = make_protocol(key)
        config = random_configuration(protocol, graph, ensure_rng(seed))
        reference = run(
            key, graph, config, backend="reference", rng=seed, telemetry=True
        )
        result = run(
            key, graph, config, backend=backend, rng=seed, telemetry=True
        )
        ref_t, res_t = reference.telemetry, result.telemetry
        assert ref_t is not None and res_t is not None
        assert res_t.backend == backend
        assert res_t.rounds == ref_t.rounds == result.rounds
        assert res_t.moves == ref_t.moves
        assert res_t.moves_by_rule == ref_t.moves_by_rule
        assert res_t.per_round_moves == ref_t.per_round_moves
        assert res_t.node_type_census == ref_t.node_type_census
        assert_equivalent(reference, result)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("key,backend", KERNEL_CASES)
    def test_convergence_record_matches_reference(
        self, key, backend, family, seed
    ):
        """The proof-aware convergence record is byte-identical across
        backends — it derives only from cross-backend-pinned inputs
        (census, per-round counters, final configuration), so any
        divergence is a kernel bug the monitors just caught."""
        if key == "luby":
            pytest.skip("no convergence monitors for randomized MIS")
        graph = make_graph(family, seed)
        protocol = make_protocol(key)
        config = random_configuration(protocol, graph, ensure_rng(seed))
        reference = run(
            key, graph, config, backend="reference", rng=seed,
            convergence=True,
        )
        result = run(
            key, graph, config, backend=backend, rng=seed, convergence=True,
        )
        ref_c = reference.telemetry.convergence
        res_c = result.telemetry.convergence
        assert ref_c is not None and res_c is not None
        assert res_c == ref_c  # byte-identical, every field
        assert result.bound_ok == reference.bound_ok
        assert json.dumps(res_c, sort_keys=True) == json.dumps(
            ref_c, sort_keys=True
        )
        assert_equivalent(reference, result)

    @pytest.mark.parametrize("key", ("smm", "sis"))
    def test_auto_with_telemetry_selects_vectorized(self, key):
        # telemetry is a capability every kernel implements, so asking
        # for it must not push a plain run off the fast path
        graph = cycle_graph(10)
        result = run(key, graph, backend="auto", telemetry=True)
        assert result.backend == "vectorized"
        assert result.telemetry is not None
        assert result.telemetry.backend == "vectorized"


class TestMetricsEquivalence:
    """Metric exports are byte-identical across backends and ``--jobs``.

    The protocol-accounting families (``repro_rounds_total``,
    ``repro_moves_total`` and the fault counters) deliberately carry no
    backend label, so a sweep metered on any backend at any parallelism
    must export the exact same bytes for them.  The jobs half of the
    pin lives in ``test_metrics.py``; this is the backend half.
    """

    def _sweep_exposition(self, backend, jobs=1):
        from repro.observability import MetricsRegistry, use_registry
        from repro.parallel.trial_runner import TrialSpec, run_trials

        specs = [
            TrialSpec(key, make_graph(family, seed), seed=seed, backend=backend)
            for key in ("smm", "sis")
            for family in FAMILIES
            for seed in SEEDS
        ]
        registry = MetricsRegistry()
        with use_registry(registry):
            run_trials(specs, jobs=jobs)
        return registry.exposition(kinds=("counter",)), registry.to_json(
            kinds=("counter",)
        )

    def test_counter_exports_identical_across_backends_and_jobs(self):
        ref_prom, ref_json = self._sweep_exposition("reference")
        for backend, jobs in (("vectorized", 1), ("vectorized", 4)):
            prom, jsn = self._sweep_exposition(backend, jobs=jobs)
            # backend-labelled families (repro_runs_total) do differ, so
            # compare everything except them, family block by block
            ref_blocks = self._strip_backend_families(ref_prom)
            blocks = self._strip_backend_families(prom)
            assert blocks == ref_blocks
            ref_data = {
                k: v
                for k, v in json.loads(ref_json).items()
                if not self._backend_labelled(v)
            }
            data = {
                k: v
                for k, v in json.loads(jsn).items()
                if not self._backend_labelled(v)
            }
            assert data == ref_data
            assert "repro_rounds_total" in data
            assert "repro_moves_total" in data

    @staticmethod
    def _backend_labelled(family):
        return any("backend" in s.get("labels", {}) for s in family["samples"])

    @staticmethod
    def _strip_backend_families(exposition):
        blocks: dict = {}
        name = None
        for line in exposition.splitlines():
            if line.startswith("# TYPE "):
                name = line.split(" ")[2]
            elif line.startswith("# HELP "):
                name = line.split(" ")[2]
            blocks.setdefault(name, []).append(line)
        return {
            family: "\n".join(lines)
            for family, lines in blocks.items()
            if 'backend="' not in "\n".join(lines)
        }


class TestDegenerateGraphs:
    @pytest.mark.parametrize("key,backend", PATH_CASES)
    def test_empty_graph(self, key, backend):
        graph = Graph([], [])
        reference = run(key, graph, backend="reference", rng=0)
        result = run_path(key, backend, graph, rng=0)
        assert_equivalent(reference, result)
        assert result.stabilized and result.rounds == 0

    @pytest.mark.parametrize("key,backend", PATH_CASES)
    def test_single_node(self, key, backend):
        graph = Graph([3], [])
        reference = run(key, graph, backend="reference", rng=0)
        result = run_path(key, backend, graph, rng=0)
        assert_equivalent(reference, result)

    @pytest.mark.parametrize("key,backend", PATH_CASES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_disconnected_components(self, key, backend, seed):
        # two triangles, an edge, and an isolated node
        graph = Graph(
            range(9),
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (6, 7)],
        )
        protocol = make_protocol(key)
        config = random_configuration(protocol, graph, ensure_rng(seed))
        reference = run(key, graph, config, backend="reference", rng=seed)
        result = run_path(key, backend, graph, config, rng=seed)
        assert_equivalent(reference, result)


class TestFaultCampaignEquivalence:
    """Same FaultPlan + seed → byte-identical campaigns on every backend.

    The plan's per-event RNG is seeded from ``(plan.seed, event index)``
    independently of the daemon stream, so victim choices, redraws and
    random churn must agree exactly between the reference driver and the
    vectorized kernels — counters, final configuration AND the recorded
    recovery metrics.
    """

    #: a campaign touching every event kind, timed for 12-node graphs
    def make_plan(self, seed: int) -> FaultPlan:
        return FaultPlan(
            events=(
                FaultEvent(round=4, kind="perturb", fraction=0.3),
                FaultEvent(round=9, kind="churn", churn=2),
                FaultEvent(round=14, kind="crash", count=2),
                FaultEvent(round=19, kind="message_loss", count=1),
                FaultEvent(round=24, kind="rejoin"),
                FaultEvent(round=24, kind="message_dup", count=3),
            ),
            seed=seed,
        )

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("key", ("smm", "sis"))
    def test_campaign_matches_reference(self, key, family, seed):
        graph = make_graph(family, seed)
        protocol = make_protocol(key)
        config = random_configuration(protocol, graph, ensure_rng(seed))
        plan = self.make_plan(seed)
        reference = run(
            key, graph, config, backend="reference", rng=seed, fault_plan=plan
        )
        result = run(
            key, graph, config, backend="vectorized", rng=seed, fault_plan=plan
        )
        assert result.backend == "vectorized"
        assert_equivalent(reference, result)
        ref_t, res_t = reference.telemetry, result.telemetry
        assert ref_t is not None and res_t is not None
        assert res_t.per_round_moves == ref_t.per_round_moves
        assert res_t.node_type_census == ref_t.node_type_census
        # the recovery records must agree field-for-field, radius included
        assert res_t.fault_events == ref_t.fault_events
        assert len(res_t.fault_events) == len(plan.events)

    @pytest.mark.parametrize("key", ("smm", "sis"))
    def test_auto_with_fault_plan_stays_vectorized(self, key):
        # "faults" is a capability of the vectorized kernels, so a
        # campaign must not push a plain run off the fast path
        graph = cycle_graph(10)
        plan = FaultPlan(events=(FaultEvent(round=3, kind="perturb"),))
        result = run(key, graph, backend="auto", rng=0, fault_plan=plan)
        assert result.backend == "vectorized"
        assert result.telemetry.fault_events is not None

    def test_fault_plan_degrades_unsupporting_backend(self):
        # the Luby kernel does not implement fault campaigns: the
        # static helper degrades it, the explicit request raises
        plan = FaultPlan(events=(FaultEvent(round=3, kind="perturb"),))
        assert fallback_backend(
            "luby", backend="vectorized", fault_plan=plan
        ) == "reference"
        with pytest.raises(ExperimentError):
            run(
                "luby", cycle_graph(8), backend="vectorized", rng=0,
                fault_plan=plan,
            )

    def test_empty_plan_matches_plain_run(self):
        # an event-free campaign is still a campaign (telemetry, the
        # campaign driver), but its counters equal the plain run's
        graph = cycle_graph(12)
        protocol = make_protocol("smm")
        config = random_configuration(protocol, graph, ensure_rng(3))
        plain = run("smm", graph, config, backend="reference", rng=3)
        campaign = run(
            "smm", graph, config, backend="reference", rng=3,
            fault_plan=FaultPlan(),
        )
        assert_equivalent(plain, campaign)
        assert campaign.telemetry.fault_events == []


class TestInvalidConfigurations:
    @pytest.mark.parametrize(
        "backend", [b.name for b in backends_for("smm", "synchronous")]
    )
    def test_invalid_pointer_rejected_by_every_backend(self, backend):
        # a pointer to a non-neighbour is outside SMM's state space;
        # every backend funnels through the same validation, so the
        # error is identical rather than backend-dependent garbage
        graph = cycle_graph(6)
        bad = {node: None for node in graph.nodes}
        bad[0] = 3  # not adjacent on C_6
        with pytest.raises(InvalidConfigurationError):
            run("smm", graph, bad, backend=backend)

    @pytest.mark.parametrize(
        "backend", [b.name for b in backends_for("sis", "synchronous")]
    )
    def test_invalid_bit_rejected_by_every_backend(self, backend):
        graph = cycle_graph(6)
        bad = {node: 0 for node in graph.nodes}
        bad[0] = 7  # not a 0/1 state
        with pytest.raises(InvalidConfigurationError):
            run("sis", graph, bad, backend=backend)


class TestPackedStateLayout:
    """The packed layouts (int32 pointers, uint8 membership) are an
    internal representation change only: encode/decode round-trips and
    dtype selection at the int32 boundary must agree byte-for-byte with
    the flat encoding."""

    def test_state_dtype_boundary(self):
        import numpy as np

        from repro.kernels import state_dtype

        # the NULL sentinel is stored as -1 but the *encoded* proposal
        # sentinel is n itself, so n must fit the signed dtype with one
        # value to spare
        assert state_dtype(0) == np.dtype(np.int32)
        assert state_dtype(2**31 - 2) == np.dtype(np.int32)
        assert state_dtype(2**31 - 1) == np.dtype(np.int64)
        assert state_dtype(2**40) == np.dtype(np.int64)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_int32_null_round_trips(self, family, seed):
        import numpy as np

        from repro.kernels import SMM_NULL
        from repro.matching.smm_vectorized import VectorizedSMM

        graph = make_graph(family, seed)
        kernel = VectorizedSMM(graph)
        protocol = make_protocol("smm")
        config = random_configuration(protocol, graph, ensure_rng(seed))
        ptr = kernel.encode(config)
        assert ptr.dtype == np.dtype(np.int32)
        nulls = sum(1 for v in config.values() if v is None)
        assert int((ptr == SMM_NULL).sum()) == nulls
        assert dict(kernel.decode(ptr)) == dict(config)


class TestBatchSweepDispatch:
    """Batch-sweep dispatch returns results bit-identical to per-trial
    execution (modulo the honest ``backend="batch"`` label), for any
    ``jobs``, and its metric exports keep the determinism pin."""

    def _specs(self, backend, protocols=("smm", "sis")):
        from repro.parallel import TrialSpec

        return [
            TrialSpec(
                key,
                make_graph(family, 0),
                random_configuration(
                    make_protocol(key), make_graph(family, 0), ensure_rng(seed)
                ),
                backend=backend,
            )
            for key in protocols
            for family in FAMILIES
            for seed in SEEDS
        ]

    def test_auto_specs_dispatch_through_batch_kernel(self):
        from repro.parallel import run_trials, sweep_eligible

        specs = self._specs("auto")
        assert all(sweep_eligible(spec) for spec in specs)
        reference = run_trials(self._specs("reference"), jobs=1)
        for jobs in (1, 2):
            results = run_trials(specs, jobs=jobs)
            for ref, res in zip(reference, results):
                assert res.backend == "batch"
                assert_equivalent(ref, res)

    def test_disabled_batching_matches_and_selects_vectorized(self):
        from repro.parallel import run_trials

        specs = self._specs("auto")
        batched = run_trials(specs, jobs=1)
        unbatched = run_trials(specs, jobs=1, batch_sweep=False)
        for a, b in zip(batched, unbatched):
            assert b.backend == "vectorized"  # auto's per-trial pick
            assert_equivalent(a, b)

    def test_default_and_explicit_budget_share_a_group(self):
        """Regression: grouping keyed on the raw ``max_rounds`` field,
        so ``None`` and an explicit budget equal to the resolved default
        fragmented into two size-1 groups — and size-1 groups are never
        batched, silently losing the whole dispatch."""
        from repro.core.executor import _default_round_budget
        from repro.parallel import TrialSpec, run_trials
        from repro.parallel.batch_sweep import dispatch_groups

        graph = make_graph("cycle", 0)
        config = random_configuration(
            make_protocol("smm"), graph, ensure_rng(SEEDS[0])
        )
        specs = [
            TrialSpec("smm", graph, config, backend="auto", max_rounds=None),
            TrialSpec(
                "smm", graph, config, backend="auto",
                max_rounds=_default_round_budget(graph),
            ),
        ]
        results = dispatch_groups(specs)
        assert sorted(results) == [0, 1]  # one group of two, batched
        assert all(r.backend == "batch" for r in results.values())
        # a genuinely different budget still fragments into size-1
        # groups, which are correctly left for the per-trial paths
        other = dataclasses.replace(specs[1], max_rounds=3)
        assert dispatch_groups([specs[0], other]) == {}
        # end-to-end: the runner agrees with per-trial execution
        batched = run_trials(specs, jobs=1)
        per_trial = run_trials(specs, jobs=1, batch_sweep=False)
        for a, b in zip(batched, per_trial):
            assert a.backend == "batch"
            assert_equivalent(a, b)

    def test_observed_specs_stay_per_trial(self):
        from repro.parallel import TrialSpec, run_trials, sweep_eligible

        graph = make_graph("cycle", 0)
        specs = [
            TrialSpec("smm", graph, seed=s, backend="auto", telemetry=True)
            for s in SEEDS
        ]
        assert not any(sweep_eligible(spec) for spec in specs)
        results = run_trials(specs, jobs=1)
        assert all(r.backend == "vectorized" for r in results)
        assert all(r.telemetry is not None for r in results)

    def test_counter_exports_identical_across_batching_and_jobs(self):
        from repro.observability import MetricsRegistry, use_registry
        from repro.parallel import run_trials

        def exposition(batch_sweep, jobs):
            registry = MetricsRegistry()
            with use_registry(registry):
                run_trials(
                    self._specs("auto"), jobs=jobs, batch_sweep=batch_sweep
                )
            return registry.exposition(kinds=("counter",))

        strip = TestMetricsEquivalence._strip_backend_families
        reference = strip(exposition(False, 1))
        for jobs in (1, 2):
            assert strip(exposition(True, jobs)) == reference


class TestSharedGraphEquivalence:
    """Worker processes are invisible in results and metrics: a sweep
    run by the worker scheduler, plain or resilient, is byte-identical
    to the inline sweep and leaves no worker behind."""

    def _specs(self):
        from repro.parallel import TrialSpec

        return [
            TrialSpec(
                key,
                make_graph(family, 0),
                random_configuration(
                    make_protocol(key), make_graph(family, 0), ensure_rng(seed)
                ),
                backend="vectorized",  # ineligible for batching: the
                # specs must actually cross the process boundary
            )
            for key in ("smm", "sis")
            for family in FAMILIES
            for seed in SEEDS
        ]

    @pytest.mark.parametrize(
        "policy",
        (
            {"jobs": 2},
            # no batch dispatch to fall back from: resilient mode would
            # count a batch-sweep fallback the inline sweep never has
            {"jobs": 2, "retries": 1, "batch_sweep": False},
        ),
        ids=("plain", "resilient"),
    )
    def test_pool_results_identical_under_handoff(self, policy):
        import multiprocessing

        from repro.observability import MetricsRegistry, use_registry
        from repro.parallel import run_trials

        def sweep(**knobs):
            registry = MetricsRegistry()
            with use_registry(registry):
                results = run_trials(self._specs(), **knobs)
            return results, registry.exposition(kinds=("counter",))

        inline_results, inline_counters = sweep(jobs=1)
        pool_results, pool_counters = sweep(**policy)
        for ref, res in zip(inline_results, pool_results):
            assert_equivalent(ref, res)
            assert res.backend == "vectorized"
        assert pool_counters == inline_counters
        assert multiprocessing.active_children() == []
