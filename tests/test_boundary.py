"""The array-native run boundary of the kernels (:class:`repro.kernels.KernelBoundary`).

Kernel runs validate in ``encode``, decide legitimacy with the kernel's
own ``legitimate(state)`` on the dense array and count the convergence
monitor's safety checks with array passes.  The protocols' dict-based
definitions stay the readable oracle, and this module pins every array
predicate against it:

* ``kernel.legitimate(state) == protocol.is_legitimate(graph,
  kernel.decode(state))`` on random — mostly illegitimate — states, the
  branch final states never reach;
* the array convergence checks equal ``pointer_violations``,
  ``matching_violations``, ``independence_violations`` and
  ``domination_violations``;
* ``encode`` accepts exactly what ``validate_configuration`` accepts
  and otherwise raises its error, message included — and so do the
  reference engine, the vectorized backend and a batch-swept
  ``run_trials`` group.

Graphs include non-contiguous (and negative) ids, edgeless graphs,
``n = 1`` and isolated top-id nodes (trailing empty CSR rows).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import make_protocol, run
from repro.errors import InvalidConfigurationError
from repro.graphs.generators import cycle_graph
from repro.graphs.graph import Graph
from repro.kernels import SMM_NULL, segment_reduce
from repro.matching.smm_vectorized import VectorizedSMM
from repro.mis.luby_vectorized import VectorizedLuby
from repro.mis.sis_vectorized import VectorizedSIS
from repro.observability.convergence import (
    _matching_checks_fast,
    domination_violations,
    independence_violations,
    matching_violations,
    pointer_violations,
)

KERNELS = {"smm": VectorizedSMM, "sis": VectorizedSIS, "luby": VectorizedLuby}


@st.composite
def graphs(draw, max_n: int = 12) -> Graph:
    """Small graphs: dense or scattered (possibly negative) ids, any
    density from edgeless to complete, and sometimes the top ids
    isolated, so the last CSR rows are empty."""
    n = draw(st.integers(1, max_n))
    if draw(st.booleans()):
        ids = list(range(n))
    else:
        ids = draw(
            st.lists(st.integers(-40, 400), min_size=n, max_size=n, unique=True)
        )
    ids.sort()
    pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    isolated = set(ids[-draw(st.integers(0, min(2, n))):]) if n > 1 else set()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = [
        (u, v)
        for u, v in pairs
        if rng.random() < density and u not in isolated and v not in isolated
    ]
    return Graph(ids, edges)


@st.composite
def dense_states(draw, key: str):
    """``(graph, kernel, state)``: a dense state of ``key``'s kernel —
    uniformly random (for SMM any value in ``-1..n-1``, so self and
    non-neighbour pointers too), or a legitimate final state with a few
    entries redrawn, or that final state itself."""
    graph = draw(graphs())
    kernel = KERNELS[key](graph)
    n = graph.n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = SMM_NULL if key == "smm" else 0
    high = n if key == "smm" else 2

    def uniform(size):
        return rng.integers(low, high, size)

    mode = draw(st.sampled_from(["random", "perturbed", "final"]))
    if mode == "random":
        state = uniform(n)
    else:
        start = uniform(n) if key != "smm" else None
        if key == "luby":
            # the SIS fixpoint is a maximal independent set
            state = VectorizedSIS(graph).run(start).final_state
        else:
            state = kernel.run(start).final_state
        state = np.array(state, dtype=np.int64)
        if mode == "perturbed":
            victims = rng.choice(n, size=int(rng.integers(1, min(n, 3) + 1)))
            state[victims] = uniform(victims.size)
    dtype = kernel._dtype if key == "smm" else {"sis": np.uint8, "luby": np.int8}[key]
    return graph, kernel, state.astype(dtype)


class TestLegitimacyOracle:
    @pytest.mark.parametrize("key", sorted(KERNELS))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_kernel_legitimate_matches_protocol(self, key, data):
        graph, kernel, state = data.draw(dense_states(key))
        protocol = make_protocol(key)
        expected = protocol.is_legitimate(graph, kernel.decode(state))
        assert kernel.legitimate(state) is expected

    @pytest.mark.parametrize("key", sorted(KERNELS))
    def test_both_verdicts_are_reached(self, key):
        # the property above must exercise True and False alike
        graph = cycle_graph(7)
        kernel = KERNELS[key](graph)
        clean = kernel.run(None, **({"rng": 1} if key == "luby" else {}))
        assert kernel.legitimate(clean.final_state)
        assert not kernel.legitimate(np.zeros(graph.n, dtype=clean.final_state.dtype))


class TestConvergenceChecks:
    @settings(max_examples=150, deadline=None)
    @given(dense_states("smm"), st.data())
    def test_matching_checks_match_definitions(self, case, data):
        graph, kernel, ptr = case
        config = dict(kernel.decode(ptr))
        if data.draw(st.booleans()):
            # pointers to ids that are not nodes
            node = data.draw(st.sampled_from(graph.nodes))
            config[node] = max(graph.nodes) + data.draw(st.integers(1, 5))
        assert _matching_checks_fast(graph, config) == (
            pointer_violations(graph, config),
            matching_violations(graph, config),
        )

    def test_matching_checks_decline_non_id_states(self):
        graph = cycle_graph(4)
        config = {0: "x", 1: None, 2: None, 3: None}
        assert _matching_checks_fast(graph, config) is None

    @settings(max_examples=150, deadline=None)
    @given(dense_states("sis"))
    def test_independent_set_checks_match_definitions(self, case):
        graph, kernel, x = case
        config = kernel.decode(x)
        assert kernel.independence_violations(x) == independence_violations(
            graph, config
        )
        assert kernel.domination_violations(x) == domination_violations(
            graph, config
        )


def _oracle_error(protocol, graph, config):
    try:
        protocol.validate_configuration(graph, config)
    except InvalidConfigurationError as exc:
        return str(exc)
    return None


@st.composite
def maybe_invalid_configs(draw, key: str):
    """``(graph, config)``: each state drawn from the valid choices and
    the invalid ones (SMM: self, non-neighbour and unknown-id pointers;
    bits: ``2`` and ``None``), with nodes sometimes missing or extra."""
    graph = draw(graphs(max_n=8))
    unknown = max(graph.nodes) + 1
    config = {}
    for node in graph.nodes:
        if key == "smm":
            others = [v for v in graph.nodes if v != node]
            choices = [None, node, unknown, *graph.neighbors(node), *others]
        else:
            choices = [0, 1, 0, 1, 2, None]
        config[node] = draw(st.sampled_from(choices))
    if draw(st.integers(0, 5)) == 0:
        del config[draw(st.sampled_from(graph.nodes))]
    if draw(st.integers(0, 5)) == 0:
        config[unknown] = None if key == "smm" else 0
    return graph, config


class TestEncodeValidation:
    @pytest.mark.parametrize("key", sorted(KERNELS))
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_encode_accepts_exactly_what_validation_accepts(self, key, data):
        graph, config = data.draw(maybe_invalid_configs(key))
        kernel = KERNELS[key](graph)
        expected = _oracle_error(make_protocol(key), graph, config)
        if expected is None:
            assert kernel.decode(kernel.encode(config)) == config
        else:
            with pytest.raises(InvalidConfigurationError) as info:
                kernel.encode(config)
            assert str(info.value) == expected

    @pytest.mark.parametrize("key", sorted(KERNELS))
    def test_decode_is_the_inverse_on_scattered_ids(self, key):
        graph = Graph([-7, 3, 10, 99], [(-7, 3), (3, 10)])
        config = (
            {-7: 3, 3: -7, 10: None, 99: None}
            if key == "smm"
            else {-7: 1, 3: 0, 10: 1, 99: 1}
        )
        kernel = KERNELS[key](graph)
        decoded = kernel.decode(kernel.encode(config))
        assert decoded == config
        assert list(decoded) == sorted(config)


#: (protocol, graph, config) of every invalid configuration kind
def _invalid_cases():
    graph = cycle_graph(6)
    smm = {node: None for node in graph.nodes}
    sis = {node: 0 for node in graph.nodes}
    cases = {
        "missing-node": ("smm", {k: v for k, v in smm.items() if k != 2}),
        "extra-node": ("smm", {**smm, 6: None}),
        "non-neighbour": ("smm", {**smm, 0: 3}),
        "self-pointer": ("smm", {**smm, 4: 4}),
        "unknown-id": ("smm", {**smm, 5: 99}),
        "sis-2": ("sis", {**sis, 1: 2}),
        "sis-none": ("sis", {**sis, 3: None}),
        "sis-missing": ("sis", {k: v for k, v in sis.items() if k != 0}),
    }
    return graph, cases


class TestValidationParity:
    GRAPH, CASES = _invalid_cases()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_path_rejects_with_the_same_message(self, case):
        from repro.parallel import TrialSpec, run_trials
        from repro.parallel.batch_sweep import dispatch_groups

        key, config = self.CASES[case]
        graph = self.GRAPH
        messages = {}
        for backend in ("reference", "vectorized"):
            with pytest.raises(InvalidConfigurationError) as info:
                run(key, graph, config, backend=backend)
            messages[backend] = str(info.value)
        spec = TrialSpec(key, graph, config, backend="auto")
        with pytest.raises(InvalidConfigurationError) as info:
            dispatch_groups([spec, spec])  # one batch-swept group
        messages["batch"] = str(info.value)
        with pytest.raises(InvalidConfigurationError) as info:
            run_trials([spec, spec], jobs=1)
        messages["run_trials"] = str(info.value)
        assert len(set(messages.values())) == 1, messages
        assert messages["reference"] == _oracle_error(
            make_protocol(key), graph, config
        )


class TestTrailingEmptyRows:
    """Regression: ``reduceat`` starts clipped into range for trailing
    empty CSR rows (isolated top ids) cut the last non-empty row short,
    so its largest neighbour was never seen."""

    @pytest.mark.parametrize("fill", [0, 99])
    def test_segment_reduce_matches_a_loop(self, fill):
        indptr = np.array([0, 1, 2, 2, 4, 4, 4])
        vals = np.array([5, 7, 6, 1])
        got = segment_reduce(np.minimum, vals, indptr, fill)
        want = [
            vals[a:b].min() if b > a else fill
            for a, b in zip(indptr[:-1], indptr[1:])
        ]
        assert got.tolist() == want
        stacked = segment_reduce(np.minimum, np.stack([vals, vals + 1]), indptr, fill)
        assert stacked[0].tolist() == want

    def test_kernels_match_reference_with_isolated_top_ids(self):
        graph = Graph(range(5), [(0, 2), (0, 3), (1, 3)])
        smm = {0: None, 1: 3, 2: None, 3: None, 4: None}
        sis = {0: 1, 1: 0, 2: 0, 3: 0, 4: 0}
        for key, config in (("smm", smm), ("sis", sis)):
            ref = run(key, graph, config, backend="reference")
            vec = run(key, graph, config, backend="vectorized")
            assert (vec.final, vec.rounds, vec.moves_by_rule, vec.legitimate) == (
                ref.final, ref.rounds, ref.moves_by_rule, ref.legitimate
            )


class TestBatchSweepLatency:
    def test_elapsed_covers_decode_and_legitimacy(self, monkeypatch):
        """A batch-swept row's ``elapsed`` is its share of encode through
        the last row's legitimacy — the span a per-trial result covers —
        not of ``run_batch`` alone."""
        import time

        from repro.parallel import TrialSpec
        from repro.parallel.batch_sweep import dispatch_groups

        pause = 0.05
        original = VectorizedSMM.legitimate

        def slow_legitimate(self, state):
            time.sleep(pause)
            return original(self, state)

        monkeypatch.setattr(VectorizedSMM, "legitimate", slow_legitimate)
        spec = TrialSpec("smm", cycle_graph(8), backend="auto")
        results = dispatch_groups([spec, spec, spec])
        assert sorted(results) == [0, 1, 2]
        for result in results.values():
            assert result.backend == "batch"
            assert result.elapsed >= pause  # 3 pauses shared by 3 rows
