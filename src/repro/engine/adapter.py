"""The engine adapter shared by every array kernel backend.

One body turns a kernel class (:class:`~repro.matching.smm_vectorized.VectorizedSMM`,
:class:`~repro.mis.sis_vectorized.VectorizedSIS`,
:class:`~repro.mis.luby_vectorized.VectorizedLuby`) into a registered
``"vectorized"`` backend, in the reference engine's order: resolve the
configuration → default round budget → encode (which validates, with the
reference engine's error) → run → decode →
:class:`~repro.engine.result.RunResult` → legitimacy (the kernel's
``legitimate`` on the final array) → timeout raise.  Telemetry is an
observer on the kernel's own stepping loop, so a watched run takes
exactly the path of an unwatched one — frontier stepping included.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["run_kernel", "telemetry_run"]


def telemetry_run(protocol, kernel, state, budget: int, backend: str, **options):
    """Run ``kernel`` from the dense ``state`` while recording per-round
    rule counters, active-set sizes and — for kernels with a ``census``
    (SMM) — the Fig. 2 node-type census.

    ``options`` go to ``kernel.run`` (``rng`` for randomized kernels,
    ``active_set`` for the frontier kernels).  The counters are
    byte-identical with the reference engine's.  Returns
    ``(result, recorder)`` with the recorder left in its finalize phase
    (the caller calls ``finish()`` after decoding).
    """
    from repro.observability import TelemetryRecorder

    recorder = TelemetryRecorder(
        protocol.name, "synchronous", backend, protocol.rule_names()
    )
    census = getattr(kernel, "census", None)
    if census is not None:
        recorder.record_census(census(state))
    recorder.begin_rounds()

    def observe(counts, active, current):
        recorder.on_round(
            counts, active, None if census is None else census(current)
        )

    res = kernel.run(state, max_rounds=budget, observer=observe, **options)
    recorder.begin_finalize()
    return res, recorder


def run_kernel(
    kernel_cls,
    protocol,
    graph,
    config=None,
    *,
    rng=None,
    max_rounds: Optional[int] = None,
    record_history: bool = False,
    raise_on_timeout: bool = False,
    active_set: bool = True,
    telemetry: bool = False,
    fault_plan=None,
):
    """Run ``protocol`` on ``graph`` through the array kernel
    ``kernel_cls`` and return a summary-only
    :class:`~repro.engine.result.RunResult` (``move_log``/``history``
    stay ``None``; ``record_history`` is accepted for the uniform runner
    signature and selection guarantees it is unset).

    Randomized kernels consume ``rng`` draw for draw like the reference
    engine; deterministic ones take ``active_set``.  With a
    ``fault_plan`` the run is a segmented fault campaign on the dense
    arrays (:mod:`repro.resilience.vector`).
    """
    del record_history
    if fault_plan is not None:
        from repro.resilience.vector import run_vector_campaign

        return run_vector_campaign(
            kernel_cls,
            protocol,
            graph,
            config,
            fault_plan=fault_plan,
            max_rounds=max_rounds,
            raise_on_timeout=raise_on_timeout,
        )
    from repro.core.executor import _as_configuration, _default_round_budget
    from repro.engine.result import RunResult
    from repro.errors import StabilizationTimeout

    initial = _as_configuration(protocol, graph, config)
    budget = max_rounds if max_rounds is not None else _default_round_budget(graph)
    kernel = kernel_cls(graph)
    options = (
        {"rng": rng} if protocol.uses_randomness else {"active_set": active_set}
    )
    recorder = None
    if telemetry:
        res, recorder = telemetry_run(
            protocol, kernel, kernel.encode(initial), budget, "vectorized", **options
        )
    else:
        # the kernel encodes the mapping itself: one validation pass
        res = kernel.run(initial, max_rounds=budget, **options)
    final = kernel.decode(res.final_state)
    result = RunResult(
        protocol_name=protocol.name,
        daemon="synchronous",
        stabilized=res.stabilized,
        rounds=res.rounds,
        moves=res.moves,
        moves_by_rule=res.moves_by_rule,
        initial=initial,
        final=final,
        legitimate=kernel.legitimate(res.final_state),
        backend="vectorized",
    )
    if recorder is not None:
        result.telemetry = recorder.finish()
    if raise_on_timeout and not result.stabilized:
        raise StabilizationTimeout(
            f"{protocol.name} exceeded {budget} synchronous rounds", result
        )
    return result
