"""Batch-sweep dispatch: many same-graph trials as one kernel call.

Sweeps like E1 run the *same* protocol on the *same* graph from many
initial configurations.  Executed trial-by-trial, each run pays the
full per-round NumPy dispatch overhead; the batch kernels
(:class:`repro.matching.smm_batch.BatchSMM`,
:class:`repro.mis.sis_batch.BatchSIS`) amortise it by stepping all
``k`` configurations as one ``(k, n)`` array per round.

This module is the planner the trial runner consults: it spots groups
of specs a batch kernel can execute — same protocol, same graph, same
round budget, synchronous daemon, no per-trial observation — runs each
group through one :meth:`run_batch` call in the parent process, and
decodes the rows back into ordinary :class:`RunResult` records that are
bit-identical (final configuration, rounds, per-rule moves, legitimacy)
to per-trial execution.  Ineligible specs are left untouched for the
normal per-trial paths.

Eligibility is deliberately conservative — a spec batches only when:

* ``daemon == "synchronous"`` (the batch kernels implement only the
  synchronous daemon);
* ``backend`` is ``"auto"`` (an explicit ``"reference"`` or
  ``"vectorized"`` request is honoured per-trial);
* no ``options``, ``record_history``, ``telemetry`` or ``trace`` —
  per-trial observation needs per-trial execution;
* the protocol has a batch kernel in :data:`_SWEEP_KERNELS` and its
  vectorized backend's ``supports`` predicate accepts the run (the batch
  kernel steps rows of the same kernel, so it applies exactly where the
  vectorized backend does; externally registered protocols fall through
  untouched);
* the graph is at most :data:`BATCH_SWEEP_MAX_NODES` nodes — past the
  measured crossover the per-trial kernels' active-set frontier beats
  lockstep batch rows, so ``auto`` keeps the faster path.

Groups of size 1 are not batched (a batch of one adds overhead and no
amortisation).  Seeds never enter: the eligible protocols are
deterministic under the synchronous daemon, so a spec's result does not
depend on its seed — exactly why rows can be decoded bit-identically.

Dispatch is visible, never silent: batched groups increment the
backend-labelled ``repro_batch_sweep_groups_total`` /
``repro_batch_sweep_trials_total`` counters, and the runner increments
``repro_batch_sweep_fallbacks_total`` (via :func:`record_fallback`)
when batching is disabled wholesale by tracing or resilient mode.
"""

from __future__ import annotations

import importlib
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine import registry
from repro.engine.result import RunResult

__all__ = ["dispatch_groups", "record_fallback", "sweep_eligible"]

#: Protocol key → (module, batch kernel class, final-matrix attribute).
_SWEEP_KERNELS = {
    "smm": ("repro.matching.smm_batch", "BatchSMM", "final_ptr"),
    "sis": ("repro.mis.sis_batch", "BatchSIS", "final_x"),
}

#: Largest graph (in nodes) a protocol's batch kernel is dispatched
#: for.  Above these sizes the per-trial kernels win: their active-set
#: frontier stepping skips most per-node work in the sparse tail of a
#: run, while a batch row always costs O(n) per round.  Measured
#: crossovers on the BENCH_kernels workloads — SMM loses past ~2k
#: nodes, SIS (a cheaper row update) past ~8k.
BATCH_SWEEP_MAX_NODES = {"smm": 2048, "sis": 8192}


def sweep_eligible(spec, _protocols: Optional[dict] = None) -> bool:
    """True iff ``spec`` can be executed by a batch kernel with a
    result bit-identical to per-trial execution (modulo the ``backend``
    label, which honestly names the kernel that ran)."""
    if spec.daemon != "synchronous":
        return False
    if spec.backend != "auto":
        return False
    if spec.options or spec.record_history or spec.telemetry or spec.trace:
        return False
    if getattr(spec, "convergence", False):
        # convergence implies telemetry collection, which batch rows
        # cannot produce — keep such specs on the per-trial path where
        # the engine front door attaches the record
        return False
    if spec.protocol not in _SWEEP_KERNELS:
        return False
    if spec.graph.n > BATCH_SWEEP_MAX_NODES[spec.protocol]:
        return False  # past the measured crossover: per-trial is faster
    entry = registry.BACKENDS.get((spec.protocol, "synchronous", "vectorized"))
    if entry is None:
        return False
    if _protocols is None:
        _protocols = {}
    protocol = _protocols.get(spec.protocol)
    if protocol is None:
        protocol = registry.make_protocol(spec.protocol)
        _protocols[spec.protocol] = protocol
    return entry.supports(
        protocol, spec.graph, spec.config, {"record_history": False}
    )


def dispatch_groups(specs: Sequence) -> Dict[int, RunResult]:
    """Execute every batchable group of ``specs`` and return the
    results keyed by original spec index.

    Indices absent from the returned mapping were not batched (spec
    ineligible, or its group had fewer than two members) and must run
    through the ordinary per-trial paths.
    """
    from repro.core.executor import _default_round_budget

    protocols: dict = {}
    groups: Dict[Tuple, List[Tuple[int, object]]] = {}
    for index, spec in enumerate(specs):
        if not sweep_eligible(spec, protocols):
            continue
        # Key on the *resolved* round budget: ``max_rounds=None`` and an
        # explicit budget equal to the default are the same execution, so
        # keying on the raw field would fragment them into separate (and
        # possibly size-1, hence unbatched) groups.
        budget = (
            spec.max_rounds
            if spec.max_rounds is not None
            else _default_round_budget(spec.graph)
        )
        key = (spec.protocol, spec.graph, budget)
        groups.setdefault(key, []).append((index, spec))

    results: Dict[int, RunResult] = {}
    dispatched_groups = 0
    dispatched_by_protocol: Dict[str, int] = {}
    for (protocol_key, graph, budget), members in groups.items():
        if len(members) < 2:
            continue
        results.update(
            _run_group(protocol_key, graph, budget, members, protocols)
        )
        dispatched_groups += 1
        dispatched_by_protocol[protocol_key] = dispatched_by_protocol.get(
            protocol_key, 0
        ) + len(members)
    if dispatched_groups:
        _record_dispatch(dispatched_groups, dispatched_by_protocol)
    return results


def _run_group(
    protocol_key: str,
    graph,
    budget: int,
    members: List[Tuple[int, object]],
    protocols: dict,
) -> Dict[int, RunResult]:
    """One ``run_batch`` call for one group, decoded row-by-row.

    ``budget`` is the already-resolved round budget (the group key), so
    every member runs under the identical limit it would have resolved
    per-trial.  Encoding validates every member exactly like the
    per-trial kernel does.
    """
    from repro.core.executor import _as_configuration

    module_name, class_name, final_attr = _SWEEP_KERNELS[protocol_key]
    kernel_cls = getattr(importlib.import_module(module_name), class_name)
    protocol = protocols[protocol_key]
    initials = [
        _as_configuration(protocol, graph, spec.config) for _, spec in members
    ]
    kernel = kernel_cls(graph)
    single = kernel.single
    start = time.perf_counter()
    res = kernel.run_batch(initials, max_rounds=budget)
    final = getattr(res, final_attr)
    out: Dict[int, RunResult] = {}
    for row, (index, _spec) in enumerate(members):
        moves_by_rule = {
            name: int(counts[row]) for name, counts in res.moves_by_rule.items()
        }
        out[index] = RunResult(
            protocol_name=protocol.name,
            daemon="synchronous",
            stabilized=bool(res.stabilized[row]),
            rounds=int(res.rounds[row]),
            moves=sum(moves_by_rule.values()),
            moves_by_rule=moves_by_rule,
            initial=initials[row],
            final=single.decode(final[row]),
            legitimate=single.legitimate(final[row]),
            backend="batch",
        )
    # one wall-clock for k trials, encode through the last row's
    # legitimacy — the span a per-trial ``elapsed`` covers: an equal
    # share per row keeps the latency histogram comparable across paths
    per_row = (time.perf_counter() - start) / len(members)
    for result in out.values():
        result.elapsed = per_row
    return out


# ----------------------------------------------------------------------
# visibility (all families backend-labelled: they describe *how* trials
# executed, so the cross-jobs metrics determinism pins exclude them)
# ----------------------------------------------------------------------
def _record_dispatch(groups: int, trials_by_protocol: Dict[str, int]) -> None:
    from repro.observability import metrics as _metrics

    reg = _metrics.current_registry()
    if reg is None:
        return
    reg.counter(
        "repro_batch_sweep_groups_total",
        "Spec groups executed as one batch-kernel call",
    ).inc(groups, backend="batch")
    trials = reg.counter(
        "repro_batch_sweep_trials_total",
        "Trials executed through batch-sweep dispatch",
    )
    for protocol_key in sorted(trials_by_protocol):
        trials.inc(
            trials_by_protocol[protocol_key],
            protocol=protocol_key,
            backend="batch",
        )


def record_fallback(reason: str) -> None:
    """Count a wholesale batching bypass (tracer ambient, resilient
    mode) so degraded sweeps are observable, mirroring the engine's
    ``repro_backend_fallbacks_total`` convention."""
    from repro.observability import metrics as _metrics

    reg = _metrics.current_registry()
    if reg is None:
        return
    reg.counter(
        "repro_batch_sweep_fallbacks_total",
        "Sweeps that bypassed batch dispatch wholesale",
    ).inc(reason=reason, backend="batch")
