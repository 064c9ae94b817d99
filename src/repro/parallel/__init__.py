"""Parallel trial execution for the experiment harness.

Every experiment quantifies over graph families × sizes × dozens of
seeded initial configurations; the trials are independent, so the sweep
is embarrassingly parallel.  This package fans :class:`TrialSpec`
records across persistent forked worker processes while keeping results
bit-identical to serial execution (pinned by ``tests/test_parallel.py``):

* specs are plain data (protocol *name*, graph, configuration, integer
  seed) — workers rebuild protocol objects from :data:`PROTOCOLS` and
  derive RNGs from the spec's seed via :mod:`repro.rng`, so the result
  of a trial is a pure function of its spec regardless of which process
  runs it;
* results come back in spec order;
* ``jobs=1`` (the default everywhere) runs inline — no worker, no
  pickling;
* one scheduler serves every multi-process sweep: up to ``jobs``
  workers forked per sweep, each inheriting the spec list and receiving
  spec indices, stopped and reaped when the sweep ends
  (:func:`live_workers` audits that none outlives it); a dead worker
  degrades the sweep gracefully to inline execution;
* workers pin BLAS/OMP to one thread each so ``jobs`` processes never
  oversubscribe the machine;
* the resilient mode (``timeout``/``retries``/``checkpoint``) gives
  sweeps per-trial wall-clock timeouts, bounded retry with exponential
  backoff, :class:`FailedTrial` records instead of batch aborts, and
  JSONL checkpoint/resume keyed by :func:`spec_fingerprint`;
* batch-sweep dispatch (:mod:`repro.parallel.batch_sweep`) runs groups
  of same-graph synchronous specs as one ``(k, n)`` batch-kernel call,
  result-preserving.

See docs/performance.md for usage and measured numbers.
"""

from repro.parallel.batch_sweep import dispatch_groups, sweep_eligible
from repro.parallel.trial_runner import (
    PROTOCOLS,
    FailedTrial,
    SweepCancelled,
    SweepInterrupted,
    TrialRunner,
    TrialSpec,
    execute_trial,
    live_workers,
    resolve_jobs,
    run_trials,
    spec_fingerprint,
)

__all__ = [
    "PROTOCOLS",
    "FailedTrial",
    "SweepCancelled",
    "SweepInterrupted",
    "TrialRunner",
    "TrialSpec",
    "dispatch_groups",
    "execute_trial",
    "live_workers",
    "resolve_jobs",
    "run_trials",
    "spec_fingerprint",
    "sweep_eligible",
]
