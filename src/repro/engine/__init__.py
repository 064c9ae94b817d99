"""Unified execution engine: one registry, one result type, one
dispatch path.

Everything that executes a protocol — the reference view-based engine,
the vectorized NumPy kernels, the batch kernels — is a registered
*backend* behind :func:`run`:

>>> from repro import engine
>>> result = engine.run("smm", graph)                     # auto-select
>>> result = engine.run("smm", graph, backend="vectorized")  # explicit
>>> result.backend, result.rounds, result.legitimate
('vectorized', 3, True)

All backends return :class:`RunResult` and agree byte-for-byte on the
summary fields (final configuration, rounds, per-rule move counts,
legitimacy) — pinned by ``tests/test_engine_equivalence.py``.  See
docs/performance.md for the selection story and docs/extending.md for
how to register a new backend.
"""

from repro.engine.registry import (
    BACKENDS,
    DAEMONS,
    PROTOCOLS,
    Backend,
    backend_names,
    backends_for,
    get_backend,
    make_protocol,
    preload,
    protocol_key,
    register_backend,
    register_protocol,
)
from repro.engine.result import RunResult
from repro.engine.select import fallback_backend, run, select_backend

__all__ = [
    "BACKENDS",
    "DAEMONS",
    "PROTOCOLS",
    "Backend",
    "RunResult",
    "backend_names",
    "backends_for",
    "fallback_backend",
    "get_backend",
    "make_protocol",
    "preload",
    "protocol_key",
    "register_backend",
    "register_protocol",
    "run",
    "select_backend",
]
