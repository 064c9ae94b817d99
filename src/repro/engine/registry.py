"""Protocol and backend registries for the unified execution engine.

Two registries, both plain-data and extensible:

* :data:`PROTOCOLS` — name → protocol *factory* (factories, not
  instances, because rule closures are not picklable: each worker
  process rebuilds the protocol locally).  This is the registry that
  used to live in ``repro.parallel.trial_runner``; it is re-exported
  there for compatibility.
* :data:`BACKENDS` — ``(protocol, daemon, backend)`` → :class:`Backend`:
  a runner callable plus a capability set and a ``supports`` predicate.
  Registering a protocol automatically registers the reference engine
  as its ``"reference"`` backend under every daemon; kernels register
  explicitly with higher priority so ``backend="auto"`` selection
  (:mod:`repro.engine.select`) prefers them when they apply.

Everything here is import-light by design: protocol factories and
backend runners import their implementation modules lazily inside the
call, so ``repro.engine`` can be imported from anywhere (including
``repro.core.executor``) without cycles.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.engine.result import RunResult
from repro.errors import ExperimentError

#: Daemons the engine can dispatch to (the budget keyword differs per
#: daemon: max_rounds / max_moves / max_rounds / max_steps).
DAEMONS: Tuple[str, ...] = (
    "synchronous",
    "central",
    "synchronized-central",
    "distributed",
)

#: Registered protocol factories, keyed by the names trial specs carry.
PROTOCOLS: Dict[str, Callable[[], object]] = {}

#: Capabilities of the reference engine: it can do everything.
REFERENCE_CAPABILITIES = frozenset(
    {"move_log", "history", "monitors", "rng", "active_set", "telemetry",
     "faults"}
)

Runner = Callable[..., RunResult]
SupportsFn = Callable[[object, object, object, Mapping[str, object]], bool]


@dataclass(frozen=True)
class Backend:
    """One registered way to execute one protocol under one daemon.

    ``runner(protocol, graph, config, *, rng, max_rounds,
    record_history, raise_on_timeout, **options)`` must return a
    :class:`~repro.engine.result.RunResult`.  ``capabilities`` is a
    static advertisement (``"move_log"``, ``"history"``, ...);
    ``supports`` is the dynamic predicate ``backend="auto"`` consults —
    it sees the concrete protocol instance, graph, configuration and
    the merged option mapping (including ``record_history`` and
    ``monitors``) and must return whether this backend reproduces the
    reference semantics for that run.  ``modules`` names the modules the
    runner and predicate import lazily, which :func:`preload` imports
    ahead of time.
    """

    protocol: str
    daemon: str
    name: str
    runner: Runner
    capabilities: frozenset = frozenset()
    priority: int = 0
    supports_fn: Optional[SupportsFn] = None
    modules: Tuple[str, ...] = ()

    def supports(
        self,
        protocol: object,
        graph: object,
        config: object = None,
        options: Mapping[str, object] = {},
    ) -> bool:
        if self.supports_fn is None:
            return True
        return self.supports_fn(protocol, graph, config, options)


#: (protocol, daemon, backend-name) → Backend
BACKENDS: Dict[Tuple[str, str, str], Backend] = {}


# ----------------------------------------------------------------------
# protocol registry
# ----------------------------------------------------------------------
def register_protocol(name: str, factory: Callable[[], object]) -> None:
    """Register a protocol factory for use in trial specs and
    :func:`repro.engine.run`.

    The reference engine is automatically registered as the
    ``"reference"`` backend of the protocol under every daemon.
    """
    PROTOCOLS[name] = factory
    for daemon in DAEMONS:
        key = (name, daemon, "reference")
        if key not in BACKENDS:
            BACKENDS[key] = reference_backend(name, daemon)


def make_protocol(name: str) -> object:
    """Build a fresh protocol instance from its registered name."""
    try:
        factory = PROTOCOLS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown protocol {name!r}; known: {sorted(PROTOCOLS)}"
        ) from None
    return factory()


def protocol_key(protocol: object) -> Optional[str]:
    """The registered name whose factory builds this protocol's exact
    type, or ``None``.

    Used to look up backends when :func:`repro.engine.run` is handed a
    protocol *instance*; backend ``supports`` predicates still vet the
    instance (e.g. injected choosers disqualify the kernels).
    """
    for name, factory in PROTOCOLS.items():
        try:
            if type(factory()) is type(protocol):
                return name
        except Exception:  # pragma: no cover - defensive: bad factory
            continue
    return None


# ----------------------------------------------------------------------
# backend registry
# ----------------------------------------------------------------------
def register_backend(
    protocol: str,
    daemon: str,
    name: str,
    runner: Runner,
    *,
    capabilities: frozenset = frozenset(),
    priority: int = 0,
    supports: Optional[SupportsFn] = None,
    modules: Tuple[str, ...] = (),
) -> None:
    """Register (or replace) a backend for ``(protocol, daemon)``.
    ``modules`` lists what ``runner`` and ``supports`` import lazily
    (see :func:`preload`)."""
    BACKENDS[(protocol, daemon, name)] = Backend(
        protocol=protocol,
        daemon=daemon,
        name=name,
        runner=runner,
        capabilities=frozenset(capabilities),
        priority=priority,
        supports_fn=supports,
        modules=tuple(modules),
    )


def get_backend(protocol: str, daemon: str, name: str) -> Backend:
    """Look up one backend; raises :class:`ExperimentError` if absent."""
    try:
        return BACKENDS[(protocol, daemon, name)]
    except KeyError:
        known = backend_names(protocol, daemon)
        raise ExperimentError(
            f"unknown backend {name!r} for protocol {protocol!r} under the "
            f"{daemon!r} daemon; registered: {known}"
        ) from None


def backends_for(protocol: str, daemon: str = "synchronous") -> List[Backend]:
    """All backends registered for ``(protocol, daemon)``, highest
    priority first (name-ordered within a priority tier)."""
    found = [
        b
        for (p, d, _), b in BACKENDS.items()
        if p == protocol and d == daemon
    ]
    return sorted(found, key=lambda b: (-b.priority, b.name))


def backend_names(protocol: str, daemon: str = "synchronous") -> List[str]:
    """Registered backend names for ``(protocol, daemon)``."""
    return [b.name for b in backends_for(protocol, daemon)]


def preload(protocol: str, daemon: str = "synchronous", backend: str = "auto") -> None:
    """Import now what a run of ``protocol`` under ``daemon`` on
    ``backend`` would import lazily: the protocol's module and the
    ``modules`` of every backend the run may select (all candidates for
    ``"auto"``).

    A process about to fork trial workers calls this first, so every
    child starts with the modules loaded instead of importing them
    itself.
    Best effort: unknown names, a failing factory or a failing import
    are left for the run itself to report.
    """
    if backend == "auto":
        candidates = backends_for(protocol, daemon)
    else:
        candidates = [b for b in (BACKENDS.get((protocol, daemon, backend)),) if b]
    try:
        make_protocol(protocol)
        for candidate in candidates:
            for module in candidate.modules:
                importlib.import_module(module)
    except Exception:
        pass


# ----------------------------------------------------------------------
# the reference backend (works for every protocol)
# ----------------------------------------------------------------------
def _reference_runner(daemon: str) -> Runner:
    def runner(
        protocol,
        graph,
        config=None,
        *,
        rng=None,
        max_rounds=None,
        record_history=False,
        raise_on_timeout=False,
        **options,
    ) -> RunResult:
        from repro.core import executor

        if daemon == "synchronous":
            return executor.run_synchronous(
                protocol,
                graph,
                config,
                rng=rng,
                max_rounds=max_rounds,
                record_history=record_history,
                raise_on_timeout=raise_on_timeout,
                **options,
            )
        if daemon == "central":
            return executor.run_central(
                protocol,
                graph,
                config,
                rng=rng,
                max_moves=max_rounds,
                record_history=record_history,
                raise_on_timeout=raise_on_timeout,
                **options,
            )
        if daemon == "synchronized-central":
            from repro.core.transform import run_synchronized_central

            return run_synchronized_central(
                protocol,
                graph,
                config,
                rng=rng,
                max_rounds=max_rounds,
                record_history=record_history,
                raise_on_timeout=raise_on_timeout,
                **options,
            )
        if daemon == "distributed":
            return executor.run_distributed(
                protocol,
                graph,
                config,
                rng=rng,
                max_steps=max_rounds,
                record_history=record_history,
                raise_on_timeout=raise_on_timeout,
                **options,
            )
        raise ExperimentError(
            f"unknown daemon {daemon!r}; known: {list(DAEMONS)}"
        )  # pragma: no cover - guarded upstream

    return runner


#: What the reference runner imports lazily.
_REFERENCE_MODULES = ("repro.core.executor", "repro.core.transform")


def reference_backend(protocol: str, daemon: str) -> Backend:
    """A reference-engine :class:`Backend` for ``(protocol, daemon)``.

    Always available — the reference engine runs any protocol under any
    daemon; ``supports`` is unconditionally true."""
    return Backend(
        protocol=protocol,
        daemon=daemon,
        name="reference",
        runner=_reference_runner(daemon),
        capabilities=REFERENCE_CAPABILITIES,
        priority=0,
        modules=_REFERENCE_MODULES,
    )


# ----------------------------------------------------------------------
# built-in registrations (all lazy — nothing imported until called)
# ----------------------------------------------------------------------
def _factory(module: str, attr: str) -> Callable[[], object]:
    def make() -> object:
        return getattr(importlib.import_module(module), attr)()

    return make


def _kernel(module: str, cls_name: str) -> Dict[str, object]:
    """The ``runner`` and ``modules`` of a backend driving the array
    kernel ``module.cls_name`` through the shared engine adapter
    (:mod:`repro.engine.adapter`)."""

    def runner(*args, **kwargs) -> RunResult:
        from repro.engine.adapter import run_kernel

        kernel_cls = getattr(importlib.import_module(module), cls_name)
        return run_kernel(kernel_cls, *args, **kwargs)

    return {"runner": runner, "modules": ("repro.engine.adapter", module)}


def _options_ok(options: Mapping[str, object], allowed: frozenset) -> bool:
    """A kernel supports a run only when every truthy option is one it
    implements (``monitors=()``, ``record_history=False`` are falsy and
    therefore always fine)."""
    return all(key in allowed or not value for key, value in options.items())


def _supports_kernel(type_path: str, allowed: frozenset = frozenset()):
    """Supports-predicate for a kernel: the protocol must be exactly the
    published type (no subclass, no injected choosers — see the SMM
    special case below) and no unsupported option may be requested."""
    module, _, cls_name = type_path.rpartition(".")

    def supports(protocol, graph, config, options) -> bool:
        cls = getattr(importlib.import_module(module), cls_name)
        return type(protocol) is cls and _options_ok(options, allowed)

    return supports


def _supports_plain_smm(allowed: frozenset = frozenset()):
    """The SMM kernels hardwire min-id choice in R1 and R2, so they
    apply only to :class:`SynchronousMaximalMatching` instances whose
    choosers are both the published ``min_id_chooser``."""

    def supports(protocol, graph, config, options) -> bool:
        from repro.matching.smm import SynchronousMaximalMatching, min_id_chooser

        return (
            type(protocol) is SynchronousMaximalMatching
            and protocol._accept is min_id_chooser
            and protocol._propose is min_id_chooser
            and _options_ok(options, allowed)
        )

    return supports


def _make_arbitrary_clockwise() -> object:
    from repro.matching.variants import (
        ArbitraryChoiceSMM,
        cyclic_successor_chooser,
    )

    return ArbitraryChoiceSMM(cyclic_successor_chooser)


def _make_smm_max_accept() -> object:
    from repro.matching.smm import SynchronousMaximalMatching, max_id_chooser

    return SynchronousMaximalMatching(accept_chooser=max_id_chooser)


def _register_builtins() -> None:
    # protocols (factories — instances are rebuilt in each worker)
    register_protocol(
        "smm", _factory("repro.matching.smm", "SynchronousMaximalMatching")
    )
    register_protocol(
        "sis", _factory("repro.mis.sis", "SynchronousMaximalIndependentSet")
    )
    register_protocol(
        "hsu-huang", _factory("repro.matching.hsu_huang", "HsuHuangMatching")
    )
    register_protocol("luby", _factory("repro.mis.variants", "LubyStyleMIS"))
    register_protocol(
        "mis-central", _factory("repro.mis.variants", "CentralDaemonMIS")
    )
    register_protocol(
        "smm-randomized", _factory("repro.matching.variants", "RandomizedSMM")
    )
    register_protocol("smm-arbitrary-clockwise", _make_arbitrary_clockwise)
    register_protocol("smm-max-accept", _make_smm_max_accept)

    # kernel backends (one shared engine adapter drives every kernel).
    # every kernel implements cheap telemetry collection (an observer on
    # its own stepping loop), so requesting telemetry never disqualifies
    # the fast path.
    telemetry = frozenset({"telemetry"})
    active = frozenset({"active_set"}) | telemetry
    # the SMM/SIS kernels also run fault campaigns on the dense arrays;
    # "faults" is the capability, "fault_plan" the option name their
    # supports-predicates must whitelist
    faulty = active | frozenset({"faults"})
    faulty_options = active | frozenset({"fault_plan"})
    register_backend(
        "smm",
        "synchronous",
        "vectorized",
        **_kernel("repro.matching.smm_vectorized", "VectorizedSMM"),
        capabilities=faulty,
        priority=20,
        supports=_supports_plain_smm(faulty_options),
    )
    register_backend(
        "sis",
        "synchronous",
        "vectorized",
        **_kernel("repro.mis.sis_vectorized", "VectorizedSIS"),
        capabilities=faulty,
        priority=20,
        supports=_supports_kernel(
            "repro.mis.sis.SynchronousMaximalIndependentSet", faulty_options
        ),
    )
    register_backend(
        "luby",
        "synchronous",
        "vectorized",
        **_kernel("repro.mis.luby_vectorized", "VectorizedLuby"),
        capabilities=frozenset({"rng"}) | telemetry,
        priority=20,
        supports=_supports_kernel("repro.mis.variants.LubyStyleMIS", telemetry),
    )


_register_builtins()
