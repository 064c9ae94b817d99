"""Wire schema of the serve control plane: JSON in, trial specs out.

A sweep request is one JSON object with either an explicit ``trials``
list or a generator-form ``sweep`` block (protocol × graph family ×
trial count, expanded exactly like the experiment sweeps expand their
cells).  Both forms validate into ordinary
:class:`~repro.parallel.TrialSpec` records — the same plain data the
CLI and experiments feed :func:`~repro.parallel.run_trials` — so a
request's results are byte-identical to running the specs directly
(pinned by ``tests/test_serve.py``).

Request shape::

    {
      "mode": "auto" | "sync" | "async",      # default "auto"
      "label": "nightly smm sweep",           # optional, display only
      "deadline_s": 30,                       # optional; job is shed as
                                              # cancelled past this many
                                              # seconds after submit
      "trials": [ {<trial>}, ... ],           # explicit form
      "sweep": { ... }                        # or generator form
    }

One ``<trial>``::

    {
      "protocol": "smm",                      # required
      "graph": {"family": "cycle", "n": 16}   # or {"nodes": [...],
                                              #     "edges": [[u,v],..]}
      "config": {"0": null, "1": 0, ...},     # optional initial states
      "daemon": "synchronous",
      "max_rounds": null,
      "seed": 3,
      "backend": "auto",
      "telemetry": false,
      "options": {"name": value, ...}         # JSON scalars (+ tagged
                                              # objects, e.g. FaultPlan)
    }

Generator form (``sweep``)::

    {
      "protocol": "smm", "family": "cycle", "n": 16,
      "trials": 5, "seed": 101,               # per-trial seeds derived
      "init": "random" | "clean",             # default "random"
      "daemon": "synchronous", "backend": "auto",
      "max_rounds": null, "telemetry": false,
      "graph_seed": 7                         # random families only
    }

Errors raise :class:`RequestError` with a message naming the offending
field — the server maps them to HTTP 400.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Mapping, Optional, Tuple

from repro.analysis.serialize import (
    SCHEMA_VERSION,
    configuration_from_dict,
    graph_from_dict,
)
from repro.engine.registry import DAEMONS, PROTOCOLS, backend_names
from repro.graphs.graph import Graph
from repro.parallel.trial_runner import TrialSpec

__all__ = [
    "MAX_REQUEST_TRIALS",
    "MODES",
    "RequestError",
    "SweepRequest",
    "parse_sweep_request",
]

MODES: Tuple[str, ...] = ("auto", "sync", "async")

#: Hard per-request trial ceiling — a queue-protection limit, not a
#: scaling one (submit several requests for more).
MAX_REQUEST_TRIALS = 4096

#: Graph size ceiling for the *generator* form (explicit node/edge
#: lists are bounded by the HTTP body size instead).
MAX_REQUEST_NODES = 1_000_000


class RequestError(ValueError):
    """A sweep request that does not validate; the message names the
    offending field.  Mapped to HTTP 400 by the server."""


@dataclass(frozen=True)
class SweepRequest:
    """A validated sweep submission."""

    specs: Tuple[TrialSpec, ...]
    mode: str = "auto"
    label: Optional[str] = None
    #: seconds from submission after which the job is shed (queued jobs
    #: cancel immediately, running ones at the next trial boundary)
    deadline_s: Optional[float] = None


def parse_sweep_request(payload: Any) -> SweepRequest:
    """Validate one JSON request body into a :class:`SweepRequest`."""
    if not isinstance(payload, Mapping):
        raise RequestError("request body must be a JSON object")
    schema = payload.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise RequestError(
            f"schema version {schema!r} not supported "
            f"(this server speaks {SCHEMA_VERSION})"
        )
    mode = payload.get("mode", "auto")
    if mode not in MODES:
        raise RequestError(f"mode must be one of {MODES}, got {mode!r}")
    label = payload.get("label")
    if label is not None and not isinstance(label, str):
        raise RequestError("label must be a string")
    deadline_s = payload.get("deadline_s")
    if deadline_s is not None:
        if (
            isinstance(deadline_s, bool)
            or not isinstance(deadline_s, (int, float))
            or deadline_s <= 0
        ):
            raise RequestError(
                f"deadline_s must be a positive number, got {deadline_s!r}"
            )
        deadline_s = float(deadline_s)
    trials = payload.get("trials")
    sweep = payload.get("sweep")
    if (trials is None) == (sweep is None):
        raise RequestError(
            "request needs exactly one of 'trials' (explicit spec list) "
            "or 'sweep' (generator form)"
        )
    if trials is not None:
        if not isinstance(trials, (list, tuple)) or not trials:
            raise RequestError("trials must be a non-empty array")
        specs = [
            _parse_trial(entry, where=f"trials[{i}]")
            for i, entry in enumerate(trials)
        ]
    else:
        specs = _expand_sweep(sweep)
    if len(specs) > MAX_REQUEST_TRIALS:
        raise RequestError(
            f"request expands to {len(specs)} trials; the per-request "
            f"ceiling is {MAX_REQUEST_TRIALS} (split into several "
            "submissions)"
        )
    return SweepRequest(
        specs=tuple(specs), mode=mode, label=label, deadline_s=deadline_s
    )


# ----------------------------------------------------------------------
# pieces
# ----------------------------------------------------------------------
def _require(data: Mapping, key: str, where: str) -> Any:
    if key not in data:
        raise RequestError(f"{where}.{key} is required")
    return data[key]


def _int_or_none(value: Any, where: str) -> Optional[int]:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(f"{where} must be an integer or null")
    return value


def _parse_graph(data: Any, where: str) -> Graph:
    if not isinstance(data, Mapping):
        raise RequestError(f"{where} must be an object")
    if "family" in data:
        from repro.errors import GraphError
        from repro.graphs.generators import family
        from repro.rng import ensure_rng

        name = data["family"]
        n = _require(data, "n", where)
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise RequestError(f"{where}.n must be a positive integer")
        if n > MAX_REQUEST_NODES:
            raise RequestError(
                f"{where}.n exceeds the per-request node ceiling "
                f"({MAX_REQUEST_NODES})"
            )
        seed = _int_or_none(data.get("seed"), f"{where}.seed")
        try:
            make = family(str(name))
            return make(n, ensure_rng(0 if seed is None else seed))
        except GraphError as exc:
            raise RequestError(f"{where}: {exc}") from None
    if "nodes" in data:
        try:
            return graph_from_dict(data)
        except Exception as exc:
            raise RequestError(f"{where}: invalid node/edge lists ({exc})")
    raise RequestError(
        f"{where} needs either a graph family "
        "({'family', 'n', ['seed']}) or explicit {'nodes', 'edges'}"
    )


def _parse_options(data: Any, where: str) -> Tuple[Tuple[str, Any], ...]:
    if data is None:
        return ()
    if not isinstance(data, Mapping):
        raise RequestError(f"{where} must be an object")
    from repro.analysis.serialize import _option_value_from_json

    out = []
    for name in sorted(data):
        value = data[name]
        if isinstance(value, (list, tuple)):
            raise RequestError(
                f"{where}.{name}: array option values have no spec "
                "representation"
            )
        try:
            out.append((str(name), _option_value_from_json(value)))
        except Exception as exc:
            raise RequestError(f"{where}.{name}: {exc}") from None
    return tuple(out)


def _parse_trial(data: Any, *, where: str) -> TrialSpec:
    if not isinstance(data, Mapping):
        raise RequestError(f"{where} must be an object")
    protocol = str(_require(data, "protocol", where))
    if protocol not in PROTOCOLS:
        raise RequestError(
            f"{where}.protocol: unknown protocol {protocol!r} "
            f"(known: {sorted(PROTOCOLS)})"
        )
    daemon = str(data.get("daemon", "synchronous"))
    if daemon not in DAEMONS:
        raise RequestError(
            f"{where}.daemon must be one of {DAEMONS}, got {daemon!r}"
        )
    backend = str(data.get("backend", "auto"))
    known = ["auto", *backend_names(protocol, daemon)]
    if backend not in known:
        raise RequestError(
            f"{where}.backend: unknown backend {backend!r} for {protocol!r} "
            f"under the {daemon!r} daemon (known: {known})"
        )
    graph = _parse_graph(_require(data, "graph", where), f"{where}.graph")
    config = data.get("config")
    if config is not None:
        if not isinstance(config, Mapping):
            raise RequestError(f"{where}.config must be an object or null")
        try:
            config = configuration_from_dict(config)
        except Exception as exc:
            raise RequestError(f"{where}.config: {exc}") from None
        unknown = set(config) - set(graph.nodes)
        if unknown:
            raise RequestError(
                f"{where}.config names nodes not in the graph: "
                f"{sorted(unknown)[:5]}"
            )
    return TrialSpec(
        protocol=protocol,
        graph=graph,
        config=config,
        daemon=daemon,
        max_rounds=_int_or_none(
            data.get("max_rounds"), f"{where}.max_rounds"
        ),
        record_history=False,  # histories are too large for the wire
        seed=_int_or_none(data.get("seed"), f"{where}.seed"),
        options=_parse_options(data.get("options"), f"{where}.options"),
        backend=backend,
        telemetry=bool(data.get("telemetry", False)),
    )


def _expand_sweep(data: Any) -> List[TrialSpec]:
    """The generator form: one graph, ``trials`` seeded trials."""
    where = "sweep"
    if not isinstance(data, Mapping):
        raise RequestError(f"{where} must be an object")
    protocol = str(_require(data, "protocol", where))
    if protocol not in PROTOCOLS:
        raise RequestError(
            f"{where}.protocol: unknown protocol {protocol!r} "
            f"(known: {sorted(PROTOCOLS)})"
        )
    count = data.get("trials", 1)
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise RequestError(f"{where}.trials must be a positive integer")
    if count > MAX_REQUEST_TRIALS:
        raise RequestError(
            f"{where}.trials exceeds the per-request ceiling "
            f"({MAX_REQUEST_TRIALS})"
        )
    init = data.get("init", "random")
    if init not in ("random", "clean"):
        raise RequestError(
            f"{where}.init must be 'random' or 'clean', got {init!r}"
        )
    seed = data.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise RequestError(f"{where}.seed must be an integer")
    graph_data = {
        "family": _require(data, "family", where),
        "n": _require(data, "n", where),
        "seed": data.get("graph_seed", seed),
    }
    graph = _parse_graph(graph_data, f"{where}")
    template = _parse_trial(
        {
            "protocol": protocol,
            "graph": {"nodes": [], "edges": []},  # placeholder, replaced
            "daemon": data.get("daemon", "synchronous"),
            "max_rounds": data.get("max_rounds"),
            "backend": data.get("backend", "auto"),
            "telemetry": data.get("telemetry", False),
            "options": data.get("options"),
        },
        where=where,
    )
    from dataclasses import replace

    from repro.core.faults import random_configuration
    from repro.engine.registry import make_protocol
    from repro.rng import ensure_rng, trial_seeds

    proto = make_protocol(protocol) if init == "random" else None
    specs = []
    for trial_seed in trial_seeds(seed, count):
        config = (
            random_configuration(proto, graph, ensure_rng(trial_seed))
            if proto is not None
            else None
        )
        specs.append(
            replace(template, graph=graph, config=config, seed=trial_seed)
        )
    return specs
