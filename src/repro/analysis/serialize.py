"""Serialization of executions and experiment results.

Experiment artefacts should outlive the Python session: this module
renders :class:`~repro.core.executor.Execution` records and
:class:`~repro.experiments.common.ExperimentResult` tables to plain
JSON / CSV so downstream tooling (plotting, regression tracking)
needs no imports from this library.

Pointer states serialize ``None`` as JSON ``null``; tuple states (MDS,
BFS tree) as JSON arrays; everything round-trips through
:func:`execution_from_dict` for the state shapes used by the built-in
protocols.
"""

from __future__ import annotations

import csv
import io
import json
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Sequence

from repro.core.configuration import Configuration
from repro.core.executor import Execution

if TYPE_CHECKING:  # imported lazily at runtime to avoid a cycle:
    # experiments.common renders tables via repro.analysis.tables, so
    # the analysis package must not import experiments at import time.
    from repro.experiments.common import ExperimentResult

#: Version of the serialization schema defined by this module — the
#: wire format of executions, trial specs and the serve request/response
#: schemas built on them.  Folded into
#: :func:`repro.parallel.spec_fingerprint`, so bumping it invalidates
#: every content-addressed artefact keyed by a fingerprint (resume
#: checkpoints, the serve result store) across incompatible releases
#: instead of silently replaying stale bytes.  History: 1 = the
#: unversioned pre-serve format; 2 = versioned fingerprints + trial-spec
#: / graph serialization (the `repro serve` wire schema).
SCHEMA_VERSION = 2


def _state_to_json(state: Any) -> Any:
    if isinstance(state, tuple):
        return list(state)
    return state


def _state_from_json(state: Any) -> Any:
    if isinstance(state, list):
        return tuple(state)
    return state


def configuration_to_dict(config: Mapping) -> Dict[str, Any]:
    """JSON-safe mapping (keys become strings, tuples become lists)."""
    return {str(node): _state_to_json(s) for node, s in sorted(config.items())}


def configuration_from_dict(data: Mapping[str, Any]) -> Configuration:
    return Configuration(
        {int(node): _state_from_json(s) for node, s in data.items()}
    )


def execution_to_dict(execution: Execution) -> Dict[str, Any]:
    """A JSON-safe dictionary with the full execution record.

    The (optional) history is included when present; monitors are not
    serializable and are simply absent.  Kernel-backend results
    (:class:`~repro.engine.result.RunResult` with ``move_log=None``)
    serialize the missing log as JSON ``null``.
    """
    return {
        "protocol": execution.protocol_name,
        "daemon": execution.daemon,
        "backend": execution.backend,
        "stabilized": execution.stabilized,
        "rounds": execution.rounds,
        "moves": execution.moves,
        "moves_by_rule": dict(execution.moves_by_rule),
        "legitimate": execution.legitimate,
        "initial": configuration_to_dict(execution.initial),
        "final": configuration_to_dict(execution.final),
        "move_log": (
            [
                {str(node): rule for node, rule in entry.items()}
                for entry in execution.move_log
            ]
            if execution.move_log is not None
            else None
        ),
        "history": (
            [configuration_to_dict(c) for c in execution.history]
            if execution.history is not None
            else None
        ),
        "telemetry": (
            execution.telemetry.to_dict()
            if execution.telemetry is not None
            else None
        ),
        # span fragments are already plain JSON-safe dicts
        "trace": execution.trace,
        "bound_ok": getattr(execution, "bound_ok", None),
    }


def execution_to_json(execution: Execution, *, indent: int | None = None) -> str:
    return json.dumps(execution_to_dict(execution), indent=indent)


def execution_from_dict(data: Mapping[str, Any]) -> Execution:
    """Rebuild an :class:`Execution` from :func:`execution_to_dict`
    output (states restored per the tuple/list convention)."""
    from repro.observability import RunTelemetry

    return Execution(
        protocol_name=data["protocol"],
        daemon=data["daemon"],
        stabilized=bool(data["stabilized"]),
        rounds=int(data["rounds"]),
        moves=int(data["moves"]),
        moves_by_rule={str(k): int(v) for k, v in data["moves_by_rule"].items()},
        initial=configuration_from_dict(data["initial"]),
        final=configuration_from_dict(data["final"]),
        move_log=(
            [
                {int(node): str(rule) for node, rule in entry.items()}
                for entry in data["move_log"]
            ]
            if data.get("move_log") is not None
            else None
        ),
        history=(
            [configuration_from_dict(c) for c in data["history"]]
            if data.get("history") is not None
            else None
        ),
        legitimate=bool(data["legitimate"]),
        backend=str(data.get("backend", "reference")),
        telemetry=(
            RunTelemetry.from_dict(data["telemetry"])
            if data.get("telemetry") is not None
            else None
        ),
        trace=data.get("trace"),
        bound_ok=data.get("bound_ok"),
    )


def execution_from_json(text: str) -> Execution:
    return execution_from_dict(json.loads(text))


# ----------------------------------------------------------------------
# graphs and trial specs (the serve / job-journal wire format)
# ----------------------------------------------------------------------
def graph_to_dict(graph) -> Dict[str, Any]:
    """JSON-safe topology: explicit node and sorted edge lists."""
    return {
        "nodes": [int(n) for n in graph.nodes],
        "edges": sorted(
            [int(u), int(v)] if int(u) <= int(v) else [int(v), int(u)]
            for u, v in graph.edges
        ),
    }


def graph_from_dict(data: Mapping[str, Any]):
    """Rebuild a :class:`~repro.graphs.graph.Graph` from
    :func:`graph_to_dict` output."""
    from repro.graphs.graph import Graph

    return Graph(
        [int(n) for n in data["nodes"]],
        [(int(u), int(v)) for u, v in data.get("edges", ())],
    )


def _option_value_to_json(name: str, value: Any) -> Any:
    """JSON encoding for one trial-spec option value.

    Scalars pass through; a :class:`~repro.resilience.FaultPlan` (any
    object with ``to_dict``/``from_dict``) is tagged so it round-trips.
    Anything else — injected callables, monitors — has no wire format
    and is rejected: such specs cannot cross the serve/journal boundary.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if hasattr(value, "to_dict") and hasattr(type(value), "from_dict"):
        module = type(value).__module__
        return {
            "__kind__": "object",
            "class": f"{module}.{type(value).__qualname__}",
            "value": value.to_dict(),
        }
    raise ValueError(
        f"trial-spec option {name!r} has no serialization "
        f"({type(value).__name__}); only JSON scalars and "
        "to_dict/from_dict objects (e.g. FaultPlan) cross the wire"
    )


def _option_value_from_json(value: Any) -> Any:
    if isinstance(value, Mapping) and value.get("__kind__") == "object":
        import importlib

        module_name, _, qualname = value["class"].rpartition(".")
        cls = getattr(importlib.import_module(module_name), qualname)
        return cls.from_dict(value["value"])
    return value


def trial_spec_to_dict(spec, *, graph_ref: Optional[int] = None) -> Dict[str, Any]:
    """JSON-safe :class:`~repro.parallel.TrialSpec` (versioned with
    :data:`SCHEMA_VERSION`; round-trips through
    :func:`trial_spec_from_dict`).  Raises ``ValueError`` for specs
    carrying non-serializable option values.

    With ``graph_ref`` the ``graph`` field is that index into a list of
    :func:`graph_to_dict` records kept beside the specs (the job
    journal writes each distinct graph once) instead of the graph.
    """
    return {
        "schema": SCHEMA_VERSION,
        "protocol": spec.protocol,
        "graph": graph_to_dict(spec.graph) if graph_ref is None else graph_ref,
        "config": (
            None
            if spec.config is None
            else configuration_to_dict(dict(spec.config))
        ),
        "daemon": spec.daemon,
        "max_rounds": spec.max_rounds,
        "record_history": spec.record_history,
        "seed": None if spec.seed is None else int(spec.seed),
        "options": [
            [name, _option_value_to_json(name, value)]
            for name, value in spec.options
        ],
        "backend": spec.backend,
        "telemetry": spec.telemetry,
        "convergence": getattr(spec, "convergence", False),
    }


def trial_spec_from_dict(data: Mapping[str, Any], graphs: Sequence[Any] = ()):
    """Rebuild a :class:`~repro.parallel.TrialSpec` from
    :func:`trial_spec_to_dict` output; an integer ``graph`` field
    indexes the already rebuilt ``graphs``."""
    from repro.parallel.trial_runner import TrialSpec

    config = data.get("config")
    graph = data["graph"]
    return TrialSpec(
        protocol=str(data["protocol"]),
        graph=graphs[graph] if isinstance(graph, int) else graph_from_dict(graph),
        config=None if config is None else configuration_from_dict(config),
        daemon=str(data.get("daemon", "synchronous")),
        max_rounds=(
            None if data.get("max_rounds") is None else int(data["max_rounds"])
        ),
        record_history=bool(data.get("record_history", False)),
        seed=None if data.get("seed") is None else int(data["seed"]),
        options=tuple(
            (str(name), _option_value_from_json(value))
            for name, value in data.get("options", ())
        ),
        backend=str(data.get("backend", "reference")),
        telemetry=bool(data.get("telemetry", False)),
        convergence=bool(data.get("convergence", False)),
    )


# ----------------------------------------------------------------------
# batch kernel results
# ----------------------------------------------------------------------
def batch_result_to_dict(result: Any) -> Dict[str, Any]:
    """JSON-safe dictionary for a batch kernel result.

    Accepts either :class:`repro.matching.smm_batch.BatchResult`
    (``final_ptr``) or :class:`repro.mis.sis_batch.BatchResult`
    (``final_x``); arrays become nested lists and ``moves_by_rule``
    serializes per rule as a per-row count list, mirroring the
    single-run telemetry counter convention.
    """
    final_key = "final_ptr" if hasattr(result, "final_ptr") else "final_x"
    return {
        "stabilized": [bool(v) for v in result.stabilized],
        "rounds": [int(v) for v in result.rounds],
        final_key: getattr(result, final_key).tolist(),
        "moves_by_rule": {
            str(rule): [int(v) for v in counts]
            for rule, counts in sorted(result.moves_by_rule.items())
        },
    }


def batch_result_to_json(result: Any, *, indent: int | None = None) -> str:
    return json.dumps(batch_result_to_dict(result), indent=indent)


def batch_result_from_dict(data: Mapping[str, Any]):
    """Rebuild a batch result from :func:`batch_result_to_dict` output.

    The final-matrix key selects the family: ``final_ptr`` rebuilds the
    SMM variant, ``final_x`` the SIS one.
    """
    import numpy as np

    moves_by_rule = {
        str(rule): np.asarray(counts, dtype=np.int64)
        for rule, counts in data["moves_by_rule"].items()
    }
    common = {
        "stabilized": np.asarray(data["stabilized"], dtype=bool),
        "rounds": np.asarray(data["rounds"], dtype=np.int64),
        "moves_by_rule": moves_by_rule,
    }
    if "final_ptr" in data:
        from repro.matching.smm_batch import BatchResult

        return BatchResult(final_ptr=np.asarray(data["final_ptr"]), **common)
    from repro.mis.sis_batch import BatchResult

    return BatchResult(final_x=np.asarray(data["final_x"]), **common)


def batch_result_from_json(text: str):
    return batch_result_from_dict(json.loads(text))


# ----------------------------------------------------------------------
# experiment results
# ----------------------------------------------------------------------
def result_to_dict(result: "ExperimentResult") -> Dict[str, Any]:
    return {
        "experiment": result.experiment,
        "paper_artifact": result.paper_artifact,
        "columns": list(result.columns),
        "rows": [dict(row) for row in result.rows],
        "notes": list(result.notes),
    }


def result_to_json(result: "ExperimentResult", *, indent: int | None = None) -> str:
    return json.dumps(result_to_dict(result), indent=indent)


def result_to_csv(result: "ExperimentResult") -> str:
    """The result rows as CSV (columns in table order; missing cells
    empty).  Notes are not representable in CSV and are omitted."""
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf, fieldnames=list(result.columns), extrasaction="ignore"
    )
    writer.writeheader()
    for row in result.rows:
        writer.writerow({col: row.get(col, "") for col in result.columns})
    return buf.getvalue()


def result_from_json(text: str) -> "ExperimentResult":
    from repro.experiments.common import ExperimentResult

    data = json.loads(text)
    result = ExperimentResult(
        experiment=data["experiment"],
        paper_artifact=data["paper_artifact"],
        columns=list(data["columns"]),
    )
    for row in data["rows"]:
        result.rows.append(dict(row))
    result.notes.extend(data.get("notes", []))
    return result
