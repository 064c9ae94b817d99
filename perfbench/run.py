"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 20031 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all     # the four, one after another

Run from the root of a checkout: the program is imported from ``src/``
there.  ``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that gives the per-layer
metrics.  Metric names, units and directions come from BENCHMARK.json.

Output: a table of every metric with its unit and sample count, then,
as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every run is also appended
as one record to the ledger (``perfbench/history.jsonl`` by default;
never overwritten) and a traced run writes its spans to
``perfbench/out/``.  The exit code is 1 when any output failed its
oracle and 2 when the checkout is incomplete.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import signal
import subprocess
import sys
import time

import procs

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep", "large", "recover", "serve")
#: The default workload seed, and the held-out seed a claimed gain must
#: also hold on (not used while tuning a change).
DEFAULT_SEED = 20031
HELD_OUT_SEED = 777


def _git_sha(root: str) -> str:
    try:
        top, sha = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
        if os.path.realpath(top) != os.path.realpath(root):
            return "unknown"  # a checkout inside some other repository
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=root,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return sha + ("-dirty" if dirty else "")


def _bench_hash(bench_path: str) -> str:
    """Hash of the benchmark's own code and BENCHMARK.json: records
    compare like with like only when these agree."""
    digest = hashlib.sha256()
    for path in [bench_path] + sorted(
        os.path.join(HERE, name) for name in os.listdir(HERE) if name.endswith(".py")
    ):
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:12]


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    # every process the run starts, and every orphan one of them leaves,
    # has ended when the run does, whichever way it ends
    procs.adopt_orphans()
    try:
        return _main(argv)
    finally:
        procs.stop_children()


def _main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ledger", default=os.path.join(HERE, "history.jsonl"))
    args = parser.parse_args(argv)
    if args.workload == "all":
        # one process per workload, so each peak RSS is its own
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--ledger", args.ledger]
        codes = [
            subprocess.call([sys.executable, os.path.abspath(__file__), "--workload", w] + rest)
            for w in WORKLOADS
        ]
        return 1 if any(codes) else 0

    root = os.getcwd()
    src = os.path.join(root, "src")
    bench_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program at {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if not os.path.isfile(bench_path):
        print(f"perfbench: {bench_path} missing", file=sys.stderr)
        return 2
    with open(bench_path, encoding="utf-8") as handle:
        bench = json.load(handle)
    sys.path.insert(0, src)
    # temp files of the program (and of its worker processes) stay in
    # the checkout
    scratch = os.path.join(HERE, "out", "tmp")
    os.makedirs(scratch, exist_ok=True)
    os.environ["TMPDIR"] = scratch
    os.environ["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")

    # SIGTERM unwinds like an exception, so the serve workload's finally
    # blocks stop the servers it started
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    import numpy as np

    module = importlib.import_module(f"wl_{args.workload}")
    started = time.time()
    out = module.run(args.seed, args.seconds, bool(args.trace))

    if args.trace:
        wanted = [(m["name"], m["unit"]) for m in bench["per_layer"]]
        metrics = {
            name: {"value": float(out.layers.get(name, 0.0)), "unit": unit}
            for name, unit in wanted
        }
        samples = {name: 1 for name, _ in wanted}
    else:
        wanted = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
        missing = [name for name, _ in wanted if name not in out.metrics]
        if missing:
            raise RuntimeError(f"workload did not measure {missing}")
        metrics = {
            name: {"value": out.metrics[name][0], "unit": unit}
            for name, unit in wanted
        }
        samples = {name: out.metrics[name][2] for name, _ in wanted}

    failed = len(out.failures)
    attempted = max(out.attempted, 1)
    correct = failed == 0 and out.attempted > 0
    extra = {
        name: {"value": v, "unit": u, "samples": s}
        for name, (v, u, s) in out.metrics.items()
        if name not in metrics
    }
    extra["failed_frac"] = {"value": failed / attempted, "unit": "ratio", "samples": attempted}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {out.attempted}  failed {failed}")
    for name, entry in list(metrics.items()) + list(extra.items()):
        n = samples.get(name, entry.get("samples", 1))
        print(f"  {name:<32} {_fmt(entry['value']):>14} {entry['unit']:<6} n={n}")
    if args.trace:
        out.notes.append("a layer that does no work on this workload reports 0")
    for note in out.notes:
        print(f"  note: {note}")
    for reason in out.failures[:20]:
        print(f"  FAILED: {reason}")

    if out.tracer is not None:
        spans_dir = os.path.join(HERE, "out")
        os.makedirs(spans_dir, exist_ok=True)
        out.tracer.write(os.path.join(spans_dir, f"spans-{args.workload}-{args.seed}.jsonl"))

    record = {
        "time": started,
        "sha": _git_sha(root),
        "bench": _bench_hash(bench_path),
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": out.attempted,
        "failed": failed,
        "metrics": {k: v["value"] for k, v in metrics.items()},
        "extra": {k: v["value"] for k, v in extra.items()},
        "latencies": out.latencies,
    }
    if args.trace:
        record["layers"] = {k: float(v) for k, v in sorted(out.layers.items())}
    with open(args.ledger, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
