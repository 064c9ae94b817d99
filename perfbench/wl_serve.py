"""``serve``: one synchronous client of ``repro serve``.

The server runs as a subprocess with default flags and a private state
directory under ``perfbench/out``; set-up is spawn until ``/healthz``
answers, done ``SETUPS`` times.  The client sends generator-form
``POST /v1/sweeps`` requests over one connection, closed loop: SMM or
SIS on ``er-sparse`` n=``N``, ``TRIALS`` trials, ``backend="auto"``.
Every fourth request repeats an earlier fresh request (a result cache
hit, i.e. store reads); the others use fresh seeds (misses: compute
through the resilient runner, then store writes).  One in four rather
than one in two puts the median request well inside the miss cluster;
with an even split it sits at the edge between the clusters and jumps
from run to run.

Every response's per-trial results must be byte-equal to
``run_trials`` on the same specs, for hits and misses alike, and pass
the SMM/SIS oracles.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np

import gen
import oracles
import stats
from common import Clock, Outcome, finish_trace, proc_peak_rss_mb, timed
from tracer import Tracer

from repro.analysis.serialize import execution_to_dict
from repro.parallel import run_trials, spec_fingerprint
from repro.serve import ResultStore, ServeApp, parse_sweep_request

N = 256
TRIALS = 10
REPEAT_EVERY = 4
SETUPS = 3
TRACED_REQUESTS = 10
HEALTHZ_DEADLINE = 60.0  # seconds
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


class Server:
    """A ``repro serve`` subprocess and one client connection to it."""

    def __init__(self, name: str) -> None:
        self.state = os.path.join(OUT, f"serve-{os.getpid()}-{name}")
        shutil.rmtree(self.state, ignore_errors=True)
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--state-dir", self.state],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = self.proc.stdout.readline()
            if "http://" not in line:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
            while True:
                try:
                    status, _ = self.request("GET", "/healthz")
                    if status == 200:
                        break
                except OSError:
                    pass
                if time.perf_counter() - start > HEALTHZ_DEADLINE:
                    raise RuntimeError("repro serve never answered /healthz")
                time.sleep(0.005)
        except BaseException:
            self.close()
            raise

    def request(self, method: str, path: str, body=None):
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.conn.request(method, path, body, headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def post(self, payload):
        body = json.dumps(payload).encode("utf-8")
        start = time.perf_counter()
        status, data = self.request("POST", "/v1/sweeps", body)
        return status, data, time.perf_counter() - start

    def cache_counts(self):
        _, text = self.request("GET", "/metrics")
        counts = {}
        for line in text.decode("utf-8").splitlines():
            for kind in ("hits", "misses"):
                if line.startswith(f"repro_result_cache_{kind}_total "):
                    counts[kind] = float(line.split()[1])
        return counts.get("hits", 0.0), counts.get("misses", 0.0)

    def close(self) -> None:
        conn = getattr(self, "conn", None)
        if conn is not None:
            conn.close()
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.state, ignore_errors=True)


def _requests(rng):
    """Endless ``(payload, is_repeat)`` plan."""
    fresh = []
    i = 0
    while True:
        if i % REPEAT_EVERY == REPEAT_EVERY - 1:
            yield fresh[int(rng.integers(len(fresh)))], True
        else:
            payload = {
                "mode": "sync",
                "sweep": {
                    "protocol": str(rng.choice(["smm", "sis"])),
                    "family": "er-sparse",
                    "n": N,
                    "trials": TRIALS,
                    "seed": int(rng.integers(2**31)),
                    "backend": "auto",
                },
            }
            fresh.append(payload)
            yield payload, False
        i += 1


class Expected:
    """Per-request reference results: ``run_trials`` on the parsed specs
    (per-trial kernels, as the server's resilient runner runs them),
    checked by the oracles once per distinct request."""

    def __init__(self) -> None:
        self._cache = {}

    def get(self, payload):
        key = json.dumps(payload, sort_keys=True)
        if key not in self._cache:
            specs = list(parse_sweep_request(payload).specs)
            results = run_trials(specs, jobs=1, batch_sweep=False)
            graph = specs[0].graph
            edges = np.array(sorted(graph.edges), dtype=np.int64).reshape(-1, 2)
            csr = gen.CSR(graph.n, edges)
            mis = oracles.greedy_mis(csr)
            reasons = [
                oracles.check_run(spec.protocol, csr, mis, res)
                for spec, res in zip(specs, results)
            ]
            blobs = [json.dumps(execution_to_dict(r), sort_keys=True) for r in results]
            self._cache[key] = (blobs, [r for r in reasons if r])
        return self._cache[key]


def _check(expected: Expected, payload, repeat: bool, status: int, body) -> list:
    if status != 200:
        return [f"HTTP {status}"]
    answer = json.loads(body) if isinstance(body, (bytes, str)) else body
    entries = answer.get("results") or []
    blobs, oracle_reasons = expected.get(payload)
    if len(entries) != len(blobs):
        return [f"{len(entries)} results for {len(blobs)} trials"]
    reasons = list(oracle_reasons)
    for entry, blob in zip(entries, blobs):
        if entry.get("status") != "ok":
            reasons.append(f"trial {entry.get('status')}: {entry.get('error')}")
        elif entry.get("cached") is not repeat:
            kind = "repeat" if repeat else "fresh"
            reasons.append(f"cached={entry.get('cached')} on a {kind} request")
        elif json.dumps(entry["result"], sort_keys=True) != blob:
            reasons.append("result differs from run_trials on the same specs")
    return reasons


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    rng = np.random.default_rng([seed, 4])
    os.makedirs(OUT, exist_ok=True)
    out = Outcome()
    expected = Expected()
    if trace:
        return _traced(out, rng, expected)
    setups, setup_refs = [], []
    server = None
    try:
        for k in range(SETUPS):
            if server is not None:
                server.close()
            server, wall, ref = timed(lambda: Server(str(k)))
            setups.append(wall)
            setup_refs.append(ref)
        plan = _requests(rng)
        sent, refs = [], []
        clock = Clock(seconds)
        while clock.more():
            payload, repeat = next(plan)
            (status, body, _), wall, ref = timed(lambda: server.post(payload))
            sent.append((payload, repeat, status, body, wall))
            refs.append(ref)
        peak = proc_peak_rss_mb(server.proc.pid)
        hits, misses = server.cache_counts()
    finally:
        if server is not None:
            server.close()
    for payload, repeat, status, body, _ in sent:
        out.op(_check(expected, payload, repeat, status, body))
    lat = [s[4] for s in sent]
    out.setup(setups, setup_refs)
    out.put("peak_rss_mb", peak, "MB", 1)
    out.ops(lat, refs, TRIALS)
    out.latency("req", lat)
    for name, is_repeat in (("hit_p50_s", True), ("miss_p50_s", False)):
        group = [s[4] for s in sent if s[1] is is_repeat]
        if group:  # a very short run may hold no repeat yet
            out.put(name, stats.median(group), "s", len(group))
    out.put("hit_ratio", hits / max(hits + misses, 1.0), "ratio", int(hits + misses))
    return out


def _traced(out: Outcome, rng, expected: Expected) -> Outcome:
    tr = Tracer()
    plain = traced_server = app = None
    untraced = traced = 0.0
    resilient_extra = 0.0
    miss_trials = 0
    response_bytes = 0
    try:
        plain = Server("plain")
        traced_server = Server("traced")
        app = ServeApp(os.path.join(OUT, f"serve-{os.getpid()}-app"))
        app.start()
        store = ResultStore(os.path.join(OUT, f"serve-{os.getpid()}-store"))
        plan = _requests(rng)
        for i in range(TRACED_REQUESTS):
            payload, repeat = next(plan)
            status, body, seconds_taken = plain.post(payload)
            untraced += seconds_taken
            out.op(_check(expected, payload, repeat, status, body))

            tr.op = f"request-{i}"
            with tr.span("bench.op") as root:
                with tr.span("serve.request") as request_span:
                    status, body, _ = traced_server.post(payload)
            traced += tr.dur(root)
            out.op(_check(expected, payload, repeat, status, body))

            start = time.perf_counter()
            response = app.handle_submit(payload)
            handler = tr.record("serve.handler", time.perf_counter() - start, parent=request_span)
            out.op(_check(expected, payload, repeat, response[0], response[2]))

            with tr.span("serve.parse", parent=handler):
                specs = list(parse_sweep_request(payload).specs)
            with tr.span("serve.fingerprint", parent=handler):
                fps = [spec_fingerprint(s) for s in specs]
            with tr.span("serve.store_get", parent=handler):
                stored = [store.get(fp) for fp in fps]
            if any(s is None for s in stored):
                with tr.span("parallel.resilient", parent=handler) as resilient:
                    results = run_trials(specs, jobs=1, retries=1)
                start = time.perf_counter()
                run_trials(specs, jobs=1)
                resilient_extra += tr.dur(resilient) - (time.perf_counter() - start)
                miss_trials += len(specs)
                with tr.span("serve.store_put", parent=handler):
                    for fp, res in zip(fps, results):
                        store.lease(fp)
                        store.fulfill(fp, execution_to_dict(res))
            with tr.span("serve.encode", parent=handler):
                response_bytes += len((json.dumps(response[2], sort_keys=True) + "\n").encode("utf-8"))
        hits, misses = traced_server.cache_counts()
    finally:
        for server in (plain, traced_server):
            if server is not None:
                server.close()
        if app is not None:
            app.stop()
        for name in ("app", "store"):
            shutil.rmtree(os.path.join(OUT, f"serve-{os.getpid()}-{name}"), ignore_errors=True)

    totals = tr.totals()
    extra = {
        "serve.http_s": totals["serve.request"] - totals["serve.handler"],
        "serve.response_bytes": response_bytes,
        "serve.hit_ratio": hits / max(hits + misses, 1.0),
        "parallel.resilient_trial_s": resilient_extra / max(miss_trials, 1),
    }
    finish_trace(out, tr, untraced, traced, extra)
    out.tracer = tr
    return out
