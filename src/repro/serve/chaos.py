"""Chaos harness: seeded fault scripts against a live serve daemon.

The paper's protocols are *self-stabilizing* — any transient fault is
followed by convergence back to a legitimate state.  This module holds
the serving layer to the same standard by inducing the faults instead
of waiting for them: :class:`ChaosHarness` boots a real ``repro
serve`` subprocess (with ``--enable-chaos`` so the ``/v1/chaos``
injection endpoint exists), drives it through scripted fault
scenarios, and asserts the re-stabilization invariants after each:

* no accepted job is lost or duplicated — every 202 eventually reaches
  a terminal state, and a repeat-POST answers entirely from the result
  store (``computed == 0``);
* every byte served is identical to computing the same specs directly
  with :func:`repro.parallel.run_trials` in this process;
* the worker pool returns to its target size (crashed workers are
  restarted, scale-ups retired) and the queue drains to zero;
* overload is shed visibly: floods past ``--max-queue-depth`` answer
  429 with a ``Retry-After`` header and count
  ``repro_serve_shed_total``, while every accepted job still
  completes;
* the daemon still shuts down gracefully afterwards and leaves no
  runner worker process behind.

Fault scripts (``DEFAULT_FAULTS`` runs all of them, in order)::

    worker_kill     crash worker threads; supervisor must restart them
    store_truncate  tear stored result files; store must quarantine
                    (*.corrupt) and recompute, bytes unchanged
    flood           stall the pool, submit past the queue bound; 429s
                    with Retry-After, accepted jobs all finish
    sigkill         SIGKILL the daemon mid-sweep, tear its journal,
                    restart on the same state dir; the job completes
                    with no trial recomputed twice
    sync_skew       a sync request slower than the server's patience
                    degrades to 202 (never hangs, never 500s)

Everything is seeded (``seed`` drives truncation offsets, sweep seeds)
so a failing run reproduces.  ``repro chaos`` is the CLI wrapper; the
CI ``chaos-smoke`` job runs it against every push.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["ChaosError", "ChaosHarness", "DEFAULT_FAULTS"]

DEFAULT_FAULTS: Tuple[str, ...] = (
    "worker_kill",
    "store_truncate",
    "flood",
    "sigkill",
    "sync_skew",
)


class ChaosError(AssertionError):
    """A re-stabilization invariant did not hold."""


class ChaosHarness:
    """Boot a serve daemon, script faults at it, assert it heals.

    The knobs exist so tests can shrink the scenario (small graphs,
    short stalls) while the CI job runs the defaults.  ``run()``
    returns the report dict (also written to ``report_path`` when
    given); ``report["ok"]`` is the overall verdict.
    """

    def __init__(
        self,
        state_dir: str,
        *,
        seed: int = 0,
        faults: Sequence[str] = DEFAULT_FAULTS,
        trials: int = 4,
        graph_n: int = 120,
        big_graph_n: int = 400,
        big_trials: int = 6,
        flood_submits: int = 10,
        max_queue_depth: int = 3,
        max_workers: int = 3,
        stall_seconds: float = 3.0,
        sync_timeout: float = 0.25,
        report_path: Optional[str] = None,
        log=None,
    ) -> None:
        unknown = [f for f in faults if f not in DEFAULT_FAULTS]
        if unknown:
            raise ValueError(
                f"unknown fault scripts {unknown}; known: {DEFAULT_FAULTS}"
            )
        self.state_dir = os.path.abspath(state_dir)
        self.seed = int(seed)
        self.rng = random.Random(self.seed)
        self.faults = tuple(faults)
        self.trials = trials
        self.graph_n = graph_n
        self.big_graph_n = big_graph_n
        self.big_trials = big_trials
        self.flood_submits = flood_submits
        self.max_queue_depth = max_queue_depth
        self.max_workers = max_workers
        self.stall_seconds = stall_seconds
        self.sync_timeout = sync_timeout
        self.report_path = report_path
        self._log = log if log is not None else (lambda line: None)
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self._server_log: List[str] = []

    # ------------------------------------------------------------------
    # server lifecycle
    # ------------------------------------------------------------------
    def _server_args(self) -> List[str]:
        return [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--state-dir",
            self.state_dir,
            "--workers",
            "1",
            "--min-workers",
            "1",
            "--max-workers",
            str(self.max_workers),
            "--max-queue-depth",
            str(self.max_queue_depth),
            "--sync-timeout",
            str(self.sync_timeout),
            "--scale-up-after",
            "0.5",
            "--scale-down-idle",
            "2.0",
            "--enable-chaos",
        ]

    def _start_server(self) -> None:
        self._server_log = []
        self.proc = subprocess.Popen(
            self._server_args(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
        if not match:
            rest = self.proc.stdout.read() or ""
            raise ChaosError(
                f"serve daemon printed no listen line: {line!r}\n{rest}"
            )
        self.port = int(match.group(1))
        self._server_log.append(line)

        def drain(stream, sink):
            for entry in stream:
                sink.append(entry)

        threading.Thread(
            target=drain,
            args=(self.proc.stdout, self._server_log),
            daemon=True,
        ).start()
        self._wait_healthy()

    def _stop_server(self, *, graceful: bool = True) -> bool:
        """Stop the daemon; with ``graceful`` require the clean
        'shutdown complete' line.  Returns graceful-exit success."""
        proc = self.proc
        if proc is None:
            return True
        self.proc = None
        if proc.poll() is not None:
            return not graceful  # already dead: only fine if expected
        if not graceful:
            proc.kill()
            proc.wait(timeout=30)
            return True
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
            return False
        time.sleep(0.1)  # let the drain thread catch the last lines
        return any("shutdown complete" in line for line in self._server_log)

    # ------------------------------------------------------------------
    # HTTP + metric helpers
    # ------------------------------------------------------------------
    def _http(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        timeout: float = 120.0,
    ) -> Tuple[int, Any, Dict[str, str]]:
        data = None if payload is None else json.dumps(payload).encode()
        request = urllib.request.Request(
            f"http://127.0.0.1:{self.port}{path}",
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                raw = response.read()
                status, headers = response.status, dict(response.headers)
        except urllib.error.HTTPError as error:
            raw = error.read()
            status, headers = error.code, dict(error.headers)
        content_type = headers.get("Content-Type", "")
        if content_type.startswith("application/json"):
            return status, json.loads(raw), headers
        return status, raw.decode("utf-8", "replace"), headers

    def _wait_healthy(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                status, payload, _ = self._http("GET", "/healthz", timeout=5)
                if status == 200:
                    return
            except (urllib.error.URLError, ConnectionError, OSError):
                pass
            time.sleep(0.1)
        raise ChaosError("daemon never became healthy")

    def _scrape(self) -> Dict[str, float]:
        status, text, _ = self._http("GET", "/metrics")
        self._require(status == 200, f"/metrics answered {status}")
        samples: Dict[str, float] = {}
        for line in str(text).splitlines():
            if not line or line.startswith("#"):
                continue
            key, value = line.rsplit(" ", 1)
            samples[key] = float(value)
        return samples

    def _metric_sum(self, prefix: str) -> float:
        return sum(
            value
            for key, value in self._scrape().items()
            if key == prefix or key.startswith(prefix + "{")
        )

    def _wait_metric(
        self, prefix: str, minimum: float, timeout: float = 30.0
    ) -> float:
        deadline = time.monotonic() + timeout
        value = self._metric_sum(prefix)
        while value < minimum and time.monotonic() < deadline:
            time.sleep(0.1)
            value = self._metric_sum(prefix)
        self._require(
            value >= minimum,
            f"{prefix} never reached {minimum} (got {value})",
        )
        return value

    def _require(self, condition: bool, message: str) -> None:
        if not condition:
            raise ChaosError(message)

    # ------------------------------------------------------------------
    # job helpers
    # ------------------------------------------------------------------
    def _body(
        self,
        tag: str,
        *,
        mode: str = "async",
        n: Optional[int] = None,
        trials: Optional[int] = None,
        seed_offset: int = 0,
        family: str = "er-sparse",
    ) -> Dict[str, Any]:
        return {
            "mode": mode,
            "label": f"chaos-{tag}",
            "sweep": {
                "protocol": "smm",
                "family": family,
                "n": self.graph_n if n is None else n,
                "trials": self.trials if trials is None else trials,
                "seed": 1000 + self.seed * 101 + seed_offset,
                "backend": "reference",
            },
        }

    def _submit(self, body: Dict[str, Any]) -> str:
        status, payload, _ = self._http("POST", "/v1/sweeps", body)
        self._require(
            status == 202, f"submit answered {status}, not 202: {payload}"
        )
        return payload["job"]["id"]

    def _job(self, job_id: str) -> Dict[str, Any]:
        status, payload, _ = self._http("GET", f"/v1/jobs/{job_id}")
        self._require(status == 200, f"job {job_id} lookup answered {status}")
        return payload["job"]

    def _poll_job(self, job_id: str, timeout: float = 180.0) -> Dict[str, Any]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            job = self._job(job_id)
            if job["state"] in ("done", "failed", "cancelled"):
                return job
            time.sleep(0.1)
        raise ChaosError(f"job {job_id} never reached a terminal state")

    def _results(self, job_id: str) -> List[Dict[str, Any]]:
        status, payload, _ = self._http("GET", f"/v1/jobs/{job_id}/result")
        self._require(
            status == 200, f"result fetch for {job_id} answered {status}"
        )
        return payload["results"]

    def _direct_results(self, body: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Compute the same sweep in this process: the ground truth the
        daemon's bytes must match."""
        from repro.analysis.serialize import execution_to_dict
        from repro.parallel import run_trials
        from repro.serve.schema import parse_sweep_request

        specs = parse_sweep_request(body).specs
        return [execution_to_dict(r) for r in run_trials(specs)]

    def _assert_served_bytes(self, body: Dict[str, Any], job_id: str) -> None:
        entries = self._results(job_id)
        self._require(
            all(e["status"] == "ok" for e in entries),
            f"job {job_id} has non-ok entries",
        )
        served = [e["result"] for e in entries]
        self._require(
            served == self._direct_results(body),
            f"served results for {job_id} differ from direct run_trials",
        )

    def _wait_stable(self, timeout: float = 60.0) -> Dict[str, Any]:
        """Healthz until the pool is back at target size and the queue
        is drained — the 'legitimate state' of the control plane."""
        deadline = time.monotonic() + timeout
        last: Dict[str, Any] = {}
        while time.monotonic() < deadline:
            status, payload, _ = self._http("GET", "/healthz", timeout=10)
            if status == 200:
                last = payload
                pool = payload["pool"]
                if (
                    pool["alive"] == pool["target"]
                    and payload["queued"] == 0
                    and payload["running"] == 0
                ):
                    return payload
            time.sleep(0.1)
        raise ChaosError(f"pool never re-stabilized; last healthz: {last}")

    def _fingerprints(self, body: Dict[str, Any]) -> List[str]:
        from repro.parallel import spec_fingerprint
        from repro.serve.schema import parse_sweep_request

        return [spec_fingerprint(s) for s in parse_sweep_request(body).specs]

    def _truncate(self, path: str) -> int:
        """Seeded torn write: keep a random strict prefix of ``path``."""
        with open(path, "rb") as handle:
            data = handle.read()
        offset = self.rng.randrange(0, max(1, len(data)))
        with open(path, "wb") as handle:
            handle.write(data[:offset])
        return offset

    # ------------------------------------------------------------------
    # fault scripts
    # ------------------------------------------------------------------
    def _fault_worker_kill(self) -> Dict[str, Any]:
        before = self._metric_sum("repro_serve_worker_restarts_total")
        body = self._body("worker-kill")
        job_id = self._submit(body)
        kills = 2
        for _ in range(kills):
            status, _, _ = self._http(
                "POST", "/v1/chaos", {"fault": "kill_worker"}
            )
            self._require(status == 202, f"chaos kill answered {status}")
        job = self._poll_job(job_id)
        self._require(
            job["state"] == "done", f"job died with the workers: {job}"
        )
        restarts = (
            self._wait_metric(
                "repro_serve_worker_restarts_total", before + kills
            )
            - before
        )
        stable = self._wait_stable()
        self._assert_served_bytes(body, job_id)
        return {
            "kills": kills,
            "restarts": int(restarts),
            "pool": stable["pool"],
        }

    def _fault_store_truncate(self) -> Dict[str, Any]:
        body = self._body("store", seed_offset=10)
        job_id = self._submit(body)
        job = self._poll_job(job_id)
        self._require(job["state"] == "done", f"seed job failed: {job}")
        # compare result payloads, not whole entries: `cached`/`attempts`
        # bookkeeping legitimately differs between a computed run and a
        # cache-served one
        first = [e["result"] for e in self._results(job_id)]

        store_dir = os.path.join(self.state_dir, "results")
        fingerprints = self._fingerprints(body)
        victims = self.rng.sample(fingerprints, min(2, len(fingerprints)))
        for fp in victims:
            self._truncate(os.path.join(store_dir, f"{fp}.json"))

        corrupt_before = self._metric_sum("repro_store_corrupt_total")
        second_id = self._submit(body)
        second_job = self._poll_job(second_id)
        self._require(
            second_job["state"] == "done",
            f"recompute after truncation failed: {second_job}",
        )
        self._require(
            second_job["progress"]["computed"] >= len(victims),
            f"torn entries were not recomputed: {second_job['progress']}",
        )
        corrupt = self._metric_sum("repro_store_corrupt_total")
        self._require(
            corrupt >= corrupt_before + len(victims),
            f"repro_store_corrupt_total {corrupt} did not count "
            f"{len(victims)} quarantines",
        )
        quarantined = [
            fp
            for fp in victims
            if os.path.exists(os.path.join(store_dir, f"{fp}.json.corrupt"))
        ]
        self._require(
            len(quarantined) == len(victims),
            f"missing *.corrupt quarantine files ({quarantined} of {victims})",
        )
        second = [e["result"] for e in self._results(second_id)]
        self._require(
            second == first,
            "recomputed results differ from the pre-corruption bytes",
        )
        self._assert_served_bytes(body, second_id)
        self._wait_stable()
        return {
            "truncated": len(victims),
            "recomputed": second_job["progress"]["computed"],
            "corrupt_total": corrupt,
        }

    def _fault_flood(self) -> Dict[str, Any]:
        _, health, _ = self._http("GET", "/healthz")
        alive = health["pool"]["alive"]
        for _ in range(alive):
            status, _, _ = self._http(
                "POST",
                "/v1/chaos",
                {"fault": "stall_worker", "seconds": self.stall_seconds},
            )
            self._require(status == 202, f"chaos stall answered {status}")
        time.sleep(0.5)  # let every worker pick up its stall token

        shed_before = self._metric_sum("repro_serve_shed_total")
        accepted: List[str] = []
        rejected = 0
        retry_after_ok = 0
        for i in range(self.flood_submits):
            status, payload, headers = self._http(
                "POST",
                "/v1/sweeps",
                self._body(f"flood-{i}", n=16, trials=2, seed_offset=100 + i),
            )
            if status == 202:
                accepted.append(payload["job"]["id"])
            elif status == 429:
                rejected += 1
                if headers.get("Retry-After", "").isdigit():
                    retry_after_ok += 1
            else:
                raise ChaosError(
                    f"flood submit {i} answered {status}: {payload}"
                )
        self._require(rejected > 0, "flood past the bound produced no 429s")
        self._require(
            retry_after_ok == rejected,
            f"{rejected - retry_after_ok} 429s lacked a Retry-After header",
        )
        self._require(accepted, "flood had no accepted jobs at all")
        shed = self._metric_sum("repro_serve_shed_total")
        self._require(
            shed >= shed_before + rejected,
            f"repro_serve_shed_total {shed} did not count {rejected} sheds",
        )
        for job_id in accepted:
            job = self._poll_job(job_id)
            self._require(
                job["state"] == "done",
                f"accepted flood job was lost: {job}",
            )
        stable = self._wait_stable()
        return {
            "submitted": self.flood_submits,
            "accepted": len(accepted),
            "rejected": rejected,
            "shed": shed - shed_before,
            "pool": stable["pool"],
        }

    def _fault_sigkill(self) -> Dict[str, Any]:
        body = self._body(
            "sigkill", n=self.big_graph_n, trials=self.big_trials,
            seed_offset=20,
        )
        job_id = self._submit(body)
        deadline = time.monotonic() + 120
        underway = False
        while time.monotonic() < deadline:
            job = self._job(job_id)
            if job["state"] == "done":
                break  # too fast to catch mid-run; kill anyway
            if (
                job["state"] == "running"
                and job["progress"]["completed"] >= 1
            ):
                underway = True
                break
            time.sleep(0.05)

        proc = self.proc
        self._require(proc is not None, "no live daemon to SIGKILL")
        self._stop_server(graceful=False)

        # tear the journal the way a crash mid-write would
        status_path = os.path.join(
            self.state_dir, "jobs", job_id, "status.json"
        )
        torn = self._truncate(status_path) if os.path.exists(status_path) else None

        self._start_server()
        job = self._poll_job(job_id, timeout=300)
        self._require(
            job["state"] == "done",
            f"job did not recover after SIGKILL: {job}",
        )
        self._require(
            job["progress"]["completed"] == job["trials"],
            f"recovered job lost trials: {job['progress']}",
        )
        # no duplicate execution: a repeat-POST is answered entirely
        # from the store
        repeat_id = self._submit(body)
        repeat = self._poll_job(repeat_id)
        self._require(
            repeat["progress"]["cached"] == repeat["trials"]
            and repeat["progress"]["computed"] == 0,
            f"repeat-POST recomputed trials: {repeat['progress']}",
        )
        self._assert_served_bytes(body, repeat_id)
        self._wait_stable()
        return {
            "killed_mid_run": underway,
            "journal_torn_at": torn,
            "recovered_progress": job["progress"],
        }

    def _fault_sync_skew(self) -> Dict[str, Any]:
        # a sweep slower than the server's sync patience must degrade
        # to the async contract (202 + job record), never hang or 500.
        # Stall every worker past the sync timeout first — "slow" must
        # not depend on how fast this box runs the sweep itself.
        _, health, _ = self._http("GET", "/healthz")
        for _ in range(health["pool"]["alive"]):
            status, _, _ = self._http(
                "POST",
                "/v1/chaos",
                {"fault": "stall_worker", "seconds": self.stall_seconds},
            )
            self._require(
                status == 202, f"stall_worker injection answered {status}"
            )
        time.sleep(0.2)  # let the stall tokens get picked up
        slow = self._body(
            "sync-skew", mode="sync", n=self.big_graph_n, trials=2,
            seed_offset=30,
        )
        started = time.monotonic()
        status, payload, _ = self._http("POST", "/v1/sweeps", slow)
        elapsed = time.monotonic() - started
        self._require(
            status == 202,
            f"slow sync submit answered {status} (expected 202 degrade)",
        )
        job = self._poll_job(payload["job"]["id"])
        self._require(job["state"] == "done", f"degraded job lost: {job}")
        self._assert_served_bytes(slow, payload["job"]["id"])

        # a fast sync still gets its inline answer (or completes right
        # after degrading on a loaded box)
        fast = self._body(
            "sync-fast", mode="sync", n=12, trials=1, seed_offset=31,
            family="cycle",
        )
        status, payload, _ = self._http("POST", "/v1/sweeps", fast)
        self._require(
            status in (200, 202),
            f"fast sync submit answered {status}",
        )
        if status == 200:
            self._require(
                "results" in payload, "200 sync answer without results"
            )
        else:
            self._poll_job(payload["job"]["id"])
        self._wait_stable()
        return {
            "degraded_after_s": round(elapsed, 3),
            "fast_sync_status": status,
        }

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        os.makedirs(self.state_dir, exist_ok=True)
        records: List[Dict[str, Any]] = []
        ok = True
        graceful = False
        self._start_server()
        try:
            for fault in self.faults:
                self._log(f"chaos: injecting {fault} ...")
                started = time.monotonic()
                try:
                    details = getattr(self, f"_fault_{fault}")()
                    records.append(
                        {
                            "fault": fault,
                            "ok": True,
                            "elapsed_s": round(
                                time.monotonic() - started, 3
                            ),
                            **details,
                        }
                    )
                    self._log(f"chaos: {fault} re-stabilized OK")
                except Exception as exc:
                    ok = False
                    records.append(
                        {
                            "fault": fault,
                            "ok": False,
                            "elapsed_s": round(
                                time.monotonic() - started, 3
                            ),
                            "error": f"{type(exc).__name__}: {exc}",
                        }
                    )
                    self._log(f"chaos: {fault} FAILED: {exc}")
        finally:
            graceful = self._stop_server()
        leaked = self._leaked_workers()
        report = {
            "seed": self.seed,
            "state_dir": self.state_dir,
            "faults": records,
            "graceful_shutdown": graceful,
            "leaked_workers": leaked,
            "ok": ok and graceful and not leaked,
        }
        if self.report_path:
            with open(self.report_path, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
                handle.write("\n")
        return report

    @staticmethod
    def _leaked_workers(timeout: float = 5.0) -> List[int]:
        """Pids of runner workers still alive, allowing the orphans of
        a SIGKILLed daemon a moment to notice and exit."""
        from repro.parallel import live_workers

        deadline = time.monotonic() + timeout
        leaked = live_workers()
        while leaked and time.monotonic() < deadline:
            time.sleep(0.25)
            leaked = live_workers()
        return leaked
