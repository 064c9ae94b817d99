"""The chaos harness, end to end against a real daemon.

One smoke run with small knobs drives a subprocess ``repro serve``
through three fault scripts (worker kill, store truncation, submit
flood) and checks the report contract the ``chaos-smoke`` CI job
relies on: every invariant held, the shutdown was graceful, no
runner worker process leaked, and the flood actually exercised
admission control (429s carried ``Retry-After``, the shed counter
moved, accepted jobs still completed).

The full five-fault script (plus SIGKILL mid-fulfill and sync
clock-skew) runs in CI via ``repro chaos``; here we keep the subset
that finishes quickly so the tier-1 suite stays fast.
"""

from __future__ import annotations

import json

import pytest

from repro.serve import DEFAULT_FAULTS, ChaosHarness


class TestChaosHarness:
    def test_rejects_unknown_fault(self, tmp_path):
        with pytest.raises(ValueError, match="unknown fault"):
            ChaosHarness(str(tmp_path / "state"), faults=("meteor",))

    def test_default_faults_cover_the_issue_scripts(self):
        assert set(DEFAULT_FAULTS) == {
            "worker_kill",
            "store_truncate",
            "flood",
            "sigkill",
            "sync_skew",
        }

    def test_smoke_run_holds_invariants(self, tmp_path):
        report_path = tmp_path / "chaos-report.json"
        harness = ChaosHarness(
            str(tmp_path / "state"),
            seed=3,
            faults=("worker_kill", "store_truncate", "flood"),
            trials=2,
            graph_n=60,
            flood_submits=8,
            max_queue_depth=2,
            max_workers=2,
            stall_seconds=2.0,
            report_path=str(report_path),
        )
        report = harness.run()
        assert report["ok"], json.dumps(report, indent=2)
        assert report["graceful_shutdown"] is True
        assert report["leaked_workers"] == []
        by_fault = {r["fault"]: r for r in report["faults"]}
        assert set(by_fault) == {"worker_kill", "store_truncate", "flood"}
        assert all(r["ok"] for r in report["faults"])
        # the flood actually tripped admission control
        assert by_fault["flood"]["rejected"] >= 1
        assert by_fault["flood"]["accepted"] >= 1
        # the corruption was detected, not silently served
        assert by_fault["store_truncate"]["recomputed"] >= 1
        # the supervisor really replaced killed workers
        assert by_fault["worker_kill"]["restarts"] >= 2
        # the report landed on disk for the CI artifact upload
        on_disk = json.loads(report_path.read_text())
        assert on_disk["ok"] is True
