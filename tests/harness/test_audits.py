"""A new audit is one Guard subclass: no harness edit needed.

The guard below exists only in this file.  Registered, it runs inside
evidence worker processes through ``run_jobs``, its summaries land in
the manifest's ``audits`` blocks, and a violation it records turns the
run red — the same path the built-in cost/maintain/shard audits take.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.runmode import GUARD_TYPES, Guard, RunMode, register_guard
from repro.harness.job import Job, JobStatus
from repro.harness.manifest import (
    build_manifest,
    manifest_exit_code,
    render_manifest,
)
from repro.harness.runner import RunnerConfig, run_jobs

SAMPLES = "tests.harness.sample_jobs"


class TripwireGuard(Guard):
    """Flags every fixpoint that derives a ``T`` fact."""

    name = "tripwire"
    count = ("checks", "fixpoints")

    def on_fixpoint(self, program, instance, result, stats):
        self.checks += 1
        derived = result.size("T") - instance.size("T")
        if derived:
            self.violations.append({"pred": "T", "derived": derived})


@pytest.fixture
def tripwire():
    register_guard(TripwireGuard)
    try:
        yield TripwireGuard
    finally:
        GUARD_TYPES.pop(TripwireGuard.name, None)


def test_a_guard_defined_in_a_test_runs_through_the_harness(tripwire):
    jobs = [
        Job(name="fx", fn=f"{SAMPLES}:datalog_fixpoint_job",
            claim="derives T", expected="computed"),
        Job(name="quiet", fn=f"{SAMPLES}:ok_job",
            claim="no fixpoint", expected="fine"),
    ]
    mode = RunMode(checks=("tripwire",))
    results = run_jobs(jobs, config=RunnerConfig(workers=2, mode=mode))
    assert all(r.status is JobStatus.OK for r in results.values())
    assert results["fx"].audits["tripwire"]["checks"] >= 1
    assert results["quiet"].audits["tripwire"] == {
        "checks": 0, "violations": [],
    }

    manifest = build_manifest(
        jobs, results,
        wall_seconds=1.0, workers=2, default_timeout=30.0,
        code_fingerprint="fp", cache_used=False, mode=mode,
    )
    assert manifest["checks"] == ["tripwire"]
    assert manifest["summary"]["audits"] == {
        "tripwire": {"checked": 2, "ok": 1}
    }
    assert manifest["violations"] == [
        {"audit": "tripwire", "job": "fx", "pred": "T", "derived": 6}
    ]
    # every verdict matched, but the audit makes the run red
    assert manifest["summary"]["ok"] == manifest["summary"]["total"]
    assert manifest_exit_code(manifest) == 1
    text = render_manifest(manifest)
    assert "tripwire VIOLATED (1 fixpoints)" in text
    assert "tripwire VIOLATED: derived 6, pred T" in text
    assert "tripwire: 1/2 job(s) without violations" in text


def test_report_renders_an_unknown_audit(tmp_path, capsys):
    """A manifest from newer code, carrying an audit this version has
    never heard of, still renders — and still gates the exit code."""
    entry = {
        "name": "a", "status": "ok", "expected": "fine", "verdict": "fine",
        "matched": True, "measured": "", "duration_s": 0.5, "attempts": 1,
        "audits": {"future": {"checks": 4, "violations": [
            {"kind": "drift", "pred": "Reach"},
        ]}},
    }
    manifest = {
        "schema": 99,
        "jobs": {"a": entry},
        "violations": [
            {"audit": "future", "job": "a", "kind": "drift", "pred": "Reach"},
        ],
        "summary": {
            "total": 1, "ok": 1, "mismatch": 0, "failed": 0,
            "timeout": 0, "skipped": 0, "cached": 0, "wall_seconds": 0.5,
            "audits": {"future": {"checked": 1, "ok": 0}},
        },
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert main(["evidence", "report", str(path)]) == 1
    out = capsys.readouterr().out
    assert "future VIOLATED (4 checks)" in out
    assert "future VIOLATED: kind drift, pred Reach" in out
    assert "future: 0/1 job(s) without violations" in out
