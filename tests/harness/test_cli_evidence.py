"""``python -m repro evidence {list,run,report}`` end to end.

The ``run`` tests execute one real (fast) evidence job through the
whole stack — registry → worker process → cache → manifest — twice, so
the cached path is covered at the CLI level too.
"""

from __future__ import annotations

import json

from repro.cli import main


def test_evidence_list_text(capsys):
    code = main(["evidence", "list"])
    out = capsys.readouterr().out
    assert code == 0
    assert "t1-cq-rewriting" in out
    assert "t2-undecidable-reduction" in out
    assert "fig5-lemma3-treewidth" in out
    assert "job(s)" in out


def test_evidence_list_json_filtered(capsys):
    code = main(["evidence", "list", "--filter", "fig4", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    names = {job["name"] for job in payload["jobs"]}
    # fig4 plus its dependency, pulled in for DAG consistency
    assert names == {"fig4-long-row", "fig3-unravelled-counterexample"}
    by_name = {job["name"]: job for job in payload["jobs"]}
    assert by_name["fig4-long-row"]["expected"] == "no-embedding"


def test_evidence_run_and_report_round_trip(tmp_path, capsys):
    out_dir = tmp_path / "out"
    cache_dir = tmp_path / "cache"
    args = [
        "evidence", "run",
        "--filter", "t1-cq-rewriting",
        "--jobs", "1",
        "--timeout", "120",
        "--cache-dir", str(cache_dir),
        "--out-dir", str(out_dir),
    ]
    code = main(args)
    out = capsys.readouterr().out
    assert code == 0
    assert "OK" in out and "t1-cq-rewriting" in out

    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["summary"]["ok"] == manifest["summary"]["total"] == 1
    assert manifest["jobs"]["t1-cq-rewriting"]["verdict"] == "cq-rewriting"
    assert manifest["jobs"]["t1-cq-rewriting"]["matched"] is True
    assert manifest["mismatches"] == []
    assert (out_dir / "events.jsonl").exists()

    # second run: the cache answers, nothing re-executes
    code = main(args)
    out = capsys.readouterr().out
    assert code == 0
    assert "cached" in out
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["summary"]["cached"] == 1

    # report re-renders and re-gates the stored manifest
    code = main(["evidence", "report", str(out_dir)])
    out = capsys.readouterr().out
    assert code == 0
    assert "t1-cq-rewriting" in out and "summary:" in out


def test_evidence_run_json_format(tmp_path, capsys):
    code = main([
        "evidence", "run",
        "--filter", "fig3-chain-and-image",
        "--jobs", "2",
        "--no-cache",
        "--out-dir", str(tmp_path / "out"),
        "--format", "json",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["jobs"]["fig3-chain-and-image"]["status"] == "ok"
    assert payload["cache_used"] is False


def test_evidence_run_unknown_filter_is_usage_error(tmp_path, capsys):
    code = main([
        "evidence", "run",
        "--filter", "no-such-job",
        "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 2
    assert "no jobs match" in capsys.readouterr().err


def test_evidence_report_missing_manifest(tmp_path, capsys):
    code = main(["evidence", "report", str(tmp_path / "nowhere")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


#: the engine counter the removed ambient optimizer kept
_FALLBACKS = "_".join(("optimize", "fallbacks"))


def _manifest_recorded_with_optimize() -> dict:
    """A schema-9 manifest as ``evidence run --optimize`` wrote it
    before the optimizer left the run mode: ``optimize: true`` at the
    top level and the optimizer's fallback counter in the engine
    totals and in every job's engine block."""
    engine = {
        "hom_calls": 40, "search_steps": 90, "rows_scanned": 300,
        "fixpoint_rounds": 12, "facts_derived": 50,
        _FALLBACKS: 1, "phase_seconds": {},
    }
    return {
        "schema": 9, "created": "2026-01-01T00:00:00+00:00",
        "code_fingerprint": "old", "workers": 1, "default_timeout_s": 120.0,
        "cache_used": False, "optimize": True, "backend": "interpreted",
        "shards": 0, "checks": [],
        "jobs": {
            "t1-cq-rewriting": {
                "name": "t1-cq-rewriting", "status": "ok",
                "expected": "rewritable", "verdict": "rewritable",
                "duration_s": 0.1, "attempts": 1, "cached": False,
                "engine": dict(engine), "audits": {},
                "claim": "", "tags": ["table1"], "deps": [],
            },
        },
        "mismatches": [], "violations": [], "engine_totals": engine,
        "summary": {
            "total": 1, "ok": 1, "mismatch": 0, "failed": 0,
            "timeout": 0, "skipped": 0, "cached": 0, "wall_seconds": 0.1,
            "audits": {},
        },
    }


def test_evidence_run_optimize_with_baseline(tmp_path, capsys):
    """A manifest recorded with the removed ``--optimize`` flag still
    renders, gates 0 and serves as the baseline of a new run."""
    base_dir = tmp_path / "base"
    base_dir.mkdir()
    (base_dir / "manifest.json").write_text(
        json.dumps(_manifest_recorded_with_optimize())
    )
    assert main(["evidence", "report", str(base_dir)]) == 0
    assert "engine: 40 hom calls" in capsys.readouterr().out
    out_dir = tmp_path / "out"
    code = main([
        "evidence", "run",
        "--filter", "t1-cq-rewriting",
        "--jobs", "1",
        "--timeout", "120",
        "--no-cache",
        "--baseline", str(base_dir),
        "--out-dir", str(out_dir),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "vs baseline" in out
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert "optimize" not in manifest
    assert _FALLBACKS not in manifest["engine_totals"]
    baseline = manifest["baseline"]
    assert "optimize" not in baseline
    assert baseline["code_fingerprint"] == "old"
    assert set(baseline["engine_delta"]) == {
        "hom_calls", "search_steps", "rows_scanned",
        "fixpoint_rounds", "facts_derived",
        "join_build_rows", "join_probe_rows", "join_output_rows",
        "cost_bounds_checked", "cost_violations",
        "ivm_rounds", "ivm_inserted", "ivm_deleted", "ivm_rederived",
        "maintain_counting_strata", "maintain_dred_strata",
        "maintain_skipped_rederive",
        "shard_workers", "shard_exchanged_rows", "shard_local_rounds",
    }
    assert baseline["backend"] == manifest["backend"] == "interpreted"


def test_evidence_run_backend_keys_the_cache(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    common = [
        "evidence", "run",
        "--filter", "t1-cq-rewriting",
        "--jobs", "1",
        "--timeout", "120",
        "--cache-dir", str(cache_dir),
    ]
    assert main(common + ["--out-dir", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    # a columnar run must not reuse the interpreted run's entries
    assert main(common + [
        "--out-dir", str(tmp_path / "b"), "--backend", "columnar",
    ]) == 0
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest["summary"]["cached"] == 0
    assert manifest["backend"] == "columnar"
    capsys.readouterr()
    # but a second columnar run hits the columnar-mode entries
    assert main(common + [
        "--out-dir", str(tmp_path / "c"), "--backend", "columnar",
    ]) == 0
    manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
    assert manifest["summary"]["cached"] == 1
    capsys.readouterr()
    # and the interpreted entries are still intact, not clobbered
    assert main(common + ["--out-dir", str(tmp_path / "d")]) == 0
    manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
    assert manifest["summary"]["cached"] == 1
    assert manifest["backend"] == "interpreted"


def test_evidence_run_columnar_with_certificates(tmp_path, capsys):
    """The columnar backend's verdicts survive the independent checker,
    and its join counters reach the manifest's engine totals."""
    code = main([
        "evidence", "run",
        "--filter", "t1-cq-rewriting",
        "--jobs", "1",
        "--timeout", "120",
        "--no-cache",
        "--out-dir", str(tmp_path / "out"),
        "--backend", "columnar",
        "--check-certificates",
    ])
    assert code == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["backend"] == "columnar"
    assert manifest["summary"]["certified"] == manifest["summary"]["total"]


def test_evidence_run_unreadable_baseline_is_usage_error(tmp_path, capsys):
    code = main([
        "evidence", "run",
        "--filter", "t1-cq-rewriting",
        "--out-dir", str(tmp_path / "out"),
        "--baseline", str(tmp_path / "nowhere"),
    ])
    assert code == 2
    assert "baseline" in capsys.readouterr().err


def test_evidence_run_check_cost_end_to_end(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main([
        "evidence", "run",
        "--filter", "t1-cq-rewriting",
        "--jobs", "1",
        "--timeout", "120",
        "--no-cache",
        "--check-cost",
        "--out-dir", str(out_dir),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "cost bounds:" in out
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["checks"] == ["cost"]
    tally = manifest["summary"]["audits"]["cost"]
    assert tally["checked"] == tally["ok"] > 0
    assert manifest["violations"] == []
    for job in manifest["jobs"].values():
        if job["status"] == "ok":
            assert job["audits"]["cost"]["violations"] == []


def test_evidence_run_check_cost_keys_the_cache(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    common = [
        "evidence", "run",
        "--filter", "t1-cq-rewriting",
        "--jobs", "1",
        "--timeout", "120",
        "--cache-dir", str(cache_dir),
    ]
    assert main(common + ["--out-dir", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    # a cost-audited run must re-execute (cached results carry no audit)
    assert main(common + [
        "--out-dir", str(tmp_path / "b"), "--check-cost",
    ]) == 0
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest["summary"]["cached"] == 0
    assert manifest["summary"]["audits"]["cost"]["checked"] > 0


def test_evidence_run_verbose_prints_the_schedule(tmp_path, capsys):
    code = main([
        "evidence", "run",
        "--filter", "t1-cq-rewriting",
        "--jobs", "1",
        "--timeout", "120",
        "--no-cache",
        "--verbose",
        "--out-dir", str(tmp_path / "out"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "cost <=" in out


def test_evidence_run_no_schedule_keeps_registration_order(tmp_path, capsys):
    code = main([
        "evidence", "run",
        "--filter", "t1-cq-rewriting",
        "--jobs", "1",
        "--timeout", "120",
        "--no-cache",
        "--no-schedule",
        "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 0
    assert "OK" in capsys.readouterr().out


#: prefix of the two engine counters the removed ``auto`` backend kept
_AUTO_PICKS = "auto_backend"


def _manifest_recorded_with_backend_auto() -> dict:
    """A schema-9 manifest as ``evidence run --backend auto`` wrote it
    before that backend was removed: two ``auto`` pick counters in the
    engine totals and a ``backend`` audit carrying the per-fixpoint
    resolutions."""
    audit = {
        "checks": 2,
        "resolutions": [
            {"backend": "interpreted", "threshold": 4096, "volume": 96},
            {"backend": "columnar", "threshold": 4096, "volume": 15000},
        ],
        "violations": [],
    }
    engine = {
        "hom_calls": 40, "search_steps": 90, "rows_scanned": 300,
        "fixpoint_rounds": 12, "facts_derived": 50,
        "join_probe_rows": 20, f"{_AUTO_PICKS}_interpreted": 1,
        f"{_AUTO_PICKS}_columnar": 1, "phase_seconds": {},
    }
    return {
        "schema": 9, "created": "2026-01-01T00:00:00+00:00",
        "code_fingerprint": "old", "workers": 1, "default_timeout_s": 120.0,
        "cache_used": False, "optimize": False, "backend": "auto",
        "shards": 0, "checks": [],
        "jobs": {
            "t1-cq-rewriting": {
                "name": "t1-cq-rewriting", "status": "ok",
                "expected": "rewritable", "verdict": "rewritable",
                "duration_s": 0.1, "attempts": 1, "cached": False,
                "engine": engine, "audits": {"backend": audit},
                "claim": "", "tags": ["table1"], "deps": [],
            },
        },
        "mismatches": [], "violations": [], "engine_totals": engine,
        "summary": {
            "total": 1, "ok": 1, "mismatch": 0, "failed": 0,
            "timeout": 0, "skipped": 0, "cached": 0, "wall_seconds": 0.1,
            "audits": {"backend": {"checked": 1, "ok": 1}},
        },
    }


def test_evidence_baseline_recorded_with_backend_auto_still_loads(
    tmp_path, capsys
):
    base_dir = tmp_path / "base"
    base_dir.mkdir()
    (base_dir / "manifest.json").write_text(
        json.dumps(_manifest_recorded_with_backend_auto())
    )
    # the old manifest still renders and gates ...
    assert main(["evidence", "report", str(base_dir)]) == 0
    report = capsys.readouterr().out
    assert "backend ok (2 checks)" in report
    assert "backend: 1/1 job(s)" in report
    assert "engine (auto):" in report
    # ... and still serves as the baseline of a new run
    out_dir = tmp_path / "out"
    code = main([
        "evidence", "run",
        "--filter", "t1-cq-rewriting",
        "--jobs", "1",
        "--no-cache",
        "--baseline", str(base_dir),
        "--out-dir", str(out_dir),
    ])
    assert code == 0
    assert "vs baseline" in capsys.readouterr().out
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["backend"] == "interpreted"
    assert manifest["baseline"]["backend"] == "auto"
    assert manifest["baseline"]["code_fingerprint"] == "old"
    assert not any(
        name.startswith(_AUTO_PICKS) for name in manifest["engine_totals"]
    )
