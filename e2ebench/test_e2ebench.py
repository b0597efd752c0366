"""Self-tests of the benchmark's own logic.

Run from the repository root: ``python3 -m pytest e2ebench -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
from common import Tally, percentile  # noqa: E402


def _stream(seed: int) -> list[gen.Op]:
    return gen.session_inputs(seed, 0, 0, components=10, ops=300).ops


def test_generator_is_deterministic_per_seed() -> None:
    assert _stream(7) == _stream(7)
    assert _stream(7) != _stream(8)
    one = gen.session_inputs(7, 0, 0, components=10, ops=300)
    assert one.base_edges == gen.session_inputs(7, 0, 0, components=10,
                                                ops=300).base_edges
    assert one.ops != gen.session_inputs(7, 0, 1, components=10, ops=300).ops
    # seeds relabel nodes: the op pattern (and so the work) is the same
    assert [op.kind for op in _stream(7)] == [op.kind for op in _stream(8)]


def test_generator_never_emits_a_refusable_update() -> None:
    inputs = gen.session_inputs(3, 1, 0, components=2, ops=500)
    edges = set(inputs.base_edges)
    assert len(edges) == 2 * gen.COMPONENT_EDGES
    for op in inputs.ops:
        if op.kind == "insert":
            assert op.edge not in edges
            assert op.edge[0] // 100 == op.edge[1] // 100  # one component
            edges.add(op.edge)
        elif op.kind == "retract":
            assert op.edge in edges
            edges.remove(op.edge)
    assert edges == inputs.final_edges
    kinds = [op.kind for op in inputs.ops]
    assert 0.3 < kinds.count("insert") / len(kinds) < 0.5


def test_generator_survives_a_one_component_base() -> None:
    for seed in range(40):
        inputs = gen.session_inputs(seed, 0, 0, components=1, ops=400)
        assert all(op.edge is not None for op in inputs.ops
                   if op.kind != "query")


def test_percentile_refuses_p90_on_fewer_than_100_samples() -> None:
    with pytest.raises(ValueError, match="p90 needs at least 100"):
        percentile(list(range(99)), 90)
    assert percentile(list(range(1, 101)), 90) == 90
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)
    assert percentile([3.0] * 20, 50) == 3.0


def test_row_checker_flags_a_planted_wrong_answer() -> None:
    tally = Tally()
    expected = {(1, 2), (2, 3)}
    checks.check_rows("Reach", [[1, 2], [2, 3]], expected, tally)
    assert tally.failed == 0
    checks.check_rows("Reach", [[1, 2], [2, 4]], expected, tally)
    assert tally.failed == 1
    assert "1 wrong and 1 missing" in tally.reasons[0]


def _manifest(status: str = "ok", backend: str = "interpreted",
              probes: int = 0) -> dict:
    jobs = {
        f"job-{i}": {"status": "ok", "matched": True, "verdict": "v",
                     "expected": "v"}
        for i in range(checks.EXPECTED_JOBS)
    }
    jobs["job-0"]["status"] = status
    jobs["job-0"]["matched"] = status == "ok"
    ok = sum(job["status"] == "ok" for job in jobs.values())
    return {
        "jobs": jobs, "backend": backend, "optimize": False, "shards": 0,
        "summary": {"ok": ok, "total": len(jobs)},
        "engine_totals": {"hom_calls": 5, "fixpoint_rounds": 5,
                          "join_probe_rows": probes,
                          "columnar_batches": 1 if probes else 0},
    }


def _printed(manifest: dict) -> str:
    summary = manifest["summary"]
    return f"summary: {summary['ok']}/{summary['total']} ok"


def test_evidence_checker_counts_a_mismatched_job() -> None:
    good = _manifest()
    tally = Tally()
    checks.check_evidence_suite(0, _printed(good), good, "interpreted", tally)
    assert (tally.attempted, tally.failed) == (checks.EXPECTED_JOBS, 0)

    bad = _manifest(status="mismatch")
    tally = Tally()
    checks.check_evidence_suite(1, _printed(bad), bad, "interpreted", tally)
    # the job itself, the exit code and the summary disagreeing
    assert tally.failed == 3


def test_run_mode_guard_catches_a_swapped_backend() -> None:
    assert checks.evidence_mode_problems(
        _manifest(backend="columnar", probes=10), "columnar") == []
    assert checks.evidence_mode_problems(
        _manifest(backend="columnar", probes=0), "columnar")
    assert checks.evidence_mode_problems(
        _manifest(backend="interpreted", probes=10), "interpreted")
    assert checks.evidence_mode_problems(_manifest(), "columnar")


def test_error_rate_counts_refused_and_failed_requests() -> None:
    tally = Tally()
    checks.check_response({"ok": True}, "query", False, tally)
    checks.check_response(
        {"ok": False, "rejected": True, "error": "update rejected"},
        "insert", False, tally)
    checks.check_response({"ok": False, "error": "boom"}, "retract", False,
                          tally)
    checks.check_response({"ok": True, "certificate": {"valid": False}},
                          "insert", True, tally)
    checks.check_response({"ok": True}, "retract", True, tally)
    checks.check_response({"ok": True, "certificate": {"valid": True}},
                          "insert", True, tally)
    assert (tally.attempted, tally.failed) == (6, 4)
    assert tally.error_rate == pytest.approx(4 / 6)


def test_self_time_subtracts_only_same_process_children() -> None:
    spans = [
        layers.Span("a", None, "a", "harness.run_jobs", 0.0, 10.0, 1),
        layers.Span("b", "a", "a", "core.fixpoint", 1.0, 3.0, 1),
        layers.Span("c", "a", "a", "core.fixpoint", 2.0, 4.0, 1),
        layers.Span("d", "a", "a", "harness.job", 0.0, 9.0, 2),
        layers.Span("e", "b", "a", "core.fixpoint", 1.5, 2.5, 1),
    ]
    trace = layers.Trace(spans, {})
    assert trace.self_time(spans[0]) == pytest.approx(7.0)
    assert trace.outermost_time("core.fixpoint") == pytest.approx(4.0)
    assert trace.coverage(1, (0.0, 20.0)) == pytest.approx(10.0)
    assert trace.coverage(2, (0.0, 20.0)) == pytest.approx(9.0)
