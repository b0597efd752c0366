"""Output checks and run-mode guards; every failure is counted in a Tally."""

from __future__ import annotations

import re
from typing import Any, Iterable, Optional

from common import Tally

#: the registry this benchmark was written against; a change in the
#: job count changes what ``suite_s`` measures
EXPECTED_JOBS = 28

_SUMMARY = re.compile(r"summary: (\d+)/(\d+) ok")


def job_count(manifest: Optional[dict[str, Any]]) -> int:
    return len((manifest or {}).get("jobs", {}))


def check_evidence_suite(
    returncode: int,
    stdout: str,
    manifest: Optional[dict[str, Any]],
    backend: str,
    tally: Tally,
) -> None:
    """One attempted op per job; suite-level faults count as failed ops."""
    if returncode != 0:
        tally.fail(f"evidence run exited {returncode}")
    if manifest is None:
        tally.fail("no manifest written", count=EXPECTED_JOBS)
        return
    jobs = manifest.get("jobs", {})
    for name, job in sorted(jobs.items()):
        tally.check(
            job.get("status") == "ok" and bool(job.get("matched")),
            f"job {name}: status {job.get('status')}, verdict "
            f"{job.get('verdict')!r} vs expected {job.get('expected')!r}",
        )
    if len(jobs) != EXPECTED_JOBS:
        tally.fail(f"{len(jobs)} jobs ran, expected {EXPECTED_JOBS}")
    summary = manifest.get("summary", {})
    if not (summary.get("ok") == summary.get("total") == len(jobs)):
        tally.fail(f"manifest summary disagrees with its jobs: {summary}")
    printed = _SUMMARY.search(stdout)
    if printed is None or (int(printed[1]), int(printed[2])) != (
        summary.get("ok"), summary.get("total")
    ):
        tally.fail("printed summary disagrees with the manifest")
    for problem in evidence_mode_problems(manifest, backend):
        tally.fail(problem)


def evidence_mode_problems(
    manifest: dict[str, Any], backend: str
) -> list[str]:
    """Public-counter evidence that the named run mode took effect."""
    problems = []
    engine = manifest.get("engine_totals", {})
    if manifest.get("backend") != backend:
        problems.append(
            f"manifest backend {manifest.get('backend')!r}, ran {backend!r}"
        )
    if manifest.get("optimize") or manifest.get("shards"):
        problems.append("optimize/shards set in a plain run")
    probes = engine.get("join_probe_rows", 0)
    if backend == "columnar" and probes <= 0:
        problems.append("columnar run probed no join rows")
    if backend == "interpreted" and (probes or engine.get("columnar_batches", 0)):
        problems.append("interpreted run pushed columnar batches")
    if engine.get("hom_calls", 0) <= 0 or engine.get("fixpoint_rounds", 0) <= 0:
        problems.append("engine counters are empty")
    return problems


def check_response(
    response: dict[str, Any], kind: str, certified: bool, tally: Tally
) -> None:
    """A request fails if refused, not ok, or (certified) unproven."""
    if not response.get("ok"):
        tally.fail(f"{kind}: {response.get('error', 'not ok')}")
        return
    if certified and kind in ("insert", "retract"):
        verdict = response.get("certificate")
        if not isinstance(verdict, dict) or verdict.get("valid") is not True:
            tally.fail(f"{kind}: certificate verdict {verdict!r}")
            return
    tally.ok()


def check_rows(
    name: str,
    served: Iterable[Iterable[Any]],
    expected: Iterable[tuple[Any, ...]],
    tally: Tally,
) -> None:
    """Served rows must equal the from-scratch rows exactly."""
    got = {tuple(row) for row in served}
    want = set(expected)
    tally.check(
        got == want,
        f"{name}: {len(got - want)} wrong and {len(want - got)} missing rows",
    )


def check_serve_mode(
    created: dict[str, Any], stats: dict[str, Any], certified: bool,
    tally: Tally,
) -> None:
    """The session really maintains (and certifies) incrementally."""
    if created.get("certify") is not certified:
        tally.fail(f"session certify={created.get('certify')}, "
                   f"workload wants {certified}")
    rounds = stats.get("rounds", 0)
    engine = stats.get("engine", {})
    if rounds <= 0 or engine.get("ivm_rounds", 0) != rounds:
        tally.fail(f"session ran {rounds} rounds, engine counted "
                   f"{engine.get('ivm_rounds')}")
