"""The ``evidence`` and ``evidence-columnar`` workloads.

Each suite is one ``repro evidence run --no-cache --jobs 2`` process
over every registered job.  Set-up ends when the runner's event log
records the first ``job_start``; the rest of the command, through the
manifest written and the report rendered, is the suite time.  A run
makes about ``--seconds`` worth of suites (at least two) and each
metric is the median over the run's suites.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Optional

import checks
from common import (
    Tally,
    metric,
    ratio,
    remaining_s,
    run_measured,
    scratch_dir,
)
import layers

WORKERS = 2
MIN_SUITES = 2
#: about how long one suite takes at this commit; a run of ``--seconds``
#: makes ``seconds / SUITE_S`` suites, fixed by the arguments, not the clock
SUITE_S = 7.0
#: untraced/traced suite pairs in a traced run
TRACE_PAIRS = 2


@dataclass
class Suite:
    """What one evidence command produced, as seen from outside."""

    returncode: int
    stdout: str
    started: float    # wall clock before the process was spawned
    first_job: float  # wall clock of the first job_start event
    span: tuple[float, float]  # perf_counter at spawn and at exit
    peak_rss_mb: float  # largest RSS of the command or any job worker
    out_dir: Path
    manifest: Optional[dict[str, Any]] = None
    events: list[dict[str, Any]] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.span[1] - self.span[0]

    @property
    def setup_s(self) -> float:
        return self.first_job - self.started

    @property
    def suite_s(self) -> float:
        return self.wall_s - self.setup_s


def run_suite(backend: Optional[str], out_dir: Path,
              trace_dir: Optional[Path] = None) -> Suite:
    args = ["evidence", "run", "--no-cache", "--jobs", str(WORKERS),
            "--out-dir", str(out_dir)]
    if backend is not None:
        args += ["--backend", backend]
    if trace_dir is None:
        command = [sys.executable, "-m", "repro", *args]
    else:
        command = [sys.executable, str(Path(__file__).with_name("trace_shim.py")),
                   str(trace_dir), *args]
    started = time.time()
    begin = time.perf_counter()
    returncode, output, peak_rss_mb = run_measured(command, remaining_s())
    end = time.perf_counter()
    events = _read_events(out_dir / "events.jsonl")
    starts = [e["ts"] for e in events if e.get("event") == "job_start"]
    manifest_path = out_dir / "manifest.json"
    manifest = (
        json.loads(manifest_path.read_text("utf-8"))
        if manifest_path.is_file() else None
    )
    return Suite(
        returncode=returncode, stdout=output, started=started,
        first_job=min(starts) if starts else started + end - begin,
        span=(begin, end), peak_rss_mb=peak_rss_mb,
        out_dir=out_dir, manifest=manifest, events=events,
    )


def _read_events(path: Path) -> list[dict[str, Any]]:
    if not path.is_file():
        return []
    return [json.loads(line) for line in path.read_text("utf-8").splitlines()
            if line.strip()]


def _check(suite: Suite, backend: Optional[str], tally: Tally) -> None:
    checks.check_evidence_suite(
        suite.returncode, suite.stdout, suite.manifest,
        backend or "interpreted", tally,
    )


def _backend(workload: str) -> Optional[str]:
    return "columnar" if workload == "evidence-columnar" else None


def run(workload: str, seed: int, seconds: float) -> tuple[dict[str, Any], Tally]:
    """Untraced suites: the end-to-end metrics.

    The inputs come from the job registry: ``seed`` changes nothing.
    """
    backend = _backend(workload)
    tally = Tally()
    suites: list[Suite] = []
    for index in range(max(MIN_SUITES, round(seconds / SUITE_S))):
        suites.append(run_suite(backend, scratch_dir(f"evidence-{index}")))
        _check(suites[-1], backend, tally)
    jobs = [checks.job_count(s.manifest) for s in suites]
    metrics = {
        "setup_s": metric(median(s.setup_s for s in suites), "s"),
        "suite_s": metric(median(s.suite_s for s in suites), "s"),
        "ops_per_s": metric(
            median(ratio(n, s.suite_s) for n, s in zip(jobs, suites)), "1/s"
        ),
        "peak_rss_mb": metric(median(s.peak_rss_mb for s in suites), "MB"),
    }
    notes = {
        "suites": len(suites),
        "jobs per suite": jobs[0],
        "setup_s per suite": " ".join(f"{s.setup_s:.3f}" for s in suites),
        "wall_s per suite": " ".join(f"{s.wall_s:.3f}" for s in suites),
        "peak_rss_mb per suite": " ".join(f"{s.peak_rss_mb:.1f}" for s in suites),
        "error_rate": f"{tally.error_rate:.4f} "
                      f"({tally.failed}/{tally.attempted})",
    }
    return {"metrics": metrics, "notes": notes}, tally


def run_traced(workload: str, seed: int, seconds: float) -> tuple[dict[str, Any], Tally]:
    """Untraced and traced suites, interleaved: the per-layer metrics.

    Spans come from the last traced suite; ``trace.overhead_s`` is the
    median traced wall minus the median untraced wall.
    """
    backend = _backend(workload)
    tally = Tally()
    plain: list[Suite] = []
    traced_suites: list[Suite] = []
    for index in range(TRACE_PAIRS):
        plain.append(run_suite(backend, scratch_dir(f"evidence-plain-{index}")))
        _check(plain[-1], backend, tally)
        trace_dir = scratch_dir(f"evidence-trace-{index}")
        traced_suites.append(run_suite(
            backend, scratch_dir(f"evidence-traced-{index}"), trace_dir))
        _check(traced_suites[-1], backend, tally)
    traced = traced_suites[-1]
    trace = layers.load_trace(trace_dir)
    manifest = traced.manifest or {}
    job_durations = sum(
        e.get("duration_s", 0.0) for e in traced.events
        if e.get("event") == "job_end"
    )
    certificate_bytes = sum(
        len(json.dumps(job.get("certificate"), sort_keys=True))
        for job in manifest.get("jobs", {}).values()
        if job.get("certificate") is not None
    )
    values = layers.layer_metrics(
        trace,
        engine=manifest.get("engine_totals", {}),
        window=traced.span,
        main_pid=trace.pid_of("harness.run_jobs"),
        overhead_s=median(s.wall_s for s in traced_suites)
        - median(s.wall_s for s in plain),
        extra={
            "harness.job_overhead_s":
                job_durations - trace.outermost_time("harness.job"),
            "harness.result_bytes": float(trace.counters.get("result_bytes", 0)),
            "harness.manifest_bytes":
                float((traced.out_dir / "manifest.json").stat().st_size),
            "certify.certificate_bytes": float(certificate_bytes),
            "error_rate": tally.error_rate,
        },
    )
    return {
        "metrics": layers.as_metrics(values),
        "table": layers.render_table(trace),
    }, tally
