"""Helpers shared by the workloads: paths, percentiles, RSS, metric records."""

from __future__ import annotations

import math
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Optional, Sequence

#: the checkout root: the benchmark is run from there
ROOT = Path.cwd()
SRC = ROOT / "src"
#: scratch space for manifests, event logs and trace files; removed after
#: each run (and listed in the root .gitignore)
TMP = ROOT / ".e2ebench_tmp"
#: a run must end within 180 s; program processes are killed after this
RUN_BUDGET_S = 165.0
_STARTED = time.monotonic()


def remaining_s() -> float:
    """Seconds left of the run's budget (at least one)."""
    return max(1.0, RUN_BUDGET_S - (time.monotonic() - _STARTED))


def have_sources() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> dict[str, str]:
    """Environment for a program process: ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def spawn(command: list[str]) -> subprocess.Popen[str]:
    """Start a program process in its own process group, output piped."""
    return subprocess.Popen(
        command, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, start_new_session=True,
    )


def kill_group(proc: subprocess.Popen[str]) -> None:
    """Kill ``proc`` and every worker it started."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # already gone


def import_repro() -> None:
    """Make ``repro`` importable in the benchmark process itself."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def scratch_dir(name: str) -> Path:
    path = TMP / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_scratch() -> None:
    for path in TMP.glob(f"*-{os.getpid()}"):
        shutil.rmtree(path, ignore_errors=True)
    try:
        TMP.rmdir()
    except OSError:
        pass  # another run still holds files there


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile, refusing thin tails.

    A percentile is reported only when at least ten samples lie beyond
    it, so p90 needs 100 samples and p50 needs 20.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be strictly between 0 and 100, got {q}")
    n = len(samples)
    need = math.ceil(10 / (1.0 - q / 100.0) - 1e-9)
    if n < need:
        raise ValueError(
            f"p{q:g} needs at least {need} samples, got {n}"
        )
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    return float(ordered[rank - 1])


def reap(proc: subprocess.Popen[Any]) -> float:
    """Wait for ``proc``; return the largest RSS, in MiB, that it or any
    descendant it waited for reached."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


def run_measured(command: list[str], timeout: float) -> tuple[int, str, float]:
    """Run ``command`` to completion: ``(exit code, output, peak RSS MiB)``.

    The process and its workers are killed if it runs longer than
    ``timeout`` seconds.
    """
    proc = spawn(command)
    watchdog = threading.Timer(timeout, kill_group, args=(proc,))
    watchdog.start()
    try:
        assert proc.stdout is not None
        output = proc.stdout.read()
        peak = reap(proc)
    finally:
        watchdog.cancel()
        if proc.stdout is not None:
            proc.stdout.close()
        if proc.returncode is None:
            kill_group(proc)
            proc.wait()
    return proc.returncode, output, peak


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tally:
    """Attempted/failed operations plus the reasons for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str, count: int = 1) -> None:
        self.attempted += count
        self.failed += count
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def check(self, condition: bool, reason: str) -> None:
        """Count one attempted check; a false ``condition`` fails it."""
        if condition:
            self.ok()
        else:
            self.fail(reason)

    @property
    def error_rate(self) -> float:
        return ratio(self.failed, self.attempted)


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def print_metrics(title: str, metrics: dict[str, dict[str, Any]],
                  notes: Optional[dict[str, Any]] = None) -> None:
    print(f"== {title}")
    width = max((len(name) for name in metrics), default=10)
    for name, entry in metrics.items():
        print(f"  {name:<{width}}  {entry['value']:.6g} {entry['unit']}")
    for key, value in (notes or {}).items():
        print(f"  ({key}: {value})")
