"""The run mode: a per-context value, validated, with its guard set."""

from __future__ import annotations

import threading

import pytest

from repro.core.evaluation import fixpoint
from repro.core.parser import parse_instance, parse_program
from repro.core.runmode import RunMode, current, guards, run_mode
from repro.core.stats import EngineStats, active, collecting

TC = parse_program("T(x,y) <- R(x,y). T(x,y) <- R(x,z), T(z,y).")
CHAIN = parse_instance(" ".join(f"R({i},{i + 1})." for i in range(10)))


def test_run_mode_is_canonical():
    a = RunMode(shards=-3, checks=("shard", "cost", "shard"))
    assert a == RunMode(checks=("cost", "shard"))
    assert a.shards == 0
    assert a.as_dict() == {
        "backend": "interpreted", "shards": 0, "checks": ["cost", "shard"],
    }
    with run_mode(**a.as_dict()) as mode:
        assert mode == a == current()


def test_run_mode_rejects_unknown_checks_up_front():
    with pytest.raises(ValueError, match="unknown check.*'nope'"):
        with run_mode(checks=("nope",)):
            pass
    assert current() == RunMode()


def test_run_mode_restores_on_error():
    with pytest.raises(RuntimeError):
        with run_mode(backend="columnar", checks=("cost",)):
            raise RuntimeError("boom")
    assert current() == RunMode()
    assert guards() == {}


def test_threads_each_see_their_own_mode_and_collector():
    """Two threads evaluate at the same time under different modes:
    each gets its own engine and its own counters."""
    barrier = threading.Barrier(2, timeout=30)
    seen: dict[str, tuple[RunMode, EngineStats]] = {}
    errors: list[BaseException] = []

    def worker(name: str, **mode: object) -> None:
        try:
            stats = EngineStats()
            with run_mode(**mode), collecting(stats):
                barrier.wait()  # both modes and collectors now installed
                fixpoint(TC, CHAIN)
                barrier.wait()  # both fixpoints done before either exits
                seen[name] = (current(), stats)
                assert active() is stats
        except BaseException as exc:  # surfaced in the main thread
            errors.append(exc)
            barrier.abort()

    threads = [
        threading.Thread(
            target=worker, args=("columnar",),
            kwargs={"backend": "columnar"},
        ),
        threading.Thread(
            target=worker, args=("interpreted",),
            kwargs={"backend": "interpreted", "checks": ("cost",)},
        ),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert errors == []

    mode, stats = seen["columnar"]
    assert (mode.backend, mode.checks) == ("columnar", ())
    assert stats.join_probe_rows > 0
    assert stats.hom_calls == 0
    mode, stats = seen["interpreted"]
    assert (mode.backend, mode.checks) == ("interpreted", ("cost",))
    assert stats.hom_calls > 0
    assert stats.join_probe_rows == 0
    # the main thread never saw either mode or collector
    assert current() == RunMode()
    assert active() is None
