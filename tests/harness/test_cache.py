"""Content-addressed cache: keys, round-trips, invalidation."""

from __future__ import annotations

from repro.core.runmode import RunMode
from repro.harness.cache import ResultCache, code_fingerprint
from repro.harness.job import Job, JobResult, JobStatus


def _job(**kwargs) -> Job:
    kwargs.setdefault("name", "a")
    kwargs.setdefault("fn", "tests.harness.sample_jobs:ok_job")
    kwargs.setdefault("claim", "c")
    kwargs.setdefault("expected", "fine")
    return Job(**kwargs)


def _result(**kwargs) -> JobResult:
    kwargs.setdefault("name", "a")
    kwargs.setdefault("status", JobStatus.OK)
    kwargs.setdefault("expected", "fine")
    kwargs.setdefault("verdict", "fine")
    return JobResult(**kwargs)


def test_key_is_deterministic_and_input_sensitive(tmp_path):
    cache = ResultCache(tmp_path, fingerprint="fp")
    job = _job()
    assert cache.key(job) == cache.key(job)
    assert cache.key(job) == ResultCache(tmp_path, fingerprint="fp").key(job)
    assert cache.key(job) != cache.key(_job(inputs={"verdict": "x"}))
    assert cache.key(job) != ResultCache(
        tmp_path, fingerprint="other"
    ).key(job)


def test_store_load_round_trip(tmp_path):
    cache = ResultCache(tmp_path, fingerprint="fp")
    job = _job()
    assert cache.load(job) is None
    stored = _result(
        measured="done", metrics={"n": 3}, engine={"hom_calls": 7},
        duration=1.5, attempts=2,
    )
    cache.store(job, stored)
    loaded = cache.load(job)
    assert loaded is not None
    assert loaded.cached is True
    assert loaded.verdict == "fine"
    assert loaded.measured == "done"
    assert loaded.metrics == {"n": 3}
    assert loaded.engine == {"hom_calls": 7}
    assert loaded.attempts == 2


def test_load_rediffs_against_current_expectation(tmp_path):
    cache = ResultCache(tmp_path, fingerprint="fp")
    cache.store(_job(), _result())
    # same inputs/code, but the registry now predicts something else
    loaded = cache.load(_job(expected="revised"))
    assert loaded is not None
    assert loaded.expected == "revised"
    assert not loaded.matched


def test_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path, fingerprint="fp")
    job = _job()
    cache.store(job, _result())
    path = tmp_path / f"{cache.key(job)}.json"
    path.write_text("{ not json")
    assert cache.load(job) is None


def test_clear_removes_entries(tmp_path):
    cache = ResultCache(tmp_path, fingerprint="fp")
    cache.store(_job(name="a"), _result(name="a"))
    cache.store(_job(name="b"), _result(name="b"))
    assert cache.clear() == 2
    assert cache.load(_job(name="a")) is None


def test_code_fingerprint_tracks_source_changes(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text("x = 1\n")
    before = code_fingerprint(pkg)
    assert before == code_fingerprint(pkg)  # deterministic
    (pkg / "mod.py").write_text("x = 2\n")
    assert code_fingerprint(pkg) != before


def test_unresolvable_fn_module_still_keys(tmp_path):
    cache = ResultCache(tmp_path, fingerprint="fp")
    job = _job(fn="no.such.module:fn")
    assert isinstance(cache.key(job), str)


def test_run_mode_partitions_the_key_space(tmp_path):
    """Same job + code in different run modes must never share keys."""
    job = _job()
    modes = [
        RunMode(),
        RunMode(backend="columnar"),
        RunMode(shards=2),
        RunMode(shards=2, backend="columnar"),
        RunMode(checks=("cost",)),
        RunMode(checks=("cost", "maintain")),
    ]
    keys = [
        ResultCache(tmp_path, fingerprint="fp", mode=mode).key(job)
        for mode in modes
    ]
    assert len(set(keys)) == len(keys)


def test_run_mode_key_is_order_insensitive_and_deterministic(tmp_path):
    job = _job()
    a = ResultCache(
        tmp_path, fingerprint="fp",
        mode=RunMode(backend="columnar", shards=2,
                     checks=("maintain", "cost")),
    )
    b = ResultCache(
        tmp_path, fingerprint="fp",
        mode=RunMode(checks=("cost", "maintain", "cost"),
                     shards=2, backend="columnar"),
    )
    assert a.key(job) == b.key(job)


def test_result_stored_under_one_mode_misses_in_another(tmp_path):
    """A cached verdict from an interpreted run must not answer a
    columnar run (and vice versa)."""
    job = _job()
    interpreted = ResultCache(tmp_path, fingerprint="fp", mode=RunMode())
    columnar = ResultCache(
        tmp_path, fingerprint="fp", mode=RunMode(backend="columnar"),
    )
    interpreted.store(job, _result())
    assert columnar.load(job) is None
    assert interpreted.load(job) is not None
    columnar.store(job, _result(measured="columnar run"))
    assert interpreted.load(job).measured != "columnar run"
