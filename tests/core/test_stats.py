"""EngineStats: dict round-trips and loud-failure merge coverage.

The evidence runner ships stats from worker processes back to the
parent as plain dicts, so ``to_dict``/``from_dict``/``merge`` must stay
lossless — and ``merge`` must *refuse* to run when a field it does not
know how to combine appears.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import pytest

from repro.core.stats import _SUMMED_FIELDS, EngineStats


def _populated() -> EngineStats:
    stats = EngineStats(
        hom_calls=1,
        search_steps=2,
        rows_scanned=3,
        index_rebuilds=4,
        index_incremental=5,
        fixpoint_rounds=6,
        facts_derived=7,
        plan_cache_hits=8,
        plan_cache_misses=9,
    )
    stats.phase_seconds["total"] = 1.5
    return stats


def test_to_dict_covers_every_field():
    data = _populated().to_dict()
    assert set(data) == {f.name for f in fields(EngineStats)}


def test_round_trip_is_lossless():
    original = _populated()
    rebuilt = EngineStats.from_dict(original.to_dict())
    assert rebuilt == original
    # the rebuilt dict is a copy, not shared state
    rebuilt.phase_seconds["total"] = 99.0
    assert original.phase_seconds["total"] == 1.5


def test_from_dict_is_strict_by_default():
    """A counter from a newer schema must fail loudly, naming itself."""
    with pytest.raises(ValueError, match="mystery"):
        EngineStats.from_dict({"hom_calls": 5, "mystery": 123})


def test_from_dict_allow_unknown_ignores_extras_and_defaults_missing():
    stats = EngineStats.from_dict(
        {"hom_calls": 5, "mystery": 123}, allow_unknown=True
    )
    assert stats.hom_calls == 5
    assert stats.rows_scanned == 0
    assert not hasattr(stats, "mystery")


def test_from_dict_strict_accepts_the_backend_counters():
    data = {
        "join_build_rows": 1,
        "join_probe_rows": 2,
        "join_output_rows": 3,
        "columnar_batches": 4,
    }
    stats = EngineStats.from_dict(data)
    assert stats.join_build_rows == 1
    assert stats.join_probe_rows == 2
    assert stats.join_output_rows == 3
    assert stats.columnar_batches == 4


def test_merge_covers_every_counter_field():
    a, b = _populated(), _populated()
    a.merge(b)
    for name in _SUMMED_FIELDS:
        assert getattr(a, name) == 2 * getattr(b, name), name
    assert a.phase_seconds == {"total": 3.0}


def test_merge_matches_declared_fields():
    """Every dataclass field is summed or explicitly special-cased."""
    declared = {f.name for f in fields(EngineStats)}
    assert declared == _SUMMED_FIELDS | {"phase_seconds"}


def test_merge_fails_loudly_on_unknown_field():
    """Adding a counter without wiring its merge strategy must raise,
    not silently drop cross-process data."""

    @dataclass
    class Extended(EngineStats):
        new_counter: int = 0

    with pytest.raises(TypeError, match="new_counter"):
        Extended().merge(Extended())


def test_merge_allow_unknown_skips_unhandled_fields():
    """Report tooling can fold in newer-schema stats best-effort."""

    @dataclass
    class Extended(EngineStats):
        new_counter: int = 0

    a = Extended(hom_calls=1, new_counter=7)
    a.merge(Extended(hom_calls=2, new_counter=9), allow_unknown=True)
    assert a.hom_calls == 3
    assert a.new_counter == 7  # unhandled: left alone, not summed


def test_from_dict_strict_accepts_the_shard_counters():
    """Shard counters are part of the current schema: strict loaders
    (worker round-trips, cached results) must take them as-is."""
    data = {
        "shard_workers": 4,
        "shard_exchanged_rows": 120,
        "shard_local_rounds": 9,
    }
    stats = EngineStats.from_dict(data)
    assert stats.shard_workers == 4
    assert stats.shard_exchanged_rows == 120
    assert stats.shard_local_rounds == 9
    merged = EngineStats()
    merged.merge(stats)
    assert merged.shard_exchanged_rows == 120
