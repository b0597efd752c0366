"""Per-layer metrics from the traced run: spans, engine counters, bytes.

A span time metric sums the *outermost* spans of one name: a span nested
in a span of the same name (a fixpoint inside a fixpoint) is not added
again.  A span's *self* time, shown in the table, is its duration minus
the part its same-process child spans cover; for ``harness.job`` that is
job code outside every wrapped entry point.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Optional

from common import metric, ratio

#: every per-layer metric, in report order, with its unit
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("harness.fingerprint_s", "s"),
    ("harness.schedule_s", "s"),
    ("harness.run_jobs_s", "s"),
    ("harness.job_compute_s", "s"),
    ("harness.job_overhead_s", "s"),
    ("harness.result_bytes", "bytes"),
    ("harness.manifest_write_s", "s"),
    ("harness.manifest_bytes", "bytes"),
    ("core.fixpoint_calls", "count"),
    ("core.fixpoint_s", "s"),
    ("core.fixpoint_rounds", "count"),
    ("core.facts_derived", "count"),
    ("core.hom_calls", "count"),
    ("core.search_steps", "count"),
    ("core.rows_scanned", "count"),
    ("core.rows_scanned_per_fact", "ratio"),
    ("core.plan_cache_hits", "count"),
    ("core.plan_cache_misses", "count"),
    ("core.plan_cache_hit_ratio", "ratio"),
    ("core.join_probe_rows", "count"),
    ("core.join_output_rows", "count"),
    ("core.join_output_per_probe", "ratio"),
    ("core.shard_workers", "count"),
    ("core.shard_exchanged_rows", "count"),
    ("core.parse_s", "s"),
    ("determinacy.check_s", "s"),
    ("automata.containment_s", "s"),
    ("td.treewidth_s", "s"),
    ("analysis.predict_delta_s", "s"),
    ("ivm.init_s", "s"),
    ("ivm.apply_s", "s"),
    ("ivm.rounds", "count"),
    ("ivm.inserted", "count"),
    ("ivm.deleted", "count"),
    ("ivm.rederived", "count"),
    ("ivm.rederived_per_deleted", "ratio"),
    ("ivm.counting_strata", "count"),
    ("ivm.dred_strata", "count"),
    ("serve.handle_self_ms", "ms"),
    ("serve.requests", "count"),
    ("certify.emit_s", "s"),
    ("certify.check_s", "s"),
    ("certify.certificate_bytes", "bytes"),
    ("trace.overhead_s", "s"),
    ("trace.untraced_share", "ratio"),
    ("update_p50_ms", "ms"),
    ("update_p90_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("error_rate", "ratio"),
)
UNITS = dict(PER_LAYER)

#: per-layer metric -> span name whose (outermost) time it sums
SPAN_TIMES = {
    "harness.fingerprint_s": "harness.fingerprint",
    "harness.schedule_s": "harness.schedule",
    "harness.run_jobs_s": "harness.run_jobs",
    "harness.job_compute_s": "harness.job",
    "harness.manifest_write_s": "harness.manifest_write",
    "core.fixpoint_s": "core.fixpoint",
    "core.parse_s": "core.parse",
    "determinacy.check_s": "determinacy.check",
    "automata.containment_s": "automata.containment",
    "td.treewidth_s": "td.treewidth",
    "analysis.predict_delta_s": "analysis.predict_delta",
    "ivm.init_s": "ivm.init",
    "ivm.apply_s": "ivm.apply",
    "certify.emit_s": "certify.emit",
    "certify.check_s": "certify.check",
}

#: per-layer metric -> EngineStats counter it reports
ENGINE_COUNTS = {
    "core.fixpoint_rounds": "fixpoint_rounds",
    "core.facts_derived": "facts_derived",
    "core.hom_calls": "hom_calls",
    "core.search_steps": "search_steps",
    "core.rows_scanned": "rows_scanned",
    "core.plan_cache_hits": "plan_cache_hits",
    "core.plan_cache_misses": "plan_cache_misses",
    "core.join_probe_rows": "join_probe_rows",
    "core.join_output_rows": "join_output_rows",
    "core.shard_workers": "shard_workers",
    "core.shard_exchanged_rows": "shard_exchanged_rows",
    "ivm.rounds": "ivm_rounds",
    "ivm.inserted": "ivm_inserted",
    "ivm.deleted": "ivm_deleted",
    "ivm.rederived": "ivm_rederived",
    "ivm.counting_strata": "maintain_counting_strata",
    "ivm.dred_strata": "maintain_dred_strata",
}


@dataclass(frozen=True)
class Span:
    id: str
    parent: Optional[str]
    root: str
    name: str
    start: float
    end: float
    pid: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Trace:
    spans: list[Span]
    counters: dict[str, int]

    def __post_init__(self) -> None:
        self.by_id = {span.id: span for span in self.spans}
        self.children: dict[str, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                self.children[span.parent].append(span)

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def _has_ancestor_named(self, span: Span, name: str) -> bool:
        parent = self.by_id.get(span.parent) if span.parent else None
        while parent is not None:
            if parent.name == name:
                return True
            parent = self.by_id.get(parent.parent) if parent.parent else None
        return False

    def outermost_time(self, name: str) -> float:
        return sum(
            span.duration for span in self.named(name)
            if not self._has_ancestor_named(span, name)
        )

    def self_time(self, span: Span) -> float:
        local = [c for c in self.children[span.id] if c.pid == span.pid]
        return span.duration - union_length(
            (c.start, c.end) for c in local
        )

    def pid_of(self, name: str) -> Optional[int]:
        spans = self.named(name)
        return spans[0].pid if spans else None

    def coverage(self, pid: int, window: tuple[float, float]) -> float:
        """Seconds of ``window`` covered by ``pid``'s root spans."""
        lo, hi = window
        roots = (
            (max(lo, s.start), min(hi, s.end)) for s in self.spans
            if s.pid == pid and (s.parent is None or s.parent not in self.by_id
                                 or self.by_id[s.parent].pid != pid)
        )
        return union_length((a, b) for a, b in roots if b > a)


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def load_trace(trace_dir: Path) -> Trace:
    spans: list[Span] = []
    counters: dict[str, int] = defaultdict(int)
    for path in sorted(trace_dir.glob("spans-*.json")):
        data = json.loads(path.read_text("utf-8"))
        for span_id, parent, root, name, start, end in data["spans"]:
            spans.append(Span(span_id, parent, root, name, start, end,
                              data["pid"]))
        for key, value in data["counters"].items():
            counters[key] += value
    return Trace(spans, dict(counters))


def layer_metrics(
    trace: Trace,
    *,
    engine: dict[str, Any],
    window: tuple[float, float],
    main_pid: Optional[int],
    overhead_s: float,
    extra: dict[str, float],
) -> dict[str, float]:
    """Every per-layer metric; ``extra`` holds the workload-specific ones.

    A layer the workload never reaches reports 0.
    """
    values: dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    for name, span_name in SPAN_TIMES.items():
        values[name] = trace.outermost_time(span_name)
    for name, counter in ENGINE_COUNTS.items():
        values[name] = float(engine.get(counter, 0))
    values["core.fixpoint_calls"] = float(len(trace.named("core.fixpoint")))
    values["serve.requests"] = float(len(trace.named("serve.handle")))
    values["core.rows_scanned_per_fact"] = ratio(
        values["core.rows_scanned"], values["core.facts_derived"]
    )
    values["core.plan_cache_hit_ratio"] = ratio(
        values["core.plan_cache_hits"],
        values["core.plan_cache_hits"] + values["core.plan_cache_misses"],
    )
    values["core.join_output_per_probe"] = ratio(
        values["core.join_output_rows"], values["core.join_probe_rows"]
    )
    values["ivm.rederived_per_deleted"] = ratio(
        values["ivm.rederived"], values["ivm.deleted"]
    )
    values["trace.overhead_s"] = overhead_s
    wall = window[1] - window[0]
    if main_pid is not None and wall > 0:
        values["trace.untraced_share"] = 1.0 - trace.coverage(main_pid, window) / wall
    values.update(extra)
    return values


def as_metrics(values: dict[str, float]) -> dict[str, dict[str, Any]]:
    return {name: metric(values[name], UNITS[name]) for name, _ in PER_LAYER}


def render_table(trace: Trace) -> str:
    """Span count, inclusive and self time per layer entry point."""
    self_s: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    for span in trace.spans:
        self_s[span.name] += trace.self_time(span)
        count[span.name] += 1
    lines = [f"  {'layer.entry':<26} {'spans':>7} {'incl s':>9} {'self s':>9}"]
    layer_self: dict[str, float] = defaultdict(float)
    for name, secs in self_s.items():
        layer_self[name.split(".", 1)[0]] += secs
    for name in sorted(self_s, key=lambda n: (-layer_self[n.split(".", 1)[0]],
                                              -self_s[n])):
        lines.append(
            f"  {name:<26} {count[name]:>7} "
            f"{trace.outermost_time(name):>9.3f} {self_s[name]:>9.3f}"
        )
    lines.append("  layer self totals: " + ", ".join(
        f"{layer} {secs:.3f}s"
        for layer, secs in sorted(layer_self.items(), key=lambda kv: -kv[1])
    ))
    return "\n".join(lines)
