"""Run one ``repro`` CLI command with spans around each layer's entry points.

Usage::

    PYTHONPATH=src python3 e2ebench/trace_shim.py TRACE_DIR <repro CLI args>

Before the command runs, every entry point in :data:`ENTRY_POINTS` is
replaced by a wrapper that records a span (id, parent, root, name,
start, end) — in its defining module or class and wherever another
``repro`` module already bound it by name.  Async functions get an
async wrapper that awaits the original, so the span covers the awaited
work.  Parents are tracked in a ``contextvars`` variable, which
``asyncio.to_thread`` copies, so maintenance work run off the event loop
nests under the request that caused it.

Spans stay in memory.  Each process writes its own once at exit to
``TRACE_DIR/spans-<pid>.json``: the main process after the command
returns, forked job and shard workers from a multiprocessing finalizer
registered right after the fork.  Clocks are ``time.perf_counter``
(system-wide monotonic on Linux), so spans from different processes and
the benchmark's own timestamps share one time base.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import multiprocessing.util
import os
import sys
import time
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable

#: (module, attribute path, span name); the span's layer is the name's
#: first dotted component
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("repro.harness.cache", "code_fingerprint", "harness.fingerprint"),
    ("repro.harness.registry", "default_registry", "harness.registry"),
    ("repro.harness.schedule", "schedule_jobs", "harness.schedule"),
    ("repro.harness.runner", "run_jobs", "harness.run_jobs"),
    ("repro.harness.manifest", "build_manifest", "harness.manifest_build"),
    ("repro.harness.manifest", "write_manifest", "harness.manifest_write"),
    ("repro.harness.manifest", "render_manifest", "harness.render"),
    ("repro.core.parser", "parse_program", "core.parse"),
    ("repro.core.parser", "parse_instance", "core.parse"),
    ("repro.core.evaluation", "fixpoint", "core.fixpoint"),
    ("repro.core.shard", "sharded_fixpoint", "core.shard"),
    ("repro.determinacy.checker", "decide_monotonic_determinacy",
     "determinacy.check"),
    ("repro.determinacy.checker", "check_tests", "determinacy.check"),
    ("repro.determinacy.cq_query", "decide_cq_ucq", "determinacy.check"),
    ("repro.determinacy.automata_checker", "decide_fgdl",
     "determinacy.check"),
    ("repro.automata.containment", "datalog_in_cq_exact",
     "automata.containment"),
    ("repro.automata.containment", "datalog_in_ucq_exact",
     "automata.containment"),
    ("repro.automata.nta", "emptiness_against", "automata.containment"),
    ("repro.td.heuristics", "treewidth_exact", "td.treewidth"),
    ("repro.td.heuristics", "decompose", "td.treewidth"),
    ("repro.ivm.materialized", "MaterializedView.__init__", "ivm.init"),
    ("repro.ivm.materialized", "MaterializedView.apply", "ivm.apply"),
    ("repro.ivm.materialized", "MaterializedView.predict_delta",
     "analysis.predict_delta"),
    ("repro.certify.checker", "check_certificate", "certify.check"),
    ("repro.serve.service", "ServeService.handle", "serve.handle"),
)

#: modules imported before wrapping so that by-name bindings can be found
PRELOAD = (
    "repro", "repro.cli", "repro.harness.cli", "repro.serve.cli",
    "repro.serve.service", "repro.certify",
)

_CURRENT: contextvars.ContextVar[tuple[str, str] | None] = (
    contextvars.ContextVar("e2ebench_span", default=None)
)
_IDS = itertools.count()
#: (id, parent id, root id, name, start, end)
SPANS: list[tuple[str, str | None, str, str, float, float]] = []
#: byte counts measured at a boundary (results shipped, certificates)
COUNTERS: dict[str, int] = {"result_bytes": 0, "certificate_bytes": 0}
_TRACE_DIR = ""


def _enter() -> tuple[contextvars.Token[Any], str, str | None, str]:
    parent = _CURRENT.get()
    span_id = f"{os.getpid()}-{next(_IDS)}"
    root = parent[1] if parent is not None else span_id
    token = _CURRENT.set((span_id, root))
    return token, span_id, parent[0] if parent else None, root


def _exit(token: contextvars.Token[Any], span_id: str, parent: str | None,
          root: str, name: str, start: float) -> None:
    SPANS.append((span_id, parent, root, name, start, time.perf_counter()))
    _CURRENT.reset(token)


def traced(fn: Callable[..., Any], name: str) -> Callable[..., Any]:
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
            token, span_id, parent, root = _enter()
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                _exit(token, span_id, parent, root, name, start)
        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        token, span_id, parent, root = _enter()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            _exit(token, span_id, parent, root, name, start)
    return wrapper


class _MeasuredConn:
    """A worker's result pipe that counts the pickled bytes it ships."""

    def __init__(self, conn: Any) -> None:
        self._conn = conn

    def send(self, obj: Any) -> None:
        payload = ForkingPickler.dumps(obj)
        COUNTERS["result_bytes"] += len(payload)
        self._conn.send_bytes(payload)

    def close(self) -> None:
        self._conn.close()


def _wrap_worker(worker: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(worker)
    def measured_worker(fn_ref: str, inputs: Any, conn: Any,
                        *rest: Any, **kwargs: Any) -> None:
        worker(fn_ref, inputs, _MeasuredConn(conn), *rest, **kwargs)
    return measured_worker


def _wrap_resolve(resolve: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(resolve)
    def traced_resolve(self: Any) -> Any:
        return traced(resolve(self), "harness.job")
    return traced_resolve


def _wrap_certificate(emit: Callable[..., Any]) -> Callable[..., Any]:
    timed = traced(emit, "certify.emit")

    @functools.wraps(emit)
    def measured_emit(*args: Any, **kwargs: Any) -> Any:
        cert = timed(*args, **kwargs)
        COUNTERS["certificate_bytes"] += len(
            json.dumps(cert, sort_keys=True, default=repr)
        )
        return cert
    return measured_emit


#: entry points whose wrapper also measures something other than time
SPECIAL: tuple[tuple[str, str, Callable[..., Any]], ...] = (
    ("repro.harness.runner", "_worker", _wrap_worker),
    ("repro.harness.job", "Job.resolve", _wrap_resolve),
    ("repro.ivm.materialized", "MaterializedView.certificate",
     _wrap_certificate),
)


def _resolve(module_name: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(trace_dir: str) -> None:
    """Wrap every entry point in its owner and wherever it is bound."""
    global _TRACE_DIR
    _TRACE_DIR = trace_dir
    for name in PRELOAD:
        importlib.import_module(name)
    replacements: dict[int, Any] = {}
    plans = [(m, p, functools.partial(traced, name=n)) for m, p, n in ENTRY_POINTS]
    plans += list(SPECIAL)
    for module_name, path, make in plans:
        owner, attr = _resolve(module_name, path)
        original = owner.__dict__[attr]
        wrapper = make(original)
        setattr(owner, attr, wrapper)
        replacements[id(original)] = (original, wrapper)
    # rebind functions imported by name into other repro modules
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            entry = replacements.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
    multiprocessing.util.register_after_fork(sys.modules[__name__], _after_fork)


def _after_fork(_: object) -> None:
    """In a forked worker: drop the parent's spans, dump ours at exit."""
    SPANS.clear()
    for key in COUNTERS:
        COUNTERS[key] = 0
    multiprocessing.util.Finalize(None, dump, exitpriority=100)


def dump() -> None:
    path = os.path.join(_TRACE_DIR, f"spans-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"pid": os.getpid(), "spans": SPANS,
                   "counters": COUNTERS}, fh)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    install(argv[0])
    from repro.cli import main as repro_main

    try:
        return int(repro_main(argv[1:]) or 0)
    finally:
        dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
