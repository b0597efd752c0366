"""The ``serve`` and ``serve-certified`` workloads.

A run is a fixed number of segments, about ``--seconds`` worth.  Each
segment starts a fresh ``repro serve`` process on loopback TCP, opens
two client connections and creates one session per client concurrently
(set-up ends when both sessions exist), then drives a fixed seeded op
stream per client, closed loop: a client sends its next request only
after the previous response arrived.
After the stream, outside the timed region, each session's ``Reach``
and ``Goal`` rows are compared with a from-scratch ``fixpoint`` of the
base the client tracked, and the server is shut down.
"""

from __future__ import annotations

import json
import selectors
import socket
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Callable, Optional

import checks
import gen
from common import (
    Tally,
    import_repro,
    kill_group,
    metric,
    percentile,
    reap,
    scratch_dir,
    spawn,
)
import layers

CLIENTS = 2
MIN_SEGMENTS = 3
READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0
SHUTDOWN_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Profile:
    certified: bool
    components: int      # disjoint 15-node components in each session base
    ops_per_client: int  # op stream length per client per segment
    segment_s: float     # about how long one segment takes at this commit

    def segments(self, seconds: float) -> int:
        """Segments in a run of ``seconds``: fixed by the arguments, not
        the clock, so that every run does the same work."""
        return max(MIN_SEGMENTS, round(seconds / self.segment_s))


PROFILES = {
    "serve": Profile(certified=False, components=10, ops_per_client=600,
                     segment_s=5.0),
    "serve-certified": Profile(certified=True, components=1,
                               ops_per_client=60, segment_s=2.5),
}


class Server:
    """A ``repro serve`` process on an ephemeral loopback port."""

    def __init__(self, trace_dir: Optional[Path] = None) -> None:
        args = ["serve", "--port", "0", "--timeout", str(REQUEST_TIMEOUT_S)]
        if trace_dir is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            shim = Path(__file__).with_name("trace_shim.py")
            command = [sys.executable, str(shim), str(trace_dir), *args]
        self.proc = spawn(command)
        try:
            self.address = self._await_listening()
        except BaseException:
            self.kill()
            raise

    def _await_listening(self) -> tuple[str, int]:
        assert self.proc.stdout is not None
        deadline = time.monotonic() + READY_TIMEOUT_S
        seen: list[str] = []
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not selector.select(timeout=deadline - time.monotonic()):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    break
                seen.append(line)
                if "listening on" in line:
                    host, _, port = line.rsplit(" ", 1)[1].strip().rpartition(":")
                    return host, int(port)
        raise RuntimeError(f"repro serve did not start: {''.join(seen)[-500:]}")

    def kill(self) -> float:
        kill_group(self.proc)
        return self.wait()

    def wait(self) -> float:
        """Wait for exit (killing after a grace period); peak RSS in MiB."""
        watchdog = threading.Timer(SHUTDOWN_TIMEOUT_S, kill_group,
                                   args=(self.proc,))
        watchdog.start()
        try:
            return reap(self.proc)
        finally:
            watchdog.cancel()
            if self.proc.stdout is not None:
                self.proc.stdout.close()


class Client:
    """One closed-loop JSON-lines connection."""

    def __init__(self, address: tuple[str, int]) -> None:
        self.sock = socket.create_connection(address, timeout=REQUEST_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def call(self, request: dict[str, Any]) -> tuple[dict[str, Any], float]:
        data = json.dumps(request).encode("utf-8") + b"\n"
        start = time.perf_counter()
        self.sock.sendall(data)
        line = self.reader.readline()
        latency = time.perf_counter() - start
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line), latency

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _in_parallel(fn: Callable[[int], Any]) -> list[Any]:
    """Run ``fn(client)`` for every client on its own thread."""
    results: list[Any] = [None] * CLIENTS
    errors: list[BaseException] = []

    def target(index: int) -> None:
        try:
            results[index] = fn(index)
        except BaseException as exc:  # re-raised below, in the caller
            errors.append(exc)

    threads = [threading.Thread(target=target, args=(i,)) for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


def _facts(pred: str, rows: list[tuple[int, ...]]) -> list[list[Any]]:
    return [[pred, list(row)] for row in rows]


@dataclass
class Segment:
    setup_s: float
    stream_s: float
    window: tuple[float, float]    # perf_counter: spawn .. last response
    stream_start: float
    ops: int
    peak_rss_mb: float
    latencies: dict[str, list[float]] = field(default_factory=dict)
    engine: dict[str, int] = field(default_factory=dict)


def run_segment(profile: Profile, seed: int, index: int, tally: Tally,
                trace_dir: Optional[Path] = None) -> Segment:
    inputs = [
        gen.session_inputs(seed, index, client,
                           components=profile.components,
                           ops=profile.ops_per_client)
        for client in range(CLIENTS)
    ]
    begin = time.perf_counter()
    server = Server(trace_dir)
    clients: list[Client] = []
    finished = False
    try:
        clients = [Client(server.address) for _ in range(CLIENTS)]

        def create(c: int) -> dict[str, Any]:
            facts = _facts("E", inputs[c].base_edges) + _facts(
                "S", [(s,) for s in inputs[c].sources])
            response, _ = clients[c].call({
                "op": "create", "session": f"s{c}", "program": gen.PROGRAM,
                "facts": facts, "certify": profile.certified,
            })
            return response

        created = _in_parallel(create)
        ready = time.perf_counter()

        def drive(c: int) -> list[tuple[str, float, dict[str, Any]]]:
            out = []
            for op in inputs[c].ops:
                request: dict[str, Any] = {"op": op.kind, "session": f"s{c}"}
                if op.edge is None:
                    request["pred"] = "Goal"
                else:
                    request["facts"] = _facts("E", [op.edge])
                response, latency = clients[c].call(request)
                out.append((op.kind, latency, response))
            return out

        streams = _in_parallel(drive)
        end = time.perf_counter()

        # outside the timed region: final state, counters, shutdown
        finals = [
            {pred: clients[c].call({"op": "query", "session": f"s{c}",
                                    "pred": pred})[0]
             for pred in ("Reach", "Goal")}
            for c in range(CLIENTS)
        ]
        stats = [clients[c].call({"op": "stats", "session": f"s{c}"})[0]
                 for c in range(CLIENTS)]
        clients[0].call({"op": "shutdown"})
        finished = True
    finally:
        for client in clients:
            client.close()
        peak_rss_mb = server.wait() if finished else server.kill()
    tally.check(server.proc.returncode == 0,
                f"repro serve exited {server.proc.returncode}")

    segment = Segment(
        setup_s=ready - begin, stream_s=end - ready, window=(begin, end),
        stream_start=ready, ops=sum(len(s) for s in streams),
        peak_rss_mb=peak_rss_mb,
        latencies={"insert": [], "retract": [], "query": []},
    )
    for c in range(CLIENTS):
        checks.check_response(created[c], "create", False, tally)
        for kind, latency, response in streams[c]:
            segment.latencies[kind].append(latency)
            checks.check_response(response, kind, profile.certified, tally)
        _check_final_state(inputs[c], finals[c], tally)
        checks.check_serve_mode(created[c], stats[c], profile.certified, tally)
        for key, value in stats[c].get("engine", {}).items():
            if isinstance(value, int):
                segment.engine[key] = segment.engine.get(key, 0) + value
    return segment


def _check_final_state(inputs: gen.SessionInputs,
                       final: dict[str, dict[str, Any]], tally: Tally) -> None:
    import_repro()
    from repro import Instance, fixpoint, parse_program

    expected = fixpoint(parse_program(gen.PROGRAM), Instance.from_tuples({
        "E": sorted(inputs.final_edges),
        "S": [(s,) for s in inputs.sources],
    }))
    for pred, response in final.items():
        checks.check_response(response, "query", False, tally)
        checks.check_rows(pred, response.get("rows", []),
                          expected.tuples(pred), tally)


def _updates(segments: list[Segment]) -> list[float]:
    return [lat for s in segments for kind in ("insert", "retract")
            for lat in s.latencies[kind]]


def _queries(segments: list[Segment]) -> list[float]:
    return [lat for s in segments for lat in s.latencies["query"]]


def latency_values(segments: list[Segment]) -> dict[str, float]:
    updates, queries = _updates(segments), _queries(segments)
    return {
        "update_p50_ms": percentile(updates, 50) * 1000.0,
        "update_p90_ms": percentile(updates, 90) * 1000.0,
        "query_p50_ms": percentile(queries, 50) * 1000.0,
    }


def run(workload: str, seed: int, seconds: float) -> tuple[dict[str, Any], Tally]:
    """Untraced segments: the end-to-end metrics."""
    profile = PROFILES[workload]
    tally = Tally()
    segments = [run_segment(profile, seed, index, tally)
                for index in range(profile.segments(seconds))]
    stream_s = sum(s.stream_s for s in segments)
    metrics = {
        "setup_s": metric(median(s.setup_s for s in segments), "s"),
        # segments differ in their inputs: totals average that out
        "suite_s": metric(stream_s / len(segments), "s"),
        "ops_per_s": metric(sum(s.ops for s in segments) / stream_s, "1/s"),
        "peak_rss_mb": metric(median(s.peak_rss_mb for s in segments), "MB"),
    }
    latencies = latency_values(segments)
    notes = {
        "segments": len(segments),
        "setup_s per segment": " ".join(f"{s.setup_s:.3f}" for s in segments),
        "stream_s per segment": " ".join(f"{s.stream_s:.3f}" for s in segments),
        **{name: f"{value:.3f} ms" for name, value in latencies.items()},
        "update samples": len(_updates(segments)),
        "query samples": len(_queries(segments)),
        "error_rate": f"{tally.error_rate:.4f} "
                      f"({tally.failed}/{tally.attempted})",
    }
    return {"metrics": metrics, "notes": notes}, tally


def run_traced(workload: str, seed: int, seconds: float) -> tuple[dict[str, Any], Tally]:
    """The same segment untraced and traced: the per-layer metrics."""
    profile = PROFILES[workload]
    tally = Tally()
    # two untraced segments give p90 its 100 update samples on both profiles
    plain = [run_segment(profile, seed, index, tally) for index in range(2)]
    trace_dir = scratch_dir("serve-trace")
    traced = run_segment(profile, seed, 0, tally, trace_dir)
    trace = layers.load_trace(trace_dir)
    stream_handles = {
        span.id for span in trace.named("serve.handle")
        if span.start >= traced.stream_start
    }
    covered = sum(
        span.duration for span in trace.spans if span.parent in stream_handles
    )
    client_total = sum(sum(v) for v in traced.latencies.values())
    values = layers.layer_metrics(
        trace,
        engine=traced.engine,
        window=traced.window,
        main_pid=trace.pid_of("serve.handle"),
        overhead_s=(traced.window[1] - traced.window[0])
        - (plain[0].window[1] - plain[0].window[0]),
        extra={
            "serve.handle_self_ms":
                1000.0 * (client_total - covered) / max(1, traced.ops),
            "certify.certificate_bytes":
                float(trace.counters.get("certificate_bytes", 0)),
            **latency_values(plain),
            "error_rate": tally.error_rate,
        },
    )
    return {
        "metrics": layers.as_metrics(values),
        "table": layers.render_table(trace),
    }, tally

