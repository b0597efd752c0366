"""Evaluation backends: pluggable engines behind ``fixpoint``.

A :class:`Backend` turns ``(program, instance, strategy)`` into the
least fixpoint ``FPEval(Π, I)``.  Two implementations ship:

* ``interpreted`` — the default engine: per-tuple backtracking
  homomorphism search with positional indexes, semi-naive deltas and
  SCC strata (:mod:`repro.core.evaluation`).
* ``columnar`` — compiles each rule body into an explicit hash-join
  plan over column arrays and pushes semi-naive deltas through it as
  column batches (:mod:`repro.core.columnar`).

Both compute exactly the same fixpoint — the engine-equivalence
property tests and, end to end, the PR-4 certificate checker
(``certify.replay`` replays every verdict with naive evaluation only)
enforce that — so backend choice is a performance decision, never a
semantics one.

Selection is by name: explicitly via ``fixpoint(backend=...)`` /
``DatalogQuery.evaluate(backend=...)``, or through the run mode
(``with run_mode(backend=...)``, :mod:`repro.core.runmode`; the harness
worker processes and the CLI's ``--backend`` flag use this route so
call sites need no signature change).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Protocol

from repro.core.runmode import (
    Guard,
    RunMode,
    active_guards,
    current,
    register_guard,
)

if TYPE_CHECKING:  # pragma: no cover - types only, avoids import cycles
    from repro.core.datalog import DatalogProgram
    from repro.core.instance import Instance
    from repro.core.stats import EngineStats


class Backend(Protocol):
    """One evaluation engine behind :func:`repro.core.evaluation.fixpoint`.

    ``strategy`` is one of ``"naive"`` / ``"seminaive"`` /
    ``"stratified"`` and every backend must support all three (the
    naive strategy stays the cross-backend correctness oracle).
    ``ordering`` is the join-ordering hint of the interpreted engine;
    backends that plan joins differently may ignore it.
    """

    name: str

    def fixpoint(
        self,
        program: "DatalogProgram",
        instance: "Instance",
        *,
        strategy: str = "stratified",
        stats: Optional["EngineStats"] = None,
        ordering: str = "auto",
    ) -> "Instance":
        """``FPEval(Π, I)`` including the original EDB facts."""
        ...  # pragma: no cover - protocol


class InterpretedBackend:
    """The per-tuple backtracking engine (the historical default)."""

    name = "interpreted"

    def fixpoint(
        self,
        program: "DatalogProgram",
        instance: "Instance",
        *,
        strategy: str = "stratified",
        stats: Optional["EngineStats"] = None,
        ordering: str = "auto",
    ) -> "Instance":
        from repro.core import evaluation

        if strategy == "stratified":
            return evaluation.stratified_fixpoint(
                program, instance, stats, ordering
            )
        if strategy == "seminaive":
            return evaluation.seminaive_fixpoint(
                program, instance, stats, ordering
            )
        if strategy == "naive":
            return evaluation.naive_fixpoint(
                program, instance, stats, ordering
            )
        raise ValueError(f"unknown strategy {strategy!r}")


class ColumnarBackend:
    """Hash-join plans over column arrays; no backtracking search."""

    name = "columnar"

    def fixpoint(
        self,
        program: "DatalogProgram",
        instance: "Instance",
        *,
        strategy: str = "stratified",
        stats: Optional["EngineStats"] = None,
        ordering: str = "auto",
    ) -> "Instance":
        from repro.core.columnar import columnar_fixpoint

        return columnar_fixpoint(
            program, instance, strategy=strategy, stats=stats
        )


@register_guard
class BackendGuard(Guard):
    """Records every ``auto`` backend decision and why it was made.

    Installed whenever the run mode's backend is ``auto``; its summary
    (``resolutions``: ``{"backend", "volume", "threshold"}`` dicts,
    oldest first) lets a manifest say not just *what* ran but *why*.
    It audits no claim, so it never records a violation.
    """

    name = "backend"
    label = "auto backend"
    claim = "resolved by the predicted join volume"
    count = ("checks", "picks")

    def __init__(self) -> None:
        super().__init__()
        self.resolutions: list[dict[str, object]] = []

    @classmethod
    def enabled(cls, mode: RunMode) -> bool:
        return mode.backend == "auto"

    def summary(self) -> dict[str, Any]:
        return {**super().summary(), "resolutions": list(self.resolutions)}


class AutoBackend:
    """Cost-model-driven backend choice, one decision per fixpoint.

    The static cost analysis (:mod:`repro.analysis.cost`) predicts the
    total join volume — the sum of every rule's intermediate-tuple
    bound under the instance's measured parameters.  Small volumes stay
    on the interpreted engine (per-tuple search with no plan-build
    overhead); volumes at or above ``threshold`` go columnar, where
    batch probes amortize the hash-table builds.  Every decision is
    recorded by the installed :class:`BackendGuard` and counted into
    ``EngineStats.auto_backend_*``.
    """

    name = "auto"

    #: predicted join volume at which the columnar engine starts to win;
    #: calibrated on the BENCH_columnar goal-bound chain (volume ~15k,
    #: clearly columnar) vs the evidence suite's paper-sized instances
    #: (volumes in the tens to hundreds, clearly interpreted)
    DEFAULT_THRESHOLD = 4096

    def __init__(self, threshold: int = DEFAULT_THRESHOLD) -> None:
        self.threshold = threshold

    def choose(
        self,
        program: "DatalogProgram",
        instance: "Instance",
        stats: Optional["EngineStats"] = None,
    ) -> str:
        """The concrete engine for ``program`` on ``instance``."""
        from repro.analysis.cost import predicted_join_volume
        from repro.core import stats as _stats

        with _stats.suspended():
            volume = predicted_join_volume(program, instance)
        chosen = "columnar" if volume >= self.threshold else "interpreted"
        for guard in active_guards():
            if isinstance(guard, BackendGuard):
                guard.checks += 1
                guard.resolutions.append({
                    "backend": chosen,
                    "volume": volume,
                    "threshold": self.threshold,
                })
        collector = stats if stats is not None else _stats.active()
        if collector is not None:
            if chosen == "columnar":
                collector.auto_backend_columnar += 1
            else:
                collector.auto_backend_interpreted += 1
        return chosen

    def fixpoint(
        self,
        program: "DatalogProgram",
        instance: "Instance",
        *,
        strategy: str = "stratified",
        stats: Optional["EngineStats"] = None,
        ordering: str = "auto",
    ) -> "Instance":
        return get_backend(self.choose(program, instance, stats)).fixpoint(
            program,
            instance,
            strategy=strategy,
            stats=stats,
            ordering=ordering,
        )


_BACKENDS: dict[str, Backend] = {
    "interpreted": InterpretedBackend(),
    "columnar": ColumnarBackend(),
    "auto": AutoBackend(),
}


def backend_names() -> tuple[str, ...]:
    """Registered backend names, default first (CLI ``choices``)."""
    names = sorted(_BACKENDS)
    names.remove("interpreted")
    return ("interpreted", *names)


def register_backend(backend: Backend) -> None:
    """Add (or replace) a backend under ``backend.name``."""
    _BACKENDS[backend.name] = backend


def get_backend(name: str) -> Backend:
    """The backend registered as ``name``; loud on unknown names."""
    try:
        return _BACKENDS[name]
    except KeyError:
        known = ", ".join(backend_names())
        raise ValueError(
            f"unknown backend {name!r} (known: {known})"
        ) from None


def resolve_backend(name: Optional[str] = None) -> Backend:
    """``name`` if given, else the run mode's, as a :class:`Backend`."""
    return get_backend(name if name is not None else current().backend)
