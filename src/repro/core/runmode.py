"""The run mode and the run-time audit protocol, carried per context.

One frozen :class:`RunMode` says *how* the engine evaluates: which
backend evaluates, how many worker processes a large fixpoint is sharded
across, and which audits (:class:`Guard` subclasses, by registered name)
check the run against the static analyses.  It lives in a
:class:`contextvars.ContextVar`, so every thread and every ``asyncio``
task sees its own mode: callers change it for a block with
:func:`run_mode` and read it with :func:`current`::

    with run_mode(backend="columnar", checks=("cost",)):
        fixpoint(program, instance)      # columnar, cost-audited
        summary = guards()["cost"].summary()

A guard is notified at three engine seams — after every
:func:`repro.core.evaluation.fixpoint` (:meth:`Guard.on_fixpoint`),
after every :meth:`repro.ivm.MaterializedView.apply` round
(:meth:`Guard.on_round`) and after every communication-free stratum of
the sharded executor (:meth:`Guard.on_stratum`) — and reports a JSON-
ready :meth:`Guard.summary` whose ``violations`` list makes an evidence
run red.  A new audit is one :func:`register_guard` subclass.
"""

from __future__ import annotations

import contextvars
import importlib
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Any,
    ClassVar,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    TypeVar,
)

if TYPE_CHECKING:  # pragma: no cover - types only, avoids import cycles
    from repro.analysis.shard import ShardStratumPlan
    from repro.core.datalog import DatalogProgram
    from repro.core.instance import Instance
    from repro.core.stats import EngineStats
    from repro.ivm.materialized import MaintenanceRound, MaterializedView


#: the evaluation engines, default first: every ``--backend`` choice
#: list, run-mode validation and serve ``create`` validation read this
BACKENDS = ("interpreted", "columnar")


def check_backend(name: str) -> str:
    """``name`` if it is one of :data:`BACKENDS`; loud otherwise."""
    if name not in BACKENDS:
        raise ValueError(
            f"unknown backend {name!r} (known: {', '.join(BACKENDS)})"
        )
    return name


@dataclass(frozen=True)
class RunMode:
    """Evaluation settings that change what a run measures, not what
    it computes (every mode yields the same fixpoints)."""

    backend: str = "interpreted"
    shards: int = 0
    checks: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # canonical form: equal modes compare, hash and key caches equal
        object.__setattr__(self, "shards", max(0, int(self.shards)))
        object.__setattr__(self, "checks", tuple(sorted(set(self.checks))))

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form (cache keys); ``run_mode(**as_dict())``
        re-enters the mode."""
        return {
            "backend": self.backend,
            "shards": self.shards,
            "checks": list(self.checks),
        }


class Guard:
    """A run-time audit of one certified static analysis.

    Subclasses set :attr:`name` (the key in :attr:`RunMode.checks`, in
    the registry and in manifests), override the hooks they audit, and
    append one dict per unsound prediction to :attr:`violations`.
    :attr:`flag` / :attr:`help` expose the audit as an ``evidence run``
    flag; :attr:`label`, :attr:`claim` and :attr:`count` shape its lines
    in the rendered run report.
    """

    name: ClassVar[str] = ""
    flag: ClassVar[Optional[str]] = None
    help: ClassVar[str] = ""
    #: report summary line: "<label>: ok/checked job(s) <claim>"; the
    #: claim is formatted with the manifest (e.g. ``{shards}``)
    label: ClassVar[str] = ""
    claim: ClassVar[str] = "without violations"
    #: per-job report flag: (summary key, unit) of the audited work
    count: ClassVar[tuple[str, str]] = ("checks", "checks")

    def __init__(self) -> None:
        self.checks = 0
        self.violations: list[dict[str, object]] = []

    def on_fixpoint(
        self,
        program: "DatalogProgram",
        instance: "Instance",
        result: "Instance",
        stats: Optional["EngineStats"],
    ) -> None:
        """After every fixpoint, with the program actually evaluated."""

    def on_round(
        self,
        view: "MaterializedView",
        round_: "MaintenanceRound",
        update_size: int,
        base_before: Optional["Instance"],
    ) -> None:
        """After every incremental maintenance round."""

    def on_stratum(
        self,
        plan: "ShardStratumPlan",
        shards: int,
        per_worker: Mapping[int, Iterable[tuple[str, tuple[object, ...]]]],
    ) -> None:
        """After every sharded stratum, with what each worker derived."""

    def summary(self) -> dict[str, Any]:
        """JSON-ready tally; must carry a ``violations`` list."""
        return {"checks": self.checks, "violations": list(self.violations)}

    @classmethod
    def render_violation(cls, violation: Mapping[str, Any]) -> str:
        """One report line for one violation, tagged with its
        ``audit`` as in a manifest's ``violations`` list."""
        details = ", ".join(
            f"{key} {value}" for key, value in sorted(violation.items())
            if key not in ("audit", "job")
        )
        return f"{violation.get('audit', cls.name)} VIOLATED: {details}"


G = TypeVar("G", bound=type[Guard])

#: every registered audit, by name
GUARD_TYPES: dict[str, type[Guard]] = {}

#: modules whose import registers the built-in audits
_BUILTIN_GUARDS = (
    "repro.analysis.cost",
    "repro.analysis.maintain",
    "repro.analysis.shard",
)


def register_guard(cls: G) -> G:
    """Class decorator: make ``cls`` available under ``cls.name``."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} needs a non-empty name")
    GUARD_TYPES[cls.name] = cls
    return cls


def guard_types() -> Mapping[str, type[Guard]]:
    """The audit registry, built-ins loaded."""
    for module in _BUILTIN_GUARDS:
        importlib.import_module(module)
    return GUARD_TYPES


_MODE: contextvars.ContextVar[RunMode] = contextvars.ContextVar(
    "repro_run_mode", default=RunMode()
)
_GUARDS: contextvars.ContextVar[tuple[Guard, ...]] = contextvars.ContextVar(
    "repro_guards", default=()
)


def current() -> RunMode:
    """The run mode of the calling context."""
    return _MODE.get()


def active_guards() -> tuple[Guard, ...]:
    """The guards installed in the calling context (engine hook sites)."""
    return _GUARDS.get()


def guards() -> dict[str, Guard]:
    """The installed guards by name (for reading their summaries)."""
    return {guard.name: guard for guard in _GUARDS.get()}


@contextmanager
def run_mode(**changes: Any) -> Iterator[RunMode]:
    """Evaluate the block under the current mode with ``changes``.

    Rejects unknown backends and audit names up front.  A guard that
    stays enabled keeps its instance (and tally) from the enclosing
    block; a newly enabled one starts fresh.
    """
    mode = replace(current(), **changes)
    check_backend(mode.backend)
    types = guard_types()
    unknown = sorted(set(mode.checks) - set(types))
    if unknown:
        raise ValueError(
            f"unknown check(s) {', '.join(map(repr, unknown))} "
            f"(known: {', '.join(sorted(types))})"
        )
    installed = guards()
    active = tuple(
        installed[name] if name in installed else cls()
        for name, cls in types.items()
        if name in mode.checks
    )
    mode_token = _MODE.set(mode)
    guard_token = _GUARDS.set(active)
    try:
        yield mode
    finally:
        _GUARDS.reset(guard_token)
        _MODE.reset(mode_token)
