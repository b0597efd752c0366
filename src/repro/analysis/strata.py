"""The stratum-analysis core shared by the cost, maintain and shard analyses.

All three (:mod:`repro.analysis.cost`, :mod:`repro.analysis.maintain`,
:mod:`repro.analysis.shard`) are abstract interpretations over the same
SCC condensation.  What they have in common lives here once: the
instance-free :class:`ProgramWalk`, the one :class:`CostParameters`
resolution, the :class:`StratumReport` base, the :class:`Record`
dataclass-to-JSON conversion, the :func:`fmt_bound` text rendering,
saturating arithmetic capped at :data:`BOUND_CAP`, and
:data:`ANALYSIS_RULE_LIMIT`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property
from typing import (
    TYPE_CHECKING, Any, Generic, Iterable, Mapping, Optional, Protocol, TypeVar,
)

from repro.analysis.dependency import DependencyGraph
from repro.core.datalog import DatalogProgram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.semantics import BoundednessReport
    from repro.core.instance import Instance

#: saturation ceiling for all bound arithmetic; larger-than-real is
#: always sound, so products/powers clamp here instead of overflowing
BOUND_CAP = 10**15

#: assumed per-relation EDB size when no instance is supplied
DEFAULT_EDB_SIZE = 16

#: the static analyses step aside above this many rules: generated
#: mega-programs (the Thm 8 witness program has ~2k rules) pay more for
#: the analysis than for the run it plans.
#: Explicit ``optimize_program`` calls are not limited: the caller asked.
ANALYSIS_RULE_LIMIT = 200


def sat_mul(a: int, b: int) -> int:
    out = a * b
    return out if out < BOUND_CAP else BOUND_CAP


def sat_add(a: int, b: int) -> int:
    out = a + b
    return out if out < BOUND_CAP else BOUND_CAP


def sat_sum(values: Iterable[int]) -> int:
    out = 0
    for value in values:
        out = sat_add(out, value)
    return out


def sat_pow(base: int, exp: int) -> int:
    out = 1
    for _ in range(exp):
        out = sat_mul(out, base)
    return out


def fmt_bound(bound: int) -> str:
    """A bound as text: ``saturated`` at :data:`BOUND_CAP`, else the
    number.  JSON always carries the integer itself."""
    return "saturated" if bound >= BOUND_CAP else str(bound)


def _program_constants(program: DatalogProgram) -> set[object]:
    out: set[object] = set()
    for rule in program.rules:
        for atom in (rule.head, *rule.body):
            out |= atom.constants()
    return out


def as_json(value: Any) -> Any:
    """Dataclasses to dicts, tuples to lists, mappings to dicts —
    recursively; everything else as is."""
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: as_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return [as_json(item) for item in value]
    if isinstance(value, Mapping):
        return {key: as_json(item) for key, item in value.items()}
    return value


class Record:
    """Mixin for the leaf report dataclasses: every field, JSON-ready."""

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = as_json(self)
        return out


@dataclass(frozen=True)
class CostParameters:
    """The inputs the abstract interpretations run against.

    ``measured`` parameters come from a concrete instance (exact EDB
    sizes, exact active-domain width); ``assumed`` parameters model
    every EDB relation at :data:`DEFAULT_EDB_SIZE` rows for purely
    static analysis (lint, scheduling) where no instance exists.
    """

    edb_sizes: Mapping[str, int]
    idb_seeds: Mapping[str, int]
    adom: int
    default_edb_size: int
    assumed: bool

    @staticmethod
    def resolve(
        program: DatalogProgram,
        instance: Optional["Instance"] = None,
        parameters: Optional["CostParameters"] = None,
    ) -> "CostParameters":
        """Explicit ``parameters``, else measured from ``instance``,
        else assumed — the one resolution every report uses."""
        if parameters is not None:
            return parameters
        if instance is not None:
            return CostParameters.from_instance(program, instance)
        return CostParameters.assumed_for(program)

    @staticmethod
    def from_instance(
        program: DatalogProgram, instance: "Instance"
    ) -> "CostParameters":
        """Exact parameters for one concrete instance."""
        idb = program.idb_predicates()
        edb_sizes: dict[str, int] = {}
        idb_seeds: dict[str, int] = {}
        for pred in instance.predicates():
            if pred in idb:
                idb_seeds[pred] = instance.size(pred)
            else:
                edb_sizes[pred] = instance.size(pred)
        adom = len(
            set(instance.active_domain()) | _program_constants(program)
        )
        return CostParameters(
            edb_sizes=edb_sizes,
            idb_seeds=idb_seeds,
            adom=max(1, adom),
            default_edb_size=0,
            assumed=False,
        )

    @staticmethod
    def assumed_for(
        program: DatalogProgram, edb_size: int = DEFAULT_EDB_SIZE
    ) -> "CostParameters":
        """Instance-free parameters: every EDB at ``edb_size`` rows.

        The derived active-domain width is itself a sound consequence
        of the assumption: ``edb_size`` facts of arity ``k`` introduce
        at most ``edb_size * k`` values, plus the program's constants.
        """
        adom = len(_program_constants(program))
        sizes: dict[str, int] = {}
        for pred in sorted(program.edb_predicates()):
            arity = program.arity_of(pred)
            sizes[pred] = edb_size
            adom = sat_add(adom, sat_mul(edb_size, arity))
        return CostParameters(
            edb_sizes=sizes,
            idb_seeds={},
            adom=max(1, adom),
            default_edb_size=edb_size,
            assumed=True,
        )


class ProgramWalk:
    """The instance-free facts of one ``(program, goal)``, computed once:
    the dependency graph, the within-limit verdict and the rules
    boundedness peeling proves vacuous.  One walk serves any number of
    reports — lint's semantic, cost, maintain and shard reports share
    one, and a materialized view keeps its walk across every round.
    """

    def __init__(
        self,
        program: DatalogProgram,
        goal: Optional[str] = None,
        dependency: Optional[DependencyGraph] = None,
    ) -> None:
        self.program = program
        self.goal = goal
        self.dependency = (
            dependency if dependency is not None else DependencyGraph(program)
        )
        self.within_limit = (
            bool(program.rules) and len(program.rules) <= ANALYSIS_RULE_LIMIT
        )

    @cached_property
    def boundedness(self) -> "BoundednessReport":
        """The boundedness report (the goal's UCQ unfolding included)."""
        from repro.analysis.semantics import boundedness_report

        return boundedness_report(self.program, self.goal, self.dependency)

    @cached_property
    def vacuous(self) -> frozenset[int]:
        """Original indices of the rules boundedness peeling drops
        (empty above the rule limit: the peeling is not run)."""
        if not self.within_limit:
            return frozenset()
        return frozenset(pair[0] for pair in self.boundedness.vacuous_rules)

    @cached_property
    def peeled(
        self,
    ) -> tuple[DatalogProgram, tuple[int, ...], DependencyGraph]:
        """The program without its vacuous rules, the original indices
        of the kept rules, and the kept program's dependency graph."""
        if not self.vacuous:
            return (
                self.program,
                tuple(range(len(self.program.rules))),
                self.dependency,
            )
        kept = tuple(
            i for i in range(len(self.program.rules)) if i not in self.vacuous
        )
        program = DatalogProgram(self.program.rules[i] for i in kept)
        return program, kept, DependencyGraph(program)


class _Stratum(Protocol):
    @property
    def predicates(self) -> tuple[str, ...]: ...


S = TypeVar("S", bound=_Stratum)


@dataclass(frozen=True)
class StratumReport(Generic[S]):
    """Base of the per-stratum reports (maintain, shard)."""

    parameters: CostParameters
    strata: tuple[S, ...]

    def plan_of(self, pred: str) -> Optional[S]:
        for stratum in self.strata:
            if pred in stratum.predicates:
                return stratum
        return None

    def per_predicate(self, attribute: str) -> dict[str, Any]:
        """``pred -> stratum.<attribute>`` over every IDB predicate."""
        return {
            pred: getattr(stratum, attribute)
            for stratum in self.strata
            for pred in stratum.predicates
        }
