"""Certified static cost & cardinality analysis.

An abstract interpretation over the SCC condensation
(:class:`repro.analysis.dependency.DependencyGraph`) that computes, per
predicate, a *sound* worst-case cardinality bound — polynomial in the
EDB sizes and the active-domain width — and, per rule, a join cost
bound with per-atom provenance.

Soundness argument (the invariant ``evidence run --check-cost``
re-checks empirically on every fixpoint):

* every value in a derived fact comes from the instance's active
  domain or from a constant written in the program, so ``adom**arity``
  bounds any IDB relation outright;
* an atom with ``k`` *distinct* variables matches at most
  ``min(|R|, adom**k)`` rows — repeated variables and constants only
  shrink the match set, never grow it;
* a non-recursive predicate's size is at most the sum over its rules
  of ``min(prod of atom bounds, adom**distinct_head_vars)`` plus any
  IDB facts seeded directly in the instance;
* a recursive predicate is bounded by the head shapes of its rules
  (each rule can only derive facts matching its head pattern), capped
  at ``adom**arity`` — sound regardless of how many rounds recursion
  runs;
* dropping the ``vacuous_rules`` that
  :func:`repro.analysis.semantics.boundedness_report` proves subsumed
  preserves the fixpoint, so bounds computed on the peeled program are
  sound for the original.

All arithmetic saturates at :data:`~repro.analysis.strata.BOUND_CAP`
(saturating *up* keeps
every bound sound).  The per-rule join costs are sound bounds on the
number of intermediate tuples a left-to-right join in the estimated
order can produce; they drive the optimizer's join reordering and
the harness scheduler, but only the
per-predicate cardinality bounds are certified by ``--check-cost``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Optional

from repro.core.atoms import Atom
from repro.core.datalog import DatalogProgram, Rule
from repro.core.runmode import Guard, register_guard
from repro.core.terms import Variable

from repro.analysis.strata import (
    ANALYSIS_RULE_LIMIT,
    CostParameters,
    ProgramWalk,
    Record,
    as_json,
    fmt_bound,
    sat_add,
    sat_mul,
    sat_pow,
    sat_sum,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.instance import Instance
    from repro.core.stats import EngineStats


@dataclass(frozen=True)
class PredicateBound(Record):
    """A sound worst-case cardinality bound for one predicate."""

    pred: str
    arity: int
    bound: int
    recursive: bool
    basis: str
    rule_indices: tuple[int, ...] = ()


@dataclass(frozen=True)
class AtomCost(Record):
    """One body atom's contribution in the estimated join order."""

    atom: str
    pred: str
    bound: int
    distinct_vars: int
    bindable: bool
    cartesian: bool
    running: int


@dataclass(frozen=True)
class RuleCost(Record):
    """Join cost bound for one rule, with per-atom provenance."""

    rule_index: int
    head: str
    atoms: tuple[AtomCost, ...]
    output_bound: int
    join_cost: int
    dominant: Optional[AtomCost]
    cartesian: bool


@dataclass(frozen=True)
class CostReport:
    """The full result of the abstract interpretation."""

    parameters: CostParameters
    bounds: Mapping[str, PredicateBound]
    rules: tuple[RuleCost, ...]
    total_bound: int
    total_join_cost: int
    peeled_rules: tuple[int, ...] = ()
    unreachable: frozenset[str] = field(default_factory=frozenset)

    def bound_of(self, pred: str) -> Optional[PredicateBound]:
        return self.bounds.get(pred)

    def as_dict(self) -> dict[str, object]:
        return {
            "adom": self.parameters.adom,
            "assumed": self.parameters.assumed,
            "bounds": as_json(self.bounds),
            "rules": as_json(self.rules),
            "total_bound": self.total_bound,
            "total_join_cost": self.total_join_cost,
            "peeled_rules": list(self.peeled_rules),
            "unreachable": sorted(self.unreachable),
        }

    def render_text(self) -> str:
        mode = "assumed" if self.parameters.assumed else "measured"
        lines = [
            f"cost analysis ({mode} parameters, adom {self.parameters.adom})",
            f"  total predicted facts <= {fmt_bound(self.total_bound)}",
            "  total predicted join cost <= "
            f"{fmt_bound(self.total_join_cost)}",
        ]
        if self.peeled_rules:
            dropped = ", ".join(str(i) for i in self.peeled_rules)
            lines.append(f"  boundedness peeling dropped rules: {dropped}")
        lines.append("  predicate bounds:")
        for pred in sorted(self.bounds):
            pb = self.bounds[pred]
            kind = "recursive" if pb.recursive else "nonrecursive"
            lines.append(
                f"    {pred}/{pb.arity} <= {fmt_bound(pb.bound)}  "
                f"[{kind}; {pb.basis}]"
            )
        for rc in self.rules:
            lines.append(
                f"  rule {rc.rule_index} ({rc.head}): output <= "
                f"{fmt_bound(rc.output_bound)}, join cost <= "
                f"{fmt_bound(rc.join_cost)}"
                + (" [cartesian]" if rc.cartesian else "")
            )
            for ac in rc.atoms:
                marks = []
                if not ac.bindable:
                    marks.append("unbindable")
                if ac.cartesian:
                    marks.append("cartesian")
                note = f"  [{', '.join(marks)}]" if marks else ""
                lines.append(
                    f"      {ac.atom}: <= {fmt_bound(ac.bound)} rows, "
                    f"running {fmt_bound(ac.running)}{note}"
                )
        return "\n".join(lines)


def atom_match_bound(
    atom: Atom,
    bound_vars: frozenset[Variable] | set[Variable],
    sizes: Mapping[str, int],
    adom: int,
    default_size: int,
) -> int:
    """Max rows of ``atom`` matching any fixed binding of ``bound_vars``.

    Constants, repeated variables and already-bound variables all
    reduce the number of *distinct free* variables, which caps the
    match set at ``adom**free`` independently of the relation size.
    """
    size = sizes.get(atom.pred, default_size)
    free = len(atom.variables() - set(bound_vars))
    return min(max(size, 0), sat_pow(adom, free))


def _rule_output_bound(
    rule: Rule, sizes: Mapping[str, int], params: CostParameters
) -> int:
    homs = 1
    for atom in rule.body:
        homs = sat_mul(
            homs,
            atom_match_bound(
                atom, frozenset(), sizes, params.adom,
                params.default_edb_size,
            ),
        )
    return min(homs, _head_shape_bound(rule, params))


def _head_shape_bound(rule: Rule, params: CostParameters) -> int:
    return sat_pow(params.adom, len(rule.head.variables()))


def _rule_cost(
    original_index: int,
    rule: Rule,
    sizes: Mapping[str, int],
    params: CostParameters,
) -> RuleCost:
    """Greedy connected-first join order with saturating running
    products — mirrors the optimizer's reordering strategy."""
    remaining = list(rule.body)
    bound_vars: set[Variable] = set()
    atom_costs: list[AtomCost] = []
    running = 1
    join_cost = 0
    any_cartesian = False
    var_count: dict[Variable, int] = {}
    for atom in rule.body:
        for v in atom.variables():
            var_count[v] = var_count.get(v, 0) + 1
    while remaining:
        connected = [
            a
            for a in remaining
            if not bound_vars or (a.variables() & bound_vars)
        ]
        pool = connected or remaining
        cartesian_step = bool(bound_vars) and not connected
        best = min(
            pool,
            key=lambda a: (
                atom_match_bound(
                    a, bound_vars, sizes, params.adom,
                    params.default_edb_size,
                ),
                remaining.index(a),
            ),
        )
        bound = atom_match_bound(
            best, bound_vars, sizes, params.adom, params.default_edb_size
        )
        running = sat_mul(running, bound)
        join_cost = sat_add(join_cost, running)
        bindable = len(rule.body) == 1 or any(
            var_count[v] > 1 for v in best.variables()
        )
        step_cartesian = cartesian_step and bound > 1 and running > bound
        any_cartesian = any_cartesian or step_cartesian
        atom_costs.append(
            AtomCost(
                atom=repr(best),
                pred=best.pred,
                bound=bound,
                distinct_vars=len(best.variables()),
                bindable=bindable,
                cartesian=step_cartesian,
                running=running,
            )
        )
        remaining.remove(best)
        bound_vars |= best.variables()
    output = min(running, _head_shape_bound(rule, params))
    dominant = (
        max(atom_costs, key=lambda ac: ac.bound) if atom_costs else None
    )
    return RuleCost(
        rule_index=original_index,
        head=repr(rule.head),
        atoms=tuple(atom_costs),
        output_bound=output,
        join_cost=join_cost,
        dominant=dominant,
        cartesian=any_cartesian,
    )


def cost_report(
    program: DatalogProgram,
    goal: Optional[str] = None,
    instance: Optional["Instance"] = None,
    parameters: Optional[CostParameters] = None,
    walk: Optional[ProgramWalk] = None,
    peel: bool = True,
) -> CostReport:
    """Run the abstract interpretation and return every bound.

    With a ``goal``, predicates the goal cannot reach are bound by
    their instance seeds alone (goal-directed evaluation prunes their
    rules).  With an ``instance`` (or explicit ``parameters``) the
    bounds are exact-parameter; otherwise every EDB is assumed to hold
    :data:`~repro.analysis.strata.DEFAULT_EDB_SIZE` rows.  ``walk``
    shares the instance-free facts of ``(program, goal)`` across reports.
    """
    params = CostParameters.resolve(program, instance, parameters)
    if walk is None:
        walk = ProgramWalk(program, goal)

    work, kept, dep = program, tuple(range(len(program.rules))), walk.dependency
    peeled_rules: tuple[int, ...] = ()
    if peel:
        work, kept, dep = walk.peeled
        peeled_rules = tuple(sorted(walk.vacuous))

    unreachable: frozenset[str] = frozenset()
    if goal is not None and goal in dep.graph:
        unreachable = frozenset(dep.idb - dep.reachable_from(goal))

    sizes: dict[str, int] = dict(params.edb_sizes)
    bounds: dict[str, PredicateBound] = {}

    for scc in dep.sccs:
        for pred in sorted(scc.predicates):
            arity = work.arity_of(pred)
            seed = params.idb_seeds.get(pred, 0)
            cap = sat_pow(params.adom, arity)
            if pred in unreachable:
                bounds[pred] = PredicateBound(
                    pred, arity, min(seed, cap), scc.recursive,
                    "unreachable from goal: instance seeds only",
                    scc.rule_indices,
                )
                sizes[pred] = bounds[pred].bound
                continue
            pred_rules = [
                (kept[j], work.rules[j])
                for j in scc.rule_indices
                if work.rules[j].head.pred == pred
            ]
            if not scc.recursive:
                total = seed
                for _, rule in pred_rules:
                    total = sat_add(
                        total, _rule_output_bound(rule, sizes, params)
                    )
                bound = min(total, cap)
                basis = (
                    f"sum of {len(pred_rules)} rule bound(s)"
                    + (f" + {seed} seed fact(s)" if seed else "")
                )
            else:
                shape = seed
                for _, rule in pred_rules:
                    shape = sat_add(shape, _head_shape_bound(rule, params))
                bound = min(shape, cap)
                basis = (
                    f"head shapes capped at adom^{arity} = {fmt_bound(cap)}"
                )
            bounds[pred] = PredicateBound(
                pred, arity, bound, scc.recursive, basis,
                tuple(index for index, _ in pred_rules),
            )
            sizes[pred] = bound

    rules = tuple(
        _rule_cost(kept[j], rule, sizes, params)
        for j, rule in enumerate(work.rules)
    )
    return CostReport(
        parameters=params,
        bounds=bounds,
        rules=rules,
        total_bound=sat_sum(pb.bound for pb in bounds.values()),
        total_join_cost=sat_sum(rc.join_cost for rc in rules),
        peeled_rules=peeled_rules,
        unreachable=unreachable,
    )


def predicate_bounds(
    program: DatalogProgram,
    instance: Optional["Instance"] = None,
    goal: Optional[str] = None,
) -> dict[str, int]:
    """Just the ``pred -> bound`` map (optimizer-facing shortcut)."""
    report = cost_report(program, goal=goal, instance=instance)
    return {pred: pb.bound for pred, pb in report.bounds.items()}


# ----------------------------------------------------------------------
# the --check-cost guard: empirical re-validation of every bound
# ----------------------------------------------------------------------
@register_guard
class CostGuard(Guard):
    """Compares measured relation sizes against predicted bounds.

    Enabled by ``run_mode(checks=("cost",))`` (``--check-cost``) and
    fired by :func:`repro.core.evaluation.fixpoint` after every
    evaluation with the *actually executed* program.  Any measured IDB
    relation larger than its predicted bound is an unsound prediction
    and is recorded loudly (and counted into
    ``EngineStats.cost_violations``).
    """

    name = "cost"
    flag = "--check-cost"
    help = (
        "audit every fixpoint a job computes against the static "
        "cardinality bounds (repro.analysis.cost); any measured "
        "relation exceeding its predicted bound makes the run red. "
        "Part of the cache's run-mode key"
    )
    label = "cost bounds"
    claim = "within the static cardinality bounds"
    count = ("predicates", "bounds")

    def __init__(self) -> None:
        super().__init__()
        self.predicates = 0

    def on_fixpoint(
        self,
        program: DatalogProgram,
        instance: "Instance",
        result: "Instance",
        stats: Optional["EngineStats"],
    ) -> None:
        from repro.core import stats as _stats

        if not program.rules or len(program.rules) > ANALYSIS_RULE_LIMIT:
            return
        with _stats.suspended():
            report = cost_report(program, instance=instance)
        self.checks += 1
        idb = program.idb_predicates()
        checked = 0
        violated = 0
        for pred, pb in report.bounds.items():
            if pred not in idb:
                continue
            checked += 1
            measured = result.size(pred)
            if measured > pb.bound:
                violated += 1
                self.violations.append(
                    {
                        "pred": pred,
                        "measured": measured,
                        "bound": pb.bound,
                        "basis": pb.basis,
                        "recursive": pb.recursive,
                    }
                )
        self.predicates += checked
        collector = stats if stats is not None else _stats.active()
        if collector is not None:
            collector.cost_checks += 1
            collector.cost_bounds_checked += checked
            collector.cost_violations += violated

    def summary(self) -> dict[str, Any]:
        return {**super().summary(), "predicates": self.predicates}

    @classmethod
    def render_violation(cls, violation: Mapping[str, Any]) -> str:
        return (
            f"cost bound VIOLATED: {violation['pred']} measured "
            f"{violation['measured']} > bound {violation['bound']} "
            f"({violation['basis']})"
        )
