"""Fixpoint evaluation of Datalog programs (``FPEval``, §2).

Two strategies (:data:`STRATEGIES`):

* :func:`naive_fixpoint` — re-derives everything each round (kept for the
  ABL-EVAL ablation benchmark and as the correctness oracle in tests).
* :func:`stratified_fixpoint` — the production strategy: the SCC
  condensation of the predicate dependency graph (from
  :mod:`repro.analysis.dependency`) is evaluated one component at a
  time, dependencies first.  Within a component semi-naive evaluation
  runs with *only that component's* predicates delta-tracked: each
  round only considers rule instantiations using at least one *newly
  derived* fact, and rules reading already-finished components join
  against their complete relations exactly once instead of re-firing
  on every global round.

Two engines (:data:`repro.core.runmode.BACKENDS`) run both strategies:
``interpreted`` (this module: per-tuple backtracking homomorphism
search) and ``columnar`` (:mod:`repro.core.columnar`: hash-join plans
over column arrays).  :func:`engine_fixpoint` is the one dispatch
between them; :func:`fixpoint` adds the run mode, the sharded
executor and the audits around it.

Semi-naive evaluation resolves each delta rule's join plan **once** per
fixpoint call and replays it on every subsequent round (the plan is
keyed by rule and delta position; any join order is correct, so reusing
one planned against an earlier state is sound).  Pass
``stats=EngineStats()`` to count rounds, derived facts and plan-cache
traffic.

All strategies return the minimal IDB-extension of the input instance
satisfying the program, i.e. ``FPEval(Π, I)`` including the original
EDB facts.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Any, Iterator, Optional, Sequence

from repro.core import stats as _stats
from repro.core.atoms import Atom
from repro.core.datalog import DatalogProgram, Rule
from repro.core.homomorphism import (
    _bindings_for_row,
    _pattern,
    homomorphisms,
    resolve_plan,
)
from repro.core.instance import Instance
from repro.core.runmode import active_guards, check_backend, current
from repro.core.stats import EngineStats

if TYPE_CHECKING:  # pragma: no cover - types only, avoids import cycles
    from repro.analysis.dependency import SCC

#: the fixpoint strategies every engine runs; ``naive`` is the oracle
STRATEGIES = ("naive", "stratified")

#: per rule, per body atom: the empty-assignment match pattern
_Patterns = list[list[list[Any]]]

#: one step of the stratified schedule: (prelude rules, group rules,
#: group rule keys, delta-tracked predicates)
_Step = tuple[
    tuple[Rule, ...], tuple[Rule, ...], tuple[int, ...], frozenset[str]
]


def check_strategy(name: str) -> str:
    """``name`` if it is one of :data:`STRATEGIES`; loud otherwise."""
    if name not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {name!r} (known: {', '.join(STRATEGIES)})"
        )
    return name


def _rule_derivations(rule: Rule, instance: Instance) -> Iterator[Atom]:
    """All head facts derivable from ``rule`` against ``instance``."""
    if not rule.body:
        yield rule.head
        return
    # An empty body relation means no match: skip the join outright
    # (frequent in round 0, where recursive rules read their own
    # still-empty predicate).
    if any(instance.size(atom.pred) == 0 for atom in rule.body):
        return
    if len(rule.body) == 1:
        # Projection fast path: a single-atom body needs no join plan or
        # search stack, just one scan of the relation (the same direct
        # read the semi-naive delta seeding performs).
        atom = rule.body[0]
        for row in instance.matching(atom.pred, _pattern(atom, {})):
            bound = _bindings_for_row(atom, row, {})
            if bound is not None:
                yield rule.head.substitute(bound)
        return
    for hom in homomorphisms(rule.body, instance):
        yield rule.head.substitute(hom)


def naive_fixpoint(
    program: DatalogProgram,
    instance: Instance,
    stats: Optional[EngineStats] = None,
) -> Instance:
    """Round-based naive evaluation (the correctness oracle)."""
    with _stats.maybe_collecting(stats):
        collector = _stats.active()
        state = instance.copy()
        changed = True
        while changed:
            if collector is not None:
                collector.fixpoint_rounds += 1
            derived = [
                fact
                for rule in program.rules
                for fact in _rule_derivations(rule, state)
            ]
            changed = False
            for fact in derived:
                if state.add(fact):
                    changed = True
                    if collector is not None:
                        collector.facts_derived += 1
        return state


class _PlanCache:
    """Resolved join orders, keyed per (rule, delta position, strategy).

    Semi-naive rounds evaluate the *same* delta rules against a growing
    state; the ordering decision (and, for large bodies, the connected
    join order itself) is identical work each round, so it is resolved
    once and replayed.  A cached order planned against an earlier state
    remains correct — join order never affects the answer set, only the
    search cost — and the planning inputs (relation cardinalities) only
    grow monotonically during a fixpoint, which keeps the relative
    selectivities representative.
    """

    __slots__ = ("_plans", "_stats")

    def __init__(self, collector: Optional[EngineStats]) -> None:
        self._plans: dict[tuple[int, int], tuple[list[Atom], str]] = {}
        self._stats = collector

    def ordering_for(
        self, key: tuple[int, int], atoms: list[Atom], target: Instance
    ) -> tuple[list[Atom], str]:
        """The (ordered atoms, replay ordering) for a cached join."""
        plan = self._plans.get(key)
        if plan is None:
            ordered, dynamic = resolve_plan(atoms, target)
            plan = (ordered, "dynamic" if dynamic else "static")
            self._plans[key] = plan
            if self._stats is not None:
                self._stats.plan_cache_misses += 1
        elif self._stats is not None:
            self._stats.plan_cache_hits += 1
        return plan


def _delta_derivations(
    rule: Rule,
    state: Instance,
    delta: Instance,
    idb: frozenset[str] | set[str],
    rule_key: int,
    plans: _PlanCache,
    delta_patterns: list[list[Any]],
) -> Iterator[Atom]:
    """Derivations of ``rule`` using >=1 delta fact for some IDB body atom.

    For each IDB body atom position ``i`` we seed the join with the delta
    facts at that atom and match the remaining atoms against the full
    state.  This enumerates every instantiation touching the delta (a
    superset-free cover is not needed; duplicates are deduplicated by the
    caller's ``Instance.add``).
    """
    body = rule.body
    for i, atom in enumerate(body):
        if atom.pred not in idb:
            continue
        rest = body[:i] + body[i + 1:]
        pattern = delta_patterns[i]
        ordered, ordering = plans.ordering_for((rule_key, i), rest, state)
        for row in delta.matching(atom.pred, pattern):
            seed = _bindings_for_row(atom, row, {})
            if seed is None:
                continue
            for hom in homomorphisms(
                ordered, state, fixed=seed, ordering=ordering
            ):
                yield rule.head.substitute(hom)


def _seminaive_in_place(
    rules: Sequence[Rule],
    keys: Sequence[int],
    state: Instance,
    tracked: frozenset[str] | set[str],
    plans: _PlanCache,
    delta_patterns: _Patterns,
    collector: Optional[EngineStats],
    prelude: Sequence[Rule] = (),
) -> None:
    """Run the given rules to fixpoint, mutating ``state`` in place.

    ``tracked`` is the set of predicates whose facts participate in
    delta propagation: the predicates of one group of strata.  Rules
    whose bodies never read a tracked predicate fire exactly once
    (round 0 on the complete current state) and the delta loop is
    skipped entirely when no rule is recursive under ``tracked``.

    ``prelude`` rules (a dependency-ordered block of non-recursive
    rules feeding this stratum) fire exactly once at the start of round
    0, eagerly, so they do not cost a round of their own.
    """
    # Round 0: every rule fires on the current state.
    delta = Instance()
    if collector is not None:
        collector.fixpoint_rounds += 1
    for rule in prelude:
        derived = list(_rule_derivations(rule, state))
        added = 0
        for fact in derived:
            if state.add(fact):
                added += 1
        if collector is not None:
            collector.facts_derived += added
    for rule in rules:
        for fact in _rule_derivations(rule, state):
            if fact not in state:
                delta.add(fact)
    state.update(delta.facts())
    if collector is not None:
        collector.facts_derived += len(delta)

    recursive = [
        (key, rule)
        for key, rule in zip(keys, rules)
        if any(a.pred in tracked for a in rule.body)
    ]
    while len(delta) and recursive:
        if collector is not None:
            collector.fixpoint_rounds += 1
        fresh = Instance()
        for key, rule in recursive:
            for fact in _delta_derivations(
                rule, state, delta, tracked, key, plans, delta_patterns[key]
            ):
                if fact not in state and fact not in fresh:
                    fresh.add(fact)
        state.update(fresh.facts())
        if collector is not None:
            collector.facts_derived += len(fresh)
        delta = fresh


def _program_delta_patterns(program: DatalogProgram) -> _Patterns:
    """Per rule: the empty-assignment match pattern of each body atom
    (constants + ANY wildcards), computed once instead of per round."""
    return [
        [_pattern(atom, {}) for atom in rule.body]
        for rule in program.rules
    ]


@lru_cache(maxsize=512)
def _execution_plan(program: DatalogProgram) -> tuple[_Step, ...]:
    """The stratified engine's schedule, computed once per program.

    Greedy readiness scheduling over the SCC condensation: each step
    pairs a dependency-ordered *batch* of ready non-recursive components
    (fired eagerly, one pass) with the *group* of recursive components
    whose dependencies are then all complete.  Ready recursive
    components are pairwise independent by construction (a dependency
    between them would make the dependent one un-ready), so the group
    iterates as one semi-naive loop whose round count is the maximum —
    not the sum — of the members' depths.

    Returns ``((prelude_rules, group_rules, group_keys, tracked), ...)``
    with ``group_rules`` empty for pure-batch steps.
    """
    from repro.analysis.dependency import DependencyGraph

    graph = DependencyGraph(program)
    idb = graph.idb

    def dependencies(scc: SCC) -> set[str]:
        return {
            atom.pred
            for rule in scc.rules
            for atom in rule.body
            if atom.pred in idb and atom.pred not in scc.predicates
        }

    remaining = list(graph.sccs)
    done: set[str] = set()
    plan: list[_Step] = []
    while remaining:
        batch: list[SCC] = []
        batch_preds: set[str] = set()
        group: list[SCC] = []
        later: list[SCC] = []
        for scc in remaining:  # topological order: deps scanned first
            if dependencies(scc) <= done | batch_preds:
                if scc.recursive:
                    group.append(scc)
                else:
                    batch.append(scc)
                    batch_preds |= scc.predicates
            else:
                later.append(scc)
        prelude = tuple(rule for scc in batch for rule in scc.rules)
        group_rules = tuple(rule for scc in group for rule in scc.rules)
        group_keys = tuple(key for scc in group for key in scc.rule_indices)
        tracked = frozenset[str]().union(
            *(scc.predicates for scc in group)
        )
        plan.append((prelude, group_rules, group_keys, tracked))
        done |= batch_preds | tracked
        remaining = later
    return tuple(plan)


def _single_pass(
    rules: Sequence[Rule],
    state: Instance,
    collector: Optional[EngineStats],
) -> None:
    """Fire each rule exactly once, in order, applying facts eagerly.

    Correct for a dependency-ordered run of *non-recursive* components:
    every body predicate of a rule is either extensional or fully
    computed by the time the rule fires, so one pass reaches the
    fixpoint of this rule block — one round, no delta machinery.
    """
    if collector is not None:
        collector.fixpoint_rounds += 1
    for rule in rules:
        derived = list(_rule_derivations(rule, state))
        added = 0
        for fact in derived:
            if state.add(fact):
                added += 1
        if collector is not None:
            collector.facts_derived += added


def stratified_fixpoint(
    program: DatalogProgram,
    instance: Instance,
    stats: Optional[EngineStats] = None,
) -> Instance:
    """SCC-stratified semi-naive evaluation (the default strategy).

    Components of the predicate dependency graph are evaluated
    dependencies-first; each component's rules run to fixpoint with only
    that component's predicates delta-tracked.  Rules of later
    components never fire during earlier ones, and finished components
    are joined as if they were EDB relations.  Equivalent to
    :func:`naive_fixpoint`, the oracle (see the engine-equivalence
    property tests).
    """
    with _stats.maybe_collecting(stats):
        collector = _stats.active()
        state = instance.copy()
        plans = _PlanCache(collector)
        delta_patterns = _program_delta_patterns(program)
        for prelude, rules, keys, tracked in _execution_plan(program):
            if rules:
                _seminaive_in_place(
                    rules,
                    keys,
                    state,
                    tracked,
                    plans,
                    delta_patterns,
                    collector,
                    prelude=prelude,
                )
            elif prelude:
                _single_pass(prelude, state, collector)
        return state


@lru_cache(maxsize=512)
def goal_directed_program(program: DatalogProgram, goal: str) -> DatalogProgram:
    """The subprogram of rules the goal transitively depends on.

    Evaluating it yields the same goal relation as the full program
    (dropped rules only populate predicates the goal never reads), so
    :meth:`DatalogQuery.evaluate` uses this as its entry point.  Cached:
    programs are immutable and re-evaluated many times per decision
    procedure.  A goal that is not an IDB head of ``program`` (e.g.
    defined only via views) keeps the program unchanged instead of
    pruning it down to nothing.
    """
    from repro.analysis.dependency import DependencyGraph

    return DependencyGraph(program).prune_unreachable(goal)


def engine_fixpoint(
    program: DatalogProgram,
    instance: Instance,
    backend: str,
    strategy: str,
    stats: Optional[EngineStats] = None,
) -> Instance:
    """One engine run, ``backend`` × ``strategy``: the single dispatch
    behind :func:`fixpoint` and the shard workers.

    No run-mode lookups, no audits.
    """
    check_strategy(strategy)
    if check_backend(backend) == "columnar":
        from repro.core.columnar import columnar_fixpoint

        return columnar_fixpoint(program, instance, strategy, stats)
    engine = naive_fixpoint if strategy == "naive" else stratified_fixpoint
    return engine(program, instance, stats)


def fixpoint(
    program: DatalogProgram,
    instance: Instance,
    strategy: str = "stratified",
    stats: Optional[EngineStats] = None,
    backend: Optional[str] = None,
    shards: Optional[int] = None,
) -> Instance:
    """``FPEval(Π, I)`` with a selectable strategy and backend.

    ``strategy`` is one of :data:`STRATEGIES`.  Arguments left ``None``
    come from the calling context's :func:`repro.core.runmode.current`
    run mode.

    ``backend`` names the evaluation engine, one of
    :data:`repro.core.runmode.BACKENDS`.  The certified optimizer is not
    applied here: it is a program transformation the caller runs
    explicitly (:func:`repro.analysis.optimize.optimize_program`).

    ``shards=N`` evaluates through the sharded parallel executor
    planned by :func:`repro.analysis.shard.shard_report` — hash-
    partitioned worker processes per stratum where the plan proves it
    communication-free, delta exchange where it does not.  Instances
    below the executor's size gate stay on the plain path, so a
    sharded run mode is safe to leave on.

    Every guard installed by the run mode audits the result
    (:meth:`repro.core.runmode.Guard.on_fixpoint`).
    """
    mode = current()
    if backend is None:
        backend = mode.backend
    if shards is None:
        shards = mode.shards
    if shards > 1:
        from repro.core.shard import sharded_fixpoint

        result = sharded_fixpoint(
            program, instance, shards, strategy=strategy, stats=stats,
            backend=backend,
        )
    else:
        result = engine_fixpoint(program, instance, backend, strategy, stats)
    for guard in active_guards():
        guard.on_fixpoint(program, instance, result, stats)
    return result


def idb_facts(program: DatalogProgram, instance: Instance) -> Instance:
    """Only the derived IDB facts of the fixpoint."""
    full = fixpoint(program, instance)
    return full.restrict(program.idb_predicates())
