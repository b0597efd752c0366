"""Semantic static analysis: typed capability facts with witnesses.

Where :mod:`repro.analysis.dependency` classifies a program into the
paper's fragments with *violations* (why a test fails), this module
produces the full semantic picture the decision procedures dispatch on
(Tables 1–2 assign verdicts per fragment cell):

* :func:`capability_facts` — one typed :class:`Capability` per fragment
  property (monadic / frontier-guarded / linear / connected), each
  carrying per-rule *witnesses* when it holds (the guard atom, the unary
  head, the single recursive call) and counter-rules when it fails.
* :func:`binding_patterns` — adornment analysis from the goal:
  the magic-sets style bound/free patterns each IDB predicate is called
  with under left-to-right sideways information passing.
* :func:`boundedness_report` — boundedness detection on the SCC
  condensation: a nonrecursive program is trivially bounded, and
  *vacuously* recursive rules (subsumed by another rule, hence
  droppable without changing the query) are peeled off until the
  recursion either disappears — in which case the program is bounded
  and :func:`nonrecursive_to_ucq` materialises the equivalent UCQ —
  or is genuine.
* :func:`sort_report` — sort inference against the schema: columns
  ``(predicate, position)`` connected by shared variables form one
  sort; a sort observing constants of different kinds (int vs. str) is
  a likely modelling bug.

:func:`semantic_report` bundles all four; the analyzer surfaces them as
``I204``–``I206`` / ``W109``–``W110`` diagnostics under
``repro lint --semantic``, and :mod:`repro.determinacy.checker` uses
:func:`boundedness_report` to dispatch bounded Datalog queries to the
UCQ decision route instead of ad-hoc ``isinstance`` checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.analysis.dependency import (
    DependencyGraph,
    FragmentReport,
    FragmentViolation,
    fragment_report,
)
from repro.core.atoms import Atom
from repro.core.cq import ConjunctiveQuery
from repro.core.datalog import DatalogProgram
from repro.core.optimize import rule_subsumes
from repro.core.parser import Span
from repro.core.terms import Variable
from repro.core.ucq import UCQ

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.strata import ProgramWalk

SpanLookup = Callable[[int], Optional[Span]]


# ---------------------------------------------------------------------------
# capability facts
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RuleWitness:
    """Per-rule evidence for (or against) a capability."""

    rule_index: int
    detail: str
    span: Optional[Span] = None

    def as_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "rule": self.rule_index,
            "detail": self.detail,
        }
        if self.span is not None:
            out["span"] = self.span.as_dict()
        return out


@dataclass(frozen=True)
class Capability:
    """One typed fact about the program, with per-rule evidence.

    ``witnesses`` list the rules that *satisfy* the property and how;
    ``violations`` list the counter-rules that break it.  Exactly one
    side is decisive (``holds`` iff ``violations`` is empty), but both
    are kept: a certificate consumer replays the witnesses, a lint user
    reads the violations.
    """

    name: str
    holds: bool
    witnesses: tuple[RuleWitness, ...] = ()
    violations: tuple[RuleWitness, ...] = ()

    def as_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "holds": self.holds,
            "witnesses": [w.as_dict() for w in self.witnesses],
            "violations": [v.as_dict() for v in self.violations],
        }


def _no_span(_index: int) -> Optional[Span]:
    return None


def capability_facts(
    program: DatalogProgram,
    dependency: Optional[DependencyGraph] = None,
    fragment: Optional[FragmentReport] = None,
    span_of: Optional[SpanLookup] = None,
) -> tuple[Capability, ...]:
    """The fragment properties as typed facts with per-rule witnesses."""
    dependency = dependency or DependencyGraph(program)
    fragment = fragment or fragment_report(program, dependency)
    span_of = span_of or _no_span
    edb = dependency.edb
    recursive_preds = dependency.recursive_predicates()

    def witness(index: int, detail: str) -> RuleWitness:
        return RuleWitness(index, detail, span_of(index))

    monadic_wit, guard_wit, linear_wit, connected_wit = [], [], [], []
    linear_violations = []
    for index, rule in enumerate(program.rules):
        if rule.head.arity <= 1:
            monadic_wit.append(witness(
                index,
                f"head {rule.head.pred}/{rule.head.arity} is unary",
            ))
        frontier = rule.frontier()
        if not frontier:
            guard_wit.append(witness(index, "empty frontier needs no guard"))
        else:
            guard = next(
                (
                    position
                    for position, atom in enumerate(rule.body)
                    if atom.pred in edb and frontier <= atom.variables()
                ),
                None,
            )
            if guard is not None:
                named = ", ".join(sorted(v.name for v in frontier))
                guard_wit.append(witness(
                    index,
                    f"body atom #{guard} {rule.body[guard]!r} guards the "
                    f"frontier {{{named}}}",
                ))
        scc_preds = (
            dependency.scc_of(rule.head.pred).predicates
            if rule.head.pred in recursive_preds
            else frozenset()
        )
        recursive_atoms = [
            (position, atom)
            for position, atom in enumerate(rule.body)
            if atom.pred in scc_preds
        ]
        if rule.head.pred in recursive_preds:
            if len(recursive_atoms) <= 1:
                shape = (
                    f"one recursive call {recursive_atoms[0][1]!r}"
                    if recursive_atoms
                    else "no same-SCC call (exit rule)"
                )
                linear_wit.append(witness(index, shape))
            else:
                calls = ", ".join(repr(a) for _, a in recursive_atoms)
                linear_violations.append(witness(
                    index,
                    f"rule #{index} makes {len(recursive_atoms)} same-SCC "
                    f"calls ({calls})",
                ))
        from repro.analysis.dependency import rule_body_components

        if len(rule_body_components(rule)) <= 1:
            connected_wit.append(witness(index, "body is one component"))

    def lift(
        violations: "Sequence[FragmentViolation]",
    ) -> tuple[RuleWitness, ...]:
        return tuple(
            RuleWitness(v.rule_index, v.reason, span_of(v.rule_index))
            for v in violations
        )

    return (
        Capability(
            "monadic",
            fragment.monadic,
            tuple(monadic_wit),
            lift(fragment.monadic_violations),
        ),
        Capability(
            "frontier-guarded",
            fragment.frontier_guarded,
            tuple(guard_wit),
            # paper convention: MDL counts as FG, so violations only
            # matter (and are only reported) when the program is not MDL
            () if fragment.monadic else lift(fragment.guard_violations),
        ),
        Capability(
            "linear",
            fragment.linear,
            tuple(linear_wit),
            tuple(linear_violations),
        ),
        Capability(
            "connected",
            fragment.connected,
            tuple(connected_wit),
            lift(fragment.connectivity_violations),
        ),
    )


# ---------------------------------------------------------------------------
# binding patterns (adornments)
# ---------------------------------------------------------------------------
def binding_patterns(
    program: DatalogProgram,
    goal: Optional[str],
    dependency: Optional[DependencyGraph] = None,
) -> dict[str, tuple[str, ...]]:
    """Adornments each IDB is called with, starting from an all-free goal.

    Magic-sets style: processing each rule body left to right, an IDB
    argument is *bound* (``b``) when it is a constant or a variable
    already bound by the head's bound positions or an earlier body
    atom, else *free* (``f``).  The result maps each reachable IDB to
    the sorted set of adornment strings it is invoked with.
    """
    dependency = dependency or DependencyGraph(program)
    idb = dependency.idb
    if goal is None or goal not in idb:
        return {}
    seen: dict[str, set[str]] = {}
    start = "f" * program.arity_of(goal)
    seen[goal] = {start}
    work = [(goal, start)]
    while work:
        pred, adornment = work.pop()
        for rule in program.rules_for(pred):
            bound: set[Variable] = {
                arg
                for arg, mark in zip(rule.head.args, adornment)
                if mark == "b" and isinstance(arg, Variable)
            }
            for atom in rule.body:
                if atom.pred in idb:
                    pattern = "".join(
                        "f"
                        if isinstance(term, Variable) and term not in bound
                        else "b"
                        for term in atom.args
                    )
                    if pattern not in seen.setdefault(atom.pred, set()):
                        seen[atom.pred].add(pattern)
                        work.append((atom.pred, pattern))
                bound |= atom.variables()
    return {pred: tuple(sorted(pats)) for pred, pats in sorted(seen.items())}


# ---------------------------------------------------------------------------
# boundedness on the SCC condensation
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class BoundednessReport:
    """Whether the program is (detectably) bounded, and the evidence.

    ``vacuous_rules`` are ``(dropped, subsuming)`` pairs of original
    rule indices: each dropped rule is subsumed by the subsuming one
    (sound per :func:`repro.core.optimize.rule_subsumes`), so removal
    preserves the query; ``ucq`` is the equivalent UCQ of the goal when
    the surviving program is nonrecursive and small enough to unfold.
    """

    bounded: bool
    reason: str
    vacuous_rules: tuple[tuple[int, int], ...] = ()
    ucq: Optional[UCQ] = None

    def as_dict(self) -> dict[str, object]:
        return {
            "bounded": self.bounded,
            "reason": self.reason,
            "vacuous_rules": [list(pair) for pair in self.vacuous_rules],
            "ucq_disjuncts": (
                len(self.ucq.disjuncts) if self.ucq is not None else None
            ),
        }


def _recursive_rule_indices(dependency: DependencyGraph) -> set[int]:
    """Indices of rules making at least one same-SCC body call."""
    out = set()
    for scc in dependency.sccs:
        if not scc.recursive:
            continue
        for index, rule in zip(scc.rule_indices, scc.rules):
            if any(atom.pred in scc.predicates for atom in rule.body):
                out.add(index)
    return out


def boundedness_report(
    program: DatalogProgram,
    goal: Optional[str] = None,
    dependency: Optional[DependencyGraph] = None,
    limit: int = 64,
) -> BoundednessReport:
    """Detect boundedness by peeling vacuously recursive rules.

    A recursive rule subsumed by another surviving rule derives nothing
    its subsumer does not; dropping it is an equivalence.  Iterating
    until no recursive rule is droppable either eliminates recursion —
    the program is bounded, and with a ``goal`` the equivalent UCQ is
    unfolded (up to ``limit`` disjuncts) — or leaves genuine recursion,
    for which this sound-but-incomplete test reports unbounded.
    """
    dependency = dependency or DependencyGraph(program)
    original = list(range(len(program.rules)))
    current = program
    dep = dependency
    vacuous: list[tuple[int, int]] = []
    while True:
        recursive = _recursive_rule_indices(dep)
        if not recursive:
            break
        rules = current.rules
        dropped: set[int] = set()
        for index in sorted(recursive):
            for other in range(len(rules)):
                if other == index or other in dropped:
                    continue
                if not rule_subsumes(rules[other], rules[index]):
                    continue
                # mutual subsumption: keep the earlier rule
                if other > index and rule_subsumes(rules[index], rules[other]):
                    continue
                vacuous.append((original[index], original[other]))
                dropped.add(index)
                break
        if not dropped:
            preds = ", ".join(sorted(
                {rules[i].head.pred for i in recursive}
            ))
            return BoundednessReport(
                False,
                f"genuine recursion through {preds} "
                "(no recursive rule is subsumed)",
                tuple(vacuous),
            )
        original = [i for pos, i in enumerate(original) if pos not in dropped]
        current = DatalogProgram(
            rule for pos, rule in enumerate(rules) if pos not in dropped
        )
        dep = DependencyGraph(current)
    if vacuous:
        reason = (
            f"nonrecursive after dropping {len(vacuous)} vacuously "
            "recursive rule(s)"
        )
    else:
        reason = "program is nonrecursive"
    ucq = (
        nonrecursive_to_ucq(current, goal, limit=limit)
        if goal is not None
        else None
    )
    return BoundednessReport(True, reason, tuple(vacuous), ucq)


def _rename_expansion(
    head: Atom, body: tuple[Atom, ...], fresh: "count[int]"
) -> tuple[Atom, tuple[Atom, ...]]:
    variables = head.variables().union(*(a.variables() for a in body)) \
        if body else head.variables()
    mapping = {v: Variable(f"_u{next(fresh)}") for v in variables}
    return (
        head.substitute(mapping),
        tuple(a.substitute(mapping) for a in body),
    )


def nonrecursive_to_ucq(
    program: DatalogProgram, goal: str, limit: int = 64
) -> Optional[UCQ]:
    """Unfold a nonrecursive program into the goal's equivalent UCQ.

    Dependencies-first over the SCC condensation, each IDB body atom is
    replaced by every (renamed-apart) expansion of its predicate.
    Returns ``None`` — rather than an approximation — when the program
    is recursive, the goal is not an IDB, a rule head uses constants or
    repeated variables in a way simple unification cannot thread, a
    disjunct would be atom-free, or the unfolding exceeds ``limit``
    disjuncts.
    """
    dependency = DependencyGraph(program)
    if goal not in dependency.idb:
        return None
    if any(scc.recursive for scc in dependency.sccs):
        return None
    fresh = count()
    expansions: dict[str, list[tuple[Atom, tuple[Atom, ...]]]] = {}
    for scc in dependency.sccs:  # evaluation order: dependencies first
        outs: list[tuple[Atom, tuple[Atom, ...]]] = []
        for rule in scc.rules:
            if rule.head.constants():
                return None
            bodies: Optional[list[tuple[Atom, ...]]] = [()]
            for atom in rule.body:
                if atom.pred not in dependency.idb:
                    bodies = [body + (atom,) for body in bodies]
                    continue
                subs = expansions.get(atom.pred)
                if not subs:
                    # an IDB with no derivations: this rule fires never
                    bodies = None
                    break
                grown: list[tuple[Atom, ...]] = []
                for body in bodies:
                    for sub_head, sub_body in subs:
                        renamed_head, renamed_body = _rename_expansion(
                            sub_head, sub_body, fresh
                        )
                        mapping: dict[Variable, object] = {}
                        ok = True
                        for h_arg, c_arg in zip(
                            renamed_head.args, atom.args
                        ):
                            assert isinstance(h_arg, Variable)
                            if mapping.get(h_arg, c_arg) != c_arg:
                                ok = False
                                break
                            mapping[h_arg] = c_arg
                        if not ok:
                            return None
                        grown.append(body + tuple(
                            a.substitute(mapping) for a in renamed_body
                        ))
                        if len(grown) > limit:
                            return None
                bodies = grown
            if bodies is None:
                continue
            for body in bodies:
                outs.append((rule.head, body))
            if len(outs) > limit:
                return None
        if outs:
            for pred in scc.predicates:
                expansions[pred] = [
                    e for e in outs if e[0].pred == pred
                ] or expansions.get(pred, [])
    goal_expansions = expansions.get(goal)
    if not goal_expansions:
        return None
    disjuncts = []
    for head, body in goal_expansions:
        if not body:
            return None
        head_vars = tuple(head.args)
        disjuncts.append(ConjunctiveQuery(
            head_vars,  # type: ignore[arg-type]  # heads checked var-only
            body,
            f"{goal}_{len(disjuncts)}",
        ))
    return UCQ(tuple(disjuncts), name=goal)


# ---------------------------------------------------------------------------
# sort inference
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SortClass:
    """One inferred sort: columns linked by shared variables."""

    columns: tuple[tuple[str, int], ...]
    kinds: tuple[str, ...]
    samples: tuple[str, ...]

    @property
    def conflicting(self) -> bool:
        return len(self.kinds) > 1

    def describe(self) -> str:
        cols = ", ".join(f"{pred}[{pos}]" for pred, pos in self.columns)
        if not self.kinds:
            return f"{{{cols}}}"
        seen = ", ".join(
            f"{kind} (e.g. {sample})"
            for kind, sample in zip(self.kinds, self.samples)
        )
        return f"{{{cols}}} carrying {seen}"

    def as_dict(self) -> dict[str, object]:
        return {
            "columns": [list(col) for col in self.columns],
            "kinds": list(self.kinds),
            "samples": list(self.samples),
            "conflicting": self.conflicting,
        }


@dataclass(frozen=True)
class SortReport:
    """Sort classes over all predicate columns, plus the conflicts."""

    classes: tuple[SortClass, ...]

    def conflicts(self) -> tuple[SortClass, ...]:
        return tuple(c for c in self.classes if c.conflicting)

    def as_dict(self) -> dict[str, object]:
        return {"classes": [c.as_dict() for c in self.classes]}


def _constant_kind(term: object) -> str:
    if isinstance(term, bool):
        return "bool"
    if isinstance(term, int):
        return "int"
    if isinstance(term, str):
        return "str"
    return type(term).__name__


def sort_report(program: DatalogProgram) -> SortReport:
    """Union-find sorts over ``(predicate, position)`` columns.

    Within one rule, columns touched by the same variable share a sort;
    constants stamp their kind onto the column's sort.  A sort carrying
    more than one constant kind is flagged as conflicting (W109).
    """
    parent: dict[tuple[str, int], tuple[str, int]] = {}

    def find(col: tuple[str, int]) -> tuple[str, int]:
        parent.setdefault(col, col)
        root = col
        while parent[root] != root:
            root = parent[root]
        while parent[col] != root:
            parent[col], col = root, parent[col]
        return root

    def union(left: tuple[str, int], right: tuple[str, int]) -> None:
        left_root, right_root = find(left), find(right)
        if left_root != right_root:
            parent[max(left_root, right_root)] = min(left_root, right_root)

    constants: dict[tuple[str, int], dict[str, str]] = {}
    for rule in program.rules:
        var_col: dict[Variable, tuple[str, int]] = {}
        for atom in (rule.head, *rule.body):
            for position, term in enumerate(atom.args):
                column = (atom.pred, position)
                find(column)
                if isinstance(term, Variable):
                    anchor = var_col.setdefault(term, column)
                    union(anchor, column)
                else:
                    constants.setdefault(column, {}).setdefault(
                        _constant_kind(term), repr(term)
                    )

    grouped: dict[tuple[str, int], list[tuple[str, int]]] = {}
    for column in parent:
        grouped.setdefault(find(column), []).append(column)
    classes = []
    for _root, columns in sorted(grouped.items()):
        kinds: dict[str, str] = {}
        for column in columns:
            for kind, sample in constants.get(column, {}).items():
                kinds.setdefault(kind, sample)
        ordered = tuple(sorted(kinds))
        classes.append(SortClass(
            tuple(sorted(columns)),
            ordered,
            tuple(kinds[kind] for kind in ordered),
        ))
    return SortReport(tuple(classes))


# ---------------------------------------------------------------------------
# the bundled report
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SemanticReport:
    """Everything the semantic pipeline derived about one program."""

    capabilities: tuple[Capability, ...]
    adornments: dict[str, tuple[str, ...]]
    boundedness: BoundednessReport
    sorts: SortReport

    def capability(self, name: str) -> Capability:
        for cap in self.capabilities:
            if cap.name == name:
                return cap
        raise KeyError(name)

    def as_dict(self) -> dict[str, object]:
        return {
            "capabilities": [c.as_dict() for c in self.capabilities],
            "adornments": {
                pred: list(pats) for pred, pats in self.adornments.items()
            },
            "boundedness": self.boundedness.as_dict(),
            "sorts": self.sorts.as_dict(),
        }


def semantic_report(
    program: DatalogProgram,
    goal: Optional[str] = None,
    walk: Optional["ProgramWalk"] = None,
    fragment: Optional[FragmentReport] = None,
    span_of: Optional[SpanLookup] = None,
) -> SemanticReport:
    """Run the full semantic pipeline over ``program`` (``walk`` shares
    the dependency graph and boundedness report with other reports)."""
    if walk is None:
        from repro.analysis.strata import ProgramWalk

        walk = ProgramWalk(program, goal)
    dependency = walk.dependency
    fragment = fragment or fragment_report(program, dependency)
    return SemanticReport(
        capabilities=capability_facts(program, dependency, fragment, span_of),
        adornments=binding_patterns(program, goal, dependency),
        boundedness=walk.boundedness,
        sorts=sort_report(program),
    )
