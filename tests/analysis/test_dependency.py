"""Dependency graph, SCC condensation, pruning, fragment reports."""

import pytest

from repro.analysis.dependency import (
    DependencyGraph,
    evaluation_strata,
    fragment_report,
    prune_unreachable,
    rule_body_components,
)
from repro.core.datalog import DatalogQuery
from repro.core.parser import parse_program, parse_rule

TC = parse_program(
    """
    T(x, y) <- R(x, y).
    T(x, y) <- R(x, z), T(z, y).
    Goal(x) <- T(x, x).
    Dead(x) <- U(x).
    """
)


def test_idb_edb_split():
    graph = DependencyGraph(TC)
    assert graph.idb == {"T", "Goal", "Dead"}
    assert graph.edb == {"R", "U"}


def test_sccs_in_dependency_order():
    strata = evaluation_strata(TC)
    order = [sorted(s.predicates) for s in strata]
    # T must come before Goal; singletons for everything else
    assert order.index(["T"]) < order.index(["Goal"])
    by_pred = {next(iter(s.predicates)): s for s in strata}
    assert by_pred["T"].recursive and by_pred["T"].linear
    assert not by_pred["Goal"].recursive
    assert not by_pred["Dead"].recursive


def test_nonlinear_scc_detected():
    program = parse_program(
        "T(x, y) <- R(x, y). T(x, y) <- T(x, z), T(z, y)."
    )
    (scc,) = [s for s in evaluation_strata(program) if s.recursive]
    assert not scc.linear


def test_mutual_recursion_is_one_scc():
    program = parse_program(
        """
        Even(x) <- Zero(x).
        Even(x) <- S(y, x), Odd(y).
        Odd(x) <- S(y, x), Even(y).
        """
    )
    graph = DependencyGraph(program)
    scc = graph.scc_of("Even")
    assert scc.predicates == {"Even", "Odd"}
    assert scc.recursive
    assert graph.recursive_predicates() == {"Even", "Odd"}


def test_reachable_and_unreachable():
    graph = DependencyGraph(TC)
    assert graph.reachable_from("Goal") == {"Goal", "T"}
    assert graph.unreachable_rule_indices("Goal") == [3]
    assert graph.unused_predicates("Goal") == {"Dead"}


def test_prune_unreachable_drops_dead_rules():
    query = DatalogQuery(TC, "Goal")
    pruned = prune_unreachable(query)
    assert len(pruned.program.rules) == 3
    assert "Dead" not in pruned.program.idb_predicates()
    # already-minimal queries come back unchanged (same object)
    assert prune_unreachable(pruned) is pruned


def test_prune_keeps_goal_rules_for_unreachable_goalless_idb():
    query = DatalogQuery(TC, "Dead")
    pruned = prune_unreachable(query)
    assert {r.head.pred for r in pruned.program.rules} == {"Dead"}


def test_rule_body_components():
    connected = parse_rule("P(x) <- R(x, y), S(y, z).")
    assert len(rule_body_components(connected)) == 1
    cartesian = parse_rule("P(x) <- R(x, y), S(z, w).")
    assert len(rule_body_components(cartesian)) == 2


def test_fragment_report_mdl():
    program = parse_program(
        "P(x) <- U(x). P(x) <- R(x, y), P(y). Goal(x) <- P(x)."
    )
    report = fragment_report(program)
    assert report.label == "MDL"
    assert report.monadic and report.frontier_guarded and report.recursive
    assert report.explanations() == []


def test_fragment_report_explains_violations():
    report = fragment_report(TC)
    assert report.label == "Datalog"
    assert not report.monadic
    reasons = report.explanations()
    assert any("MDL IDBs must be unary" in r for r in reasons)
    assert any("frontier-guarded" in r for r in reasons)
    payload = report.as_dict()
    assert payload["label"] == "Datalog"
    assert payload["explanations"] == reasons


def test_fragment_report_nonrecursive():
    program = parse_program("Goal(x) <- R(x, y), U(y).")
    report = fragment_report(program)
    assert report.label == "nonrecursive"
    assert not report.recursive


def test_scc_of_unknown_predicate():
    with pytest.raises(KeyError):
        DependencyGraph(TC).scc_of("Nope")


def test_prune_never_drops_view_only_goal():
    # Regression: a goal defined only via views is not an IDB head of
    # the analyzed program.  Pruning used to treat it as depending on
    # nothing and silently dropped every rule; it must keep the whole
    # program instead.
    graph = DependencyGraph(TC)
    pruned = graph.prune_unreachable("ViewOnlyGoal")
    assert pruned is TC
    assert len(pruned.rules) == len(TC.rules)


def test_goal_directed_program_keeps_view_only_goal():
    from repro.core.evaluation import fixpoint, goal_directed_program
    from repro.core.instance import Instance

    kept = goal_directed_program(TC, "ViewOnlyGoal")
    assert kept is TC

    # End to end: evaluating under the un-prunable goal still computes
    # the program's fixpoint rather than returning the input unchanged.
    instance = Instance()
    instance.add_tuple("R", (1, 2))
    instance.add_tuple("R", (2, 3))
    state = fixpoint(kept, instance)
    assert (1, 3) in state.tuples("T")


def test_prune_unreachable_still_prunes_dead_rules():
    query = DatalogQuery(TC, "Goal")
    pruned = prune_unreachable(query)
    heads = {rule.head.pred for rule in pruned.program.rules}
    assert heads == {"T", "Goal"}


# four independent recursive strata under two unrelated roots: the
# dependency order leaves their relative order open
INDEPENDENT = """\
# goal: Goal
Alpha(x,y) <- E(x,y).
Alpha(x,y) <- E(x,z), Alpha(z,y).
Beta(x,y) <- F(x,y).
Beta(x,y) <- F(x,z), Beta(z,y).
Gamma(x) <- G(x).
Gamma(y) <- Gamma(x), E(x,y).
Delta(x) <- H(x).
Delta(y) <- Delta(x), F(x,y).
Goal(x) <- Alpha(x,y), Gamma(y).
Side(x) <- Beta(x,y), Delta(y).
"""


def test_strata_reports_are_byte_identical_across_hash_seeds(tmp_path):
    """``analyze maintain``, ``analyze shard`` and ``lint --semantic``
    list strata in the same order whatever ``PYTHONHASHSEED`` is."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    program = tmp_path / "independent.txt"
    program.write_text(INDEPENDENT)
    root = Path(__file__).resolve().parents[2]
    for command in (
        ["analyze", "maintain"], ["analyze", "shard"], ["lint", "--semantic"],
    ):
        outputs = set()
        for seed in ("0", "1"):
            env = {
                **os.environ, "PYTHONHASHSEED": seed,
                "PYTHONPATH": str(root / "src"),
            }
            done = subprocess.run(
                [sys.executable, "-m", "repro", *command, str(program)],
                capture_output=True, env=env, cwd=root, check=False,
            )
            outputs.add(done.stdout + done.stderr)
        assert len(outputs) == 1, command
