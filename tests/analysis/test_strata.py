"""The stratum-analysis core shared by the cost, maintain and shard
analyses: one program walk, one parameter resolution, one report base
and one bound renderer."""

from __future__ import annotations

import json

import pytest

from repro.analysis import semantics
from repro.analysis.cost import PredicateBound, cost_report
from repro.analysis.maintain import maintain_report
from repro.analysis.shard import shard_report
from repro.analysis.strata import (
    ANALYSIS_RULE_LIMIT,
    BOUND_CAP,
    CostParameters,
    ProgramWalk,
    fmt_bound,
)
from repro.core import parse_instance, parse_program
from repro.ivm import MaterializedView

REACH = parse_program(
    """
    Reach(x,y) <- E(x,y).
    Reach(x,y) <- E(x,z), Reach(z,y).
    Reach(x,y) <- E(x,y), Reach(x,y).
    Goal(y) <- Reach(a,y).
    """
)


@pytest.fixture
def boundedness_calls(monkeypatch):
    calls = []
    original = semantics.boundedness_report

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(semantics, "boundedness_report", counting)
    return calls


def test_lint_semantic_runs_boundedness_once(boundedness_calls, capsys):
    from repro.cli import main

    main([
        "lint", "--semantic", "--format", "json",
        "examples/inputs/reach_query.txt",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert {"semantics", "cost", "maintain", "shard"} <= payload.keys()
    assert len(boundedness_calls) == 1


def test_predict_delta_reuses_the_view_walk(boundedness_calls):
    view = MaterializedView(REACH, parse_instance("E(1,2). E(2,3)."))
    assert len(boundedness_calls) == 1
    view.insert([("E", (3, 4))])
    assert view.predict_delta(3) is not None
    assert view.predict_delta(1) is not None
    assert len(boundedness_calls) == 1


def test_one_walk_serves_every_report(boundedness_calls):
    walk = ProgramWalk(REACH, "Goal")
    cost = cost_report(REACH, goal="Goal", walk=walk)
    maintain = maintain_report(REACH, goal="Goal", walk=walk)
    shard = shard_report(REACH, goal="Goal", walk=walk)
    assert len(boundedness_calls) == 1
    assert walk.vacuous == frozenset({2})
    assert cost.peeled_rules == (2,)
    assert maintain.plan_of("Reach").rule_indices == (0, 1, 2)
    assert maintain.plan_of("Reach").effective_rule_indices == (0, 1)
    assert shard.plan_of("Goal") is not None
    # the same reports without a shared walk agree exactly
    assert cost == cost_report(REACH, goal="Goal")
    assert maintain == maintain_report(REACH, goal="Goal")
    assert shard == shard_report(REACH, goal="Goal")


def test_walk_skips_peeling_above_the_rule_limit(boundedness_calls):
    program = parse_program(" ".join(
        f"P{i}(x) <- R(x), P{i}(x)." for i in range(ANALYSIS_RULE_LIMIT + 1)
    ))
    walk = ProgramWalk(program)
    assert not walk.within_limit
    assert walk.vacuous == frozenset()
    assert not boundedness_calls


def test_parameters_resolve_explicit_then_measured_then_assumed():
    instance = parse_instance("E(1,2). E(2,3).")
    explicit = CostParameters.assumed_for(REACH, edb_size=3)
    assert CostParameters.resolve(REACH, instance, explicit) is explicit
    measured = CostParameters.resolve(REACH, instance)
    assert not measured.assumed and measured.adom == 3
    assert CostParameters.resolve(REACH) == CostParameters.assumed_for(REACH)


def test_fmt_bound_saturates_only_at_the_cap():
    assert fmt_bound(0) == "0"
    assert fmt_bound(BOUND_CAP - 1) == str(BOUND_CAP - 1)
    assert fmt_bound(BOUND_CAP) == "saturated"


def test_records_convert_every_field_to_json():
    bound = PredicateBound("P", 2, 7, True, "basis", (0, 3))
    assert bound.as_dict() == {
        "pred": "P", "arity": 2, "bound": 7, "recursive": True,
        "basis": "basis", "rule_indices": [0, 3],
    }


def test_per_predicate_maps_every_idb_to_its_stratum():
    report = maintain_report(REACH, goal="Goal")
    assert report.strategies() == report.per_predicate("strategy")
    assert set(report.strategies()) == {"Reach", "Goal"}
    assert report.plan_of("E") is None
