"""Property safety net: every optimizer pass preserves the goal relation.

Random safe programs meet random instances; the original and the
optimized program must agree on the goal relation under every
evaluation route — naive and SCC-stratified on the interpreted engine,
stratified on the columnar engine, and the goal-directed
:meth:`DatalogQuery.evaluate` path of the optimized program on both
engines (magic-set output included).  This is the dynamic
counterpart of the ``program_equivalence`` certificates: the checker
replays specific witness instances, this replays the generator.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.optimize import PASSES, optimize_program
from repro.core.atoms import Atom
from repro.core.datalog import DatalogProgram, DatalogQuery, Rule
from repro.core.evaluation import (
    engine_fixpoint,
    naive_fixpoint,
    stratified_fixpoint,
)
from repro.core.instance import Instance
from repro.core.runmode import BACKENDS
from repro.core.terms import Variable

from tests.conftest import random_instance

EDBS = {"R": 2, "U": 1, "S": 1}


def _random_query(rng: random.Random) -> DatalogQuery:
    """A small random safe program with IDBs P/2, Q/1 and goal Q."""
    variables = [Variable(n) for n in "xyzw"]
    preds = [("R", 2), ("U", 1), ("S", 1), ("P", 2), ("Q", 1)]
    rules = []
    for _ in range(rng.randint(2, 5)):
        body = []
        for _ in range(rng.randint(1, 3)):
            pred, arity = rng.choice(preds)
            body.append(
                Atom(pred, tuple(rng.choice(variables) for _ in range(arity)))
            )
        body_vars = sorted(
            {v for a in body for v in a.variables()}, key=lambda v: v.name
        )
        head_pred, head_arity = rng.choice([("P", 2), ("Q", 1)])
        head = Atom(
            head_pred,
            tuple(rng.choice(body_vars) for _ in range(head_arity)),
        )
        rules.append(Rule(head, body))
    # ensure the goal is defined: append a guaranteed Q rule
    x = variables[0]
    rules.append(Rule(Atom("Q", (x,)), (Atom("U", (x,)),)))
    return DatalogQuery(DatalogProgram(rules), "Q")


def _goal_rows(program: DatalogProgram, goal: str, instance: Instance):
    """The goal relation under every fixpoint route (must agree)."""
    rows = {
        route: set(fn(program, instance).tuples(goal))
        for route, fn in (
            ("naive", naive_fixpoint),
            ("stratified", stratified_fixpoint),
            ("columnar", lambda p, i: engine_fixpoint(
                p, i, "columnar", "stratified"
            )),
        )
    }
    assert rows["naive"] == rows["stratified"] == rows["columnar"]
    return rows["naive"]


def _evaluate_optimized(result, instance: Instance) -> set:
    """The optimized query's goal-directed answer on both engines."""
    query = DatalogQuery(result.optimized, result.goal)
    answers = [query.evaluate(instance, backend=b) for b in BACKENDS]
    assert all(answer == answers[0] for answer in answers)
    return answers[0]


@pytest.mark.parametrize("pass_name", sorted(PASSES))
@pytest.mark.parametrize("seed", range(12))
def test_each_pass_preserves_goal_relation(pass_name, seed):
    rng = random.Random(seed * 1009 + 11)
    query = _random_query(rng)
    result = optimize_program(query.program, query.goal, (pass_name,))
    for trial in range(4):
        instance = random_instance(
            seed * 131 + trial, EDBS, max_elements=4, max_facts=7
        )
        expected = _goal_rows(query.program, query.goal, instance)
        measured = _goal_rows(result.optimized, result.goal, instance)
        assert measured == expected, (
            f"pass {pass_name} broke seed {seed} trial {trial}:\n"
            f"original:\n{query.program!r}\n"
            f"optimized:\n{result.optimized!r}"
        )


@pytest.mark.parametrize("seed", range(20))
def test_full_pipeline_preserves_goal_relation(seed):
    rng = random.Random(seed * 7919 + 5)
    query = _random_query(rng)
    result = optimize_program(query.program, query.goal)
    for trial in range(4):
        instance = random_instance(
            seed * 277 + trial, EDBS, max_elements=4, max_facts=7
        )
        expected = _goal_rows(query.program, query.goal, instance)
        measured = _goal_rows(result.optimized, result.goal, instance)
        assert measured == expected
        # the goal-directed evaluate() path over the optimizer's output
        assert _evaluate_optimized(result, instance) == expected


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    instance_seed=st.integers(min_value=0, max_value=10_000),
)
def test_pipeline_equivalence_hypothesis(seed, instance_seed):
    query = _random_query(random.Random(seed))
    result = optimize_program(query.program, query.goal)
    instance = random_instance(instance_seed, EDBS, max_elements=4)
    expected = _goal_rows(query.program, query.goal, instance)
    assert _goal_rows(result.optimized, result.goal, instance) == expected
    assert _evaluate_optimized(result, instance) == expected
