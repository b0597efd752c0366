"""Property-style safety net for the join planner and fixpoint engine.

Randomized generated programs/instances must satisfy two invariants
regardless of any planner or indexing change:

* ``naive_fixpoint`` ≡ ``stratified_fixpoint`` (the naive strategy is
  the correctness oracle for the semi-naive delta-rule + plan-cache
  machinery the stratified engine runs per stratum);
* the ``dynamic`` / ``static`` / ``connected`` homomorphism orderings
  enumerate exactly the same homomorphism set.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.dependency import prune_unreachable
from repro.core.atoms import Atom
from repro.core.datalog import DatalogProgram, DatalogQuery, Rule
from repro.core.evaluation import naive_fixpoint, stratified_fixpoint
from repro.core.homomorphism import homomorphisms
from repro.core.instance import Instance
from repro.core.stats import EngineStats
from repro.core.terms import Variable

from tests.conftest import random_instance


def _random_program(rng: random.Random) -> DatalogProgram:
    """A small random positive program over EDBs R/2, U/1, IDBs P/2, Q/1.

    Bodies mix EDB and IDB atoms; safety is ensured by drawing head
    variables from the body's variables.
    """
    variables = [Variable(n) for n in "xyzw"]
    preds = [("R", 2), ("U", 1), ("P", 2), ("Q", 1)]
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
    return DatalogProgram(rules)


@pytest.mark.parametrize("seed", range(25))
def test_naive_equals_seminaive_on_random_programs(seed):
    rng = random.Random(seed)
    program = _random_program(rng)
    instance = random_instance(
        seed * 31 + 7, {"R": 2, "U": 1}, max_elements=4, max_facts=7
    )
    naive = naive_fixpoint(program, instance)
    stratified = stratified_fixpoint(program, instance)
    assert naive == stratified, (
        f"strategies disagree on seed {seed}:\n"
        f"program:\n{program!r}\nnaive:\n{naive.pretty()}\n"
        f"stratified:\n{stratified.pretty()}"
    )


@pytest.mark.parametrize("seed", range(25))
def test_orderings_enumerate_identical_homomorphism_sets(seed):
    rng = random.Random(seed + 1000)
    instance = random_instance(
        seed * 17 + 3, {"R": 2, "U": 1, "S": 2}, max_elements=4, max_facts=8
    )
    variables = [Variable(n) for n in "xyz"]
    atoms = []
    for _ in range(rng.randint(1, 4)):
        pred, arity = rng.choice([("R", 2), ("U", 1), ("S", 2)])
        atoms.append(
            Atom(pred, tuple(rng.choice(variables) for _ in range(arity)))
        )
    results = {}
    for ordering in ("dynamic", "static", "connected"):
        homs = list(homomorphisms(atoms, instance, ordering=ordering))
        results[ordering] = {frozenset(h.items()) for h in homs}
        # each individual assignment appears exactly once
        assert len(homs) == len(results[ordering])
    assert results["dynamic"] == results["static"] == results["connected"]


def test_seminaive_with_stats_matches_and_counts():
    """Transitive closure on a chain through the semi-naive (stratified)
    engine: counters populated, result exact."""
    rules = [
        Rule(
            Atom("T", (Variable("x"), Variable("y"))),
            [Atom("R", (Variable("x"), Variable("y")))],
        ),
        Rule(
            Atom("T", (Variable("x"), Variable("y"))),
            [
                Atom("R", (Variable("x"), Variable("z"))),
                Atom("T", (Variable("z"), Variable("y"))),
            ],
        ),
    ]
    program = DatalogProgram(rules)
    inst = Instance()
    n = 12
    for i in range(n):
        inst.add_tuple("R", (i, i + 1))
    stats = EngineStats()
    result = stratified_fixpoint(program, inst, stats=stats)
    assert len(result.tuples("T")) == n * (n + 1) // 2
    assert result == naive_fixpoint(program, inst)
    assert stats.fixpoint_rounds >= 2
    assert stats.facts_derived == n * (n + 1) // 2
    assert stats.hom_calls > 0
    assert stats.rows_scanned > 0
    # one resolved plan per (rule, delta position), replayed every round
    assert stats.plan_cache_misses == 1
    assert stats.plan_cache_hits >= stats.fixpoint_rounds - 2


# ---------------------------------------------------------------------------
# hypothesis: stratified/pruned evaluation ≡ naive (the oracle)
# ---------------------------------------------------------------------------
_H_VARS = [Variable(n) for n in "xyzw"]
_H_EDB = [("R", 2), ("U", 1)]
_H_IDB = [("P", 2), ("Q", 1), ("G", 1)]


@st.composite
def small_programs(draw) -> DatalogProgram:
    """Random safe programs over EDBs R/2, U/1 and IDBs P/2, Q/1, G/1."""
    rules = []
    for _ in range(draw(st.integers(min_value=2, max_value=6))):
        body = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            pred, arity = draw(st.sampled_from(_H_EDB + _H_IDB))
            body.append(
                Atom(
                    pred,
                    tuple(
                        draw(st.sampled_from(_H_VARS)) for _ in range(arity)
                    ),
                )
            )
        body_vars = sorted(
            {v for a in body for v in a.variables()}, key=lambda v: v.name
        )
        pred, arity = draw(st.sampled_from(_H_IDB))
        head = Atom(
            pred,
            tuple(draw(st.sampled_from(body_vars)) for _ in range(arity)),
        )
        rules.append(Rule(head, body))
    return DatalogProgram(rules)


@st.composite
def small_edb_instances(draw) -> Instance:
    n = draw(st.integers(min_value=1, max_value=4))
    inst = Instance()
    for pred, arity in _H_EDB:
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            inst.add_tuple(
                pred,
                tuple(
                    draw(st.integers(min_value=0, max_value=n - 1))
                    for _ in range(arity)
                ),
            )
    return inst


@given(program=small_programs(), instance=small_edb_instances())
@settings(max_examples=60, deadline=None)
def test_stratified_strategy_is_equivalent(program, instance):
    """The SCC-stratified engine computes the exact naive fixpoint."""
    expected = naive_fixpoint(program, instance)
    assert stratified_fixpoint(program, instance) == expected


@given(program=small_programs(), instance=small_edb_instances())
@settings(max_examples=60, deadline=None)
def test_pruned_goal_directed_evaluation_is_equivalent(program, instance):
    """prune_unreachable + stratified evaluation preserves every goal
    relation of the naive fixpoint, for every possible goal."""
    full = naive_fixpoint(program, instance)
    for goal in sorted(program.idb_predicates()):
        query = DatalogQuery(program, goal)
        pruned = prune_unreachable(query)
        expected = set(full.tuples(goal))
        assert (
            set(stratified_fixpoint(pruned.program, instance).tuples(goal))
            == expected
        )
        assert query.evaluate(instance) == expected
