"""Evaluating the certified optimizer's output.

The optimizer is a program transformation the caller applies; the
engine never runs it implicitly.  Its output must evaluate to exactly
the goal relation the input program does — on every strategy, through
:meth:`DatalogQuery.evaluate` — and cost no more evaluation work on a
goal-bound query.
"""

import pytest

from repro.analysis.optimize import optimize_program, optimized_query_program
from repro.core import parse_instance, parse_program
from repro.core.datalog import DatalogQuery
from repro.core.evaluation import fixpoint
from repro.core.runmode import run_mode
from repro.core.stats import EngineStats, collecting, suspended

REACH = parse_program(
    """
    Reach(x,y) <- E(x,y).
    Reach(x,y) <- E(x,z), Reach(z,y).
    Goal(y) <- S(x), Reach(x,y).
    """
)
CHAIN = parse_instance(
    " ".join(f"E({i},{i + 1})." for i in range(12)) + " S(4)."
)


@pytest.mark.parametrize("strategy", ["naive", "stratified"])
def test_fixpoint_optimize_parity(strategy):
    optimized = optimize_program(REACH, "Goal", instance=CHAIN).optimized
    plain = fixpoint(REACH, CHAIN, strategy=strategy)
    tuned = fixpoint(optimized, CHAIN, strategy=strategy)
    assert plain.tuples("Goal") == tuned.tuples("Goal")


def test_evaluate_optimize_parity():
    query = DatalogQuery(REACH, "Goal")
    optimized = DatalogQuery(optimize_program(REACH, "Goal").optimized, "Goal")
    assert optimized.evaluate(CHAIN) == query.evaluate(CHAIN)


def test_ambient_default_drives_evaluate():
    """The run mode's backend reaches the optimized query's evaluation
    without a parameter (the optimizer itself is never ambient)."""
    query = DatalogQuery(optimized_query_program(REACH, "Goal"), "Goal")
    expected = query.evaluate(CHAIN)
    stats = EngineStats()
    with run_mode(backend="columnar"), collecting(stats):
        assert query.evaluate(CHAIN) == expected
    assert stats.join_probe_rows > 0
    assert stats.hom_calls == 0


def test_suspended_shields_ambient_stats():
    outer = EngineStats()
    with collecting(outer):
        with suspended() as scratch:
            fixpoint(REACH, CHAIN)
            assert scratch.hom_calls > 0
        assert outer.hom_calls == 0
        fixpoint(REACH, CHAIN)
        assert outer.hom_calls > 0


def test_optimized_evaluate_keeps_counters_honest():
    """Evaluating the magic-set program costs no more homomorphism
    searches than the plain goal-directed program."""
    query = DatalogQuery(REACH, "Goal")
    optimized = DatalogQuery(optimized_query_program(REACH, "Goal"), "Goal")
    stats = EngineStats()
    with collecting(stats):
        rows = optimized.evaluate(CHAIN)
    plain = EngineStats()
    with collecting(plain):
        assert query.evaluate(CHAIN) == rows
    # the goal is bound through S: magic sets must not cost more homs
    assert stats.hom_calls <= plain.hom_calls
