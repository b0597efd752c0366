"""Property safety net: ``interpreted`` ≡ ``columnar`` everywhere.

Random safe programs — with constants in bodies *and* heads, repeated
variables, ``None`` as an ordinary data value, empty relations — must
produce identical fixpoints on both backends across every strategy, and
so must the certified optimizer's output.  The naive interpreted
strategy is the correctness oracle (the same role it plays for the interpreted
engine's own delta machinery, and the one the independent certificate
checker replays with).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.optimize import optimize_program
from repro.core.atoms import Atom
from repro.core.datalog import DatalogProgram, DatalogQuery, Rule
from repro.core.evaluation import fixpoint
from repro.core.instance import Instance
from repro.core.terms import Variable

_VARS = [Variable(n) for n in "xyzw"]
#: None is deliberately in the pool: it is legitimate data, not a
#: wildcard (the ANY sentinel is pattern-only and unstorable), and the
#: columnar engine must hash/join it like any other value.
_CONSTS = [0, 1, 2, "a", None]
_EDB = [("R", 2), ("U", 1), ("Empty", 1)]
_IDB = [("P", 2), ("Q", 1), ("G", 1)]

_STRATEGIES = ("naive", "stratified")


@st.composite
def programs_with_constants(draw) -> DatalogProgram:
    """Safe programs over R/2, U/1, Empty/1 → P/2, Q/1, G/1.

    Body terms are variables or constants; head terms are drawn from
    the body's variables or the constant pool (constant-in-head was a
    PR-1 regression).  ``Empty`` never receives facts, so some bodies
    join against a genuinely empty relation.
    """
    rules = []
    for _ in range(draw(st.integers(min_value=2, max_value=5))):
        body = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            pred, arity = draw(st.sampled_from(_EDB + _IDB))
            terms = tuple(
                draw(
                    st.one_of(
                        st.sampled_from(_VARS), st.sampled_from(_CONSTS)
                    )
                )
                for _ in range(arity)
            )
            body.append(Atom(pred, terms))
        body_vars = sorted(
            {v for a in body for v in a.variables()}, key=lambda v: v.name
        )
        head_terms = body_vars if body_vars else _CONSTS
        pred, arity = draw(st.sampled_from(_IDB))
        head = Atom(
            pred,
            tuple(
                draw(st.sampled_from(head_terms)) for _ in range(arity)
            ),
        )
        rules.append(Rule(head, body))
    return DatalogProgram(rules)


@st.composite
def edb_instances(draw) -> Instance:
    """Small instances over R/2 and U/1; Empty/1 stays empty, and the
    element pool overlaps the programs' constant pool (incl. None)."""
    inst = Instance()
    for pred, arity in (("R", 2), ("U", 1)):
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            inst.add_tuple(
                pred,
                tuple(
                    draw(st.sampled_from(_CONSTS + [3, "b"]))
                    for _ in range(arity)
                ),
            )
    return inst


@given(program=programs_with_constants(), instance=edb_instances())
@settings(max_examples=60, deadline=None)
def test_columnar_matches_interpreted_across_strategies(program, instance):
    oracle = fixpoint(
        program, instance, strategy="naive", backend="interpreted"
    )
    for strategy in _STRATEGIES:
        for backend in ("interpreted", "columnar"):
            result = fixpoint(
                program, instance, strategy=strategy, backend=backend
            )
            assert result == oracle, (
                f"{backend}/{strategy} disagrees with the naive oracle:\n"
                f"program:\n{program!r}\n"
                f"instance:\n{instance.pretty()}\n"
                f"oracle:\n{oracle.pretty()}\n"
                f"got:\n{result.pretty()}"
            )


@given(program=programs_with_constants(), instance=edb_instances())
@settings(max_examples=40, deadline=None)
def test_columnar_matches_interpreted_under_optimize(program, instance):
    """The certified optimizer's output (magic sets and instance-driven
    join order included) evaluates to one fixpoint on both backends."""
    for goal in sorted(program.idb_predicates()):
        optimized = optimize_program(program, goal, instance=instance)
        expected = fixpoint(
            optimized.optimized, instance, backend="interpreted"
        )
        assert (
            fixpoint(optimized.optimized, instance, backend="columnar")
            == expected
        )


@given(program=programs_with_constants(), instance=edb_instances())
@settings(max_examples=30, deadline=None)
def test_query_evaluate_is_backend_and_optimize_invariant(
    program, instance
):
    """Goal relations agree for every goal × backend cell, for the
    program and for the optimizer's output (which may route through
    magic sets, whose derived programs must also evaluate identically
    on both backends)."""
    for goal in sorted(program.idb_predicates()):
        query = DatalogQuery(program, goal)
        expected = query.evaluate(instance)
        optimized = DatalogQuery(
            optimize_program(program, goal).optimized, goal
        )
        for label, candidate in (("plain", query), ("optimized", optimized)):
            for backend in ("interpreted", "columnar"):
                got = candidate.evaluate(instance, backend=backend)
                assert got == expected, (
                    f"goal {goal}, {label}, "
                    f"backend={backend}:\nprogram:\n{program!r}\n"
                    f"instance:\n{instance.pretty()}"
                )


def test_columnar_on_the_empty_instance():
    program = DatalogProgram([
        Rule(
            Atom("P", (Variable("x"), Variable("y"))),
            [Atom("R", (Variable("x"), Variable("y")))],
        ),
    ])
    empty = Instance()
    for strategy in _STRATEGIES:
        result = fixpoint(
            program, empty, strategy=strategy, backend="columnar"
        )
        assert result == empty


def test_columnar_constant_only_rule_and_zero_arity_goal():
    """Facts-as-rules and 0-ary (boolean) heads, a PR-1 edge case."""
    program = DatalogProgram([
        Rule(Atom("P", (1, 2)), []),
        Rule(
            Atom("G", ()),
            [Atom("P", (Variable("x"), 2))],
        ),
        Rule(
            Atom("Q", (7,)),
            [Atom("G", ())],
        ),
    ])
    for strategy in _STRATEGIES:
        result = fixpoint(
            program, Instance(), strategy=strategy, backend="columnar"
        )
        assert result == fixpoint(program, Instance(), strategy=strategy)
        assert () in result.tuples("G")
        assert (7,) in result.tuples("Q")


def test_columnar_repeated_variables_and_none_data():
    """Self-join positions and None values: equality must be exact —
    None joins None and nothing else."""
    program = DatalogProgram([
        Rule(
            Atom("Q", (Variable("x"),)),
            [Atom("R", (Variable("x"), Variable("x")))],
        ),
        Rule(
            Atom("P", (Variable("x"), Variable("y"))),
            [
                Atom("R", (Variable("x"), None)),
                Atom("R", (None, Variable("y"))),
            ],
        ),
    ])
    inst = Instance.from_tuples({
        "R": [(1, 1), (1, 2), (None, None), (2, None), (None, 3)],
    })
    for strategy in _STRATEGIES:
        a = fixpoint(program, inst, strategy=strategy)
        b = fixpoint(program, inst, strategy=strategy, backend="columnar")
        assert a == b, strategy
    assert b.tuples("Q") == {(1,), (None,)}
    assert (2, 3) in b.tuples("P")


def test_columnar_cartesian_product_body():
    """Disconnected bodies degrade to a cross join, not a crash."""
    program = DatalogProgram([
        Rule(
            Atom("P", (Variable("x"), Variable("y"))),
            [
                Atom("U", (Variable("x"),)),
                Atom("V", (Variable("y"),)),
            ],
        ),
    ])
    inst = Instance.from_tuples({"U": [(1,), (2,)], "V": [("a",), ("b",)]})
    for strategy in _STRATEGIES:
        result = fixpoint(
            program, inst, strategy=strategy, backend="columnar"
        )
        assert result == fixpoint(program, inst, strategy=strategy)
        assert len(result.tuples("P")) == 4
