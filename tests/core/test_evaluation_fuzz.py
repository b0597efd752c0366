"""Differential fuzzing of the evaluation engines.

Random safe Datalog programs + random instances: naive and semi-naive
(stratified) fixpoints must agree, and the bounded approximation semantics (Prop. 1)
must match on small instances.
"""

import random

import pytest
from hypothesis import strategies as st

from repro.core.atoms import Atom
from repro.core.datalog import DatalogProgram, DatalogQuery, Rule
from repro.core.evaluation import naive_fixpoint, stratified_fixpoint
from repro.core.instance import Instance
from repro.core.terms import Variable


def _random_program(
    rng: random.Random, max_idb_atoms: int = 2
) -> DatalogProgram:
    """A random safe MDL-ish program over EDBs R/2, U/1 with IDBs A, B.

    ``max_idb_atoms=1`` yields linear programs (bounded expansion
    counts, needed by the approximation-based oracle).
    """
    variables = [Variable(n) for n in "xyzw"]
    idbs = ["A", "B"]

    def random_atom(pred_pool):
        pred, arity = rng.choice(pred_pool)
        return Atom(pred, tuple(rng.choice(variables) for _ in range(arity)))

    rules = []
    for idb in idbs:
        n_rules = rng.randint(1, 3)
        for _ in range(n_rules):
            body = [random_atom([("R", 2), ("U", 1)])]
            idb_used = 0
            for _ in range(rng.randint(0, 2)):
                pool = [("R", 2), ("U", 1)]
                if idb_used < max_idb_atoms:
                    pool += [("A", 1), ("B", 1)]
                atom = random_atom(pool)
                if atom.pred in ("A", "B"):
                    idb_used += 1
                body.append(atom)
            body_vars = set()
            for atom in body:
                body_vars |= atom.variables()
            head_var = rng.choice(sorted(body_vars, key=repr))
            rules.append(Rule(Atom(idb, (head_var,)), tuple(body)))
    return DatalogProgram(tuple(rules))


def _random_instance(rng: random.Random) -> Instance:
    n = rng.randint(1, 4)
    inst = Instance()
    for _ in range(rng.randint(0, 8)):
        inst.add_tuple("R", (rng.randrange(n), rng.randrange(n)))
    for _ in range(rng.randint(0, 3)):
        inst.add_tuple("U", (rng.randrange(n),))
    return inst


@pytest.mark.parametrize("seed", range(40))
def test_naive_equals_seminaive_fuzz(seed):
    rng = random.Random(seed)
    program = _random_program(rng)
    instance = _random_instance(rng)
    assert naive_fixpoint(program, instance) == stratified_fixpoint(
        program, instance
    )


@pytest.mark.parametrize("seed", range(20))
def test_prop1_fuzz(seed):
    """Evaluation == union of approximation matches (small instances)."""
    from repro.core.approximation import approximations

    rng = random.Random(1000 + seed)
    program = _random_program(rng, max_idb_atoms=1)  # linear: bounded
    instance = _random_instance(rng)
    query = DatalogQuery(program, "A")
    expected = query.evaluate(instance)
    got = set()
    try:
        for cq in approximations(query, 4, max_count=200):
            got |= cq.evaluate(instance)
    except ValueError:
        pytest.skip("random program hit an unsupported expansion shape")
    # approximations of bounded depth under-approximate; on instances
    # with <= 4 elements, depth 5 covers every derivation of A except
    # very deep recursions — assert soundness always, completeness when
    # the fixpoint is shallow
    assert got <= expected
    if _fixpoint_depth(program, instance) <= 3:
        assert got == expected


def _fixpoint_depth(program: DatalogProgram, instance: Instance) -> int:
    """Number of semi-naive rounds until the fixpoint stabilizes."""
    from repro.core.evaluation import _rule_derivations

    state = instance.copy()
    rounds = 0
    changed = True
    while changed:
        derived = [
            fact
            for rule in program.rules
            for fact in _rule_derivations(rule, state)
        ]
        changed = False
        for fact in derived:
            if state.add(fact):
                changed = True
        if changed:
            rounds += 1
    return rounds
