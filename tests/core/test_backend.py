"""Backend selection plumbing and the engine dispatch.

The columnar engine's *semantic* equivalence is covered by the
property suite in ``test_backend_equivalence.py``; here we pin the
seams: name validation, the engine × strategy dispatch, ambient
defaults and counter routing.
"""

from __future__ import annotations

import pytest

from repro.core.columnar import columnar_fixpoint
from repro.core.evaluation import (
    STRATEGIES,
    engine_fixpoint,
    fixpoint,
    naive_fixpoint,
)
from repro.core.instance import Instance
from repro.core.parser import parse_program, parse_query
from repro.core.runmode import BACKENDS, current, run_mode
from repro.core.stats import EngineStats


TC = parse_program(
    "T(x,y) :- R(x,y). T(x,y) :- R(x,z), T(z,y)."
)


def _chain(n: int) -> Instance:
    return Instance.from_tuples({"R": [(i, i + 1) for i in range(n)]})


# ---------------------------------------------------------------------------
# names, defaults and the engine dispatch
# ---------------------------------------------------------------------------

def test_backend_names_lists_default_first():
    assert BACKENDS == ("interpreted", "columnar")
    assert STRATEGIES == ("naive", "stratified")


def test_set_default_backend_returns_previous_and_validates():
    assert current().backend == "interpreted"
    with run_mode(backend="columnar") as mode:
        assert mode.backend == current().backend == "columnar"
        # an invalid name is rejected without clobbering the mode
        for name in ("nope", "auto"):
            with pytest.raises(ValueError, match="unknown backend.*known"):
                with run_mode(backend=name):
                    pass
        assert current().backend == "columnar"
    assert current().backend == "interpreted"


def test_engine_fixpoint_runs_every_engine_and_strategy():
    inst = _chain(6)
    expected = naive_fixpoint(TC, inst)
    for backend in BACKENDS:
        for strategy in STRATEGIES:
            stats = EngineStats()
            result = engine_fixpoint(TC, inst, backend, strategy, stats)
            assert result == expected, (backend, strategy)
            # each engine reports its own kind of work
            if backend == "columnar":
                assert stats.hom_calls == 0 and stats.join_probe_rows > 0
            else:
                assert stats.join_probe_rows == 0 and stats.hom_calls > 0


def test_fixpoint_rejects_the_seminaive_strategy():
    for backend in BACKENDS:
        with pytest.raises(ValueError, match="'seminaive'.*naive, stratified"):
            fixpoint(TC, _chain(2), strategy="seminaive", backend=backend)


# ---------------------------------------------------------------------------
# fixpoint/evaluate plumbing
# ---------------------------------------------------------------------------

def test_fixpoint_backend_param_selects_columnar():
    inst = _chain(8)
    stats = EngineStats()
    result = fixpoint(TC, inst, backend="columnar", stats=stats)
    assert result == fixpoint(TC, inst)
    # no backtracking search ran at all
    assert stats.hom_calls == 0
    assert stats.search_steps == 0
    assert stats.rows_scanned == 0
    # and the hash-join engine reported its own work
    assert stats.join_probe_rows > 0
    assert stats.join_output_rows > 0
    assert stats.facts_derived == 8 * 9 // 2


def test_fixpoint_unknown_backend_is_loud():
    for name in ("nope", "auto"):
        with pytest.raises(ValueError, match="unknown backend"):
            fixpoint(TC, _chain(2), backend=name)


def test_columnar_unknown_strategy_is_loud():
    for name in ("bogus", "seminaive"):
        with pytest.raises(ValueError, match="unknown strategy"):
            columnar_fixpoint(TC, _chain(2), strategy=name)


def test_fixpoint_uses_ambient_default_backend():
    inst = _chain(6)
    stats = EngineStats()
    with run_mode(backend="columnar"):
        result = fixpoint(TC, inst, stats=stats)
    assert result == fixpoint(TC, inst)
    assert stats.hom_calls == 0
    assert stats.join_probe_rows > 0


def test_query_evaluate_backend_param():
    query = parse_query("T(x,y) :- R(x,y). T(x,y) :- R(x,z), T(z,y).", "T")
    inst = _chain(5)
    assert query.evaluate(inst, backend="columnar") == query.evaluate(inst)
    # input facts for the intensional goal seed the answer on both engines
    inst.add_tuple("T", (99, 100))
    for backend in ("interpreted", "columnar"):
        assert (99, 100) in query.evaluate(inst, backend=backend), backend


def test_columnar_handles_idb_facts_in_input():
    """Input facts for intensional predicates seed the fixpoint."""
    inst = _chain(3)
    inst.add_tuple("T", (50, 60))
    for strategy in STRATEGIES:
        a = fixpoint(TC, inst, strategy=strategy)
        b = fixpoint(TC, inst, strategy=strategy, backend="columnar")
        assert a == b, strategy
        assert (50, 60) in b.tuples("T")


def test_columnar_mixed_arity_relation_names_do_not_crash():
    """Instances may hold rows of different arities under one name;
    atoms simply never match rows of the wrong arity (both backends)."""
    inst = Instance.from_tuples({"R": [(1, 2), (2, 3)]})
    inst.add_tuple("R", (1, 2, 3))
    a = fixpoint(TC, inst)
    b = fixpoint(TC, inst, backend="columnar")
    assert a == b
    assert (1, 3) in b.tuples("T")


def test_columnar_counters_round_trip_through_manifest_merge():
    stats = EngineStats()
    fixpoint(TC, _chain(6), backend="columnar", stats=stats)
    totals = EngineStats()
    totals.merge(EngineStats.from_dict(stats.to_dict()))
    assert totals.join_probe_rows == stats.join_probe_rows
    assert totals.columnar_batches == stats.columnar_batches


def test_cli_eval_backend_flag(tmp_path, capsys):
    from repro.cli import main

    query_file = tmp_path / "q.dl"
    query_file.write_text(
        "# goal: T\nT(x,y) :- R(x,y).\nT(x,y) :- R(x,z), T(z,y).\n"
    )
    inst_file = tmp_path / "i.dl"
    inst_file.write_text("R(1,2). R(2,3).\n")
    assert main(["eval", str(query_file), str(inst_file)]) == 0
    plain = capsys.readouterr().out
    assert main([
        "eval", str(query_file), str(inst_file), "--backend", "columnar",
    ]) == 0
    columnar = capsys.readouterr().out
    assert plain == columnar
    assert "(1, 3)" in columnar
    # the run mode is restored after the command
    assert current().backend == "interpreted"


def test_cli_decide_accepts_backend_flag(tmp_path, capsys):
    from repro.cli import main

    query_file = tmp_path / "q.dl"
    query_file.write_text("Q(x) :- R(x,y).\n")
    views_file = tmp_path / "v.dl"
    views_file.write_text("# view: V\nV(x,y) :- R(x,y).\n")
    code = main([
        "decide", str(query_file), str(views_file), "--backend", "columnar",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict" in out
    assert current().backend == "interpreted"


@pytest.mark.parametrize("argv", [
    ["eval", "q.txt", "i.txt"],
    ["decide", "q.txt", "v.txt"],
    ["evidence", "run"],
    ["serve", "--once", "s.json"],
])
def test_cli_backend_rejects_unknown_names(argv, capsys):
    """All four ``--backend`` flags take exactly the two engines, and
    ``evidence run``/``serve`` no longer take ``--optimize`` (the
    optimizer is ``repro optimize``, not a run mode)."""
    from repro.cli import main

    for name in ("nope", "auto"):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--backend", name])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
    if argv[0] in ("evidence", "serve"):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--optimize"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --optimize" in (
            capsys.readouterr().err
        )
