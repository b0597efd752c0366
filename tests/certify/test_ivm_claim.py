"""Schema-3 ``ivm_state`` claims: emission, replay, corruption."""

import json

from repro.certify import (
    certificate,
    check_certificate,
    claim_ivm_state,
)
from repro.core import parse_instance, parse_program
from repro.core.atoms import Fact
from repro.ivm import MaterializedView

PROGRAM = parse_program(
    """
    Reach(x,y) <- E(x,y).
    Reach(x,y) <- E(x,z), Reach(z,y).
    Goal(y) <- S(x), Reach(x,y).
    """
)

BASE = parse_instance(
    """
    E('a','b'). E('b','c'). S('a').
    """
)


def _maintained_view():
    view = MaterializedView(PROGRAM, BASE)
    view.apply(inserts=[Fact("E", ("c", "d"))])
    view.apply(retracts=[Fact("E", ("a", "b"))])
    return view


def test_certificate_validates_after_maintenance():
    view = _maintained_view()
    cert = json.loads(json.dumps(view.certificate()))
    result = check_certificate(cert)
    assert result.valid, result.failures
    assert cert["meta"]["subsystem"] == "ivm"
    assert cert["meta"]["rounds"] == 2


def test_claim_shape_is_replayable_standalone():
    view = _maintained_view()
    claim = claim_ivm_state(view.program, view.base, view.state)
    assert claim["type"] == "ivm_state"
    result = check_certificate(certificate([claim]))
    assert result.valid, result.failures


def test_stale_fact_in_state_is_rejected():
    view = _maintained_view()
    corrupt = view.state.copy()
    corrupt.add(Fact("Reach", ("z", "z")))  # never derivable
    claim = claim_ivm_state(view.program, view.base, corrupt)
    result = check_certificate(certificate([claim]))
    assert not result.valid
    assert "stale" in result.failures[0]


def test_missing_fact_in_state_is_rejected():
    view = _maintained_view()
    corrupt = view.state.copy()
    corrupt.discard(Fact("Reach", ("b", "c")))
    claim = claim_ivm_state(view.program, view.base, corrupt)
    result = check_certificate(certificate([claim]))
    assert not result.valid
    assert "missing" in result.failures[0]


def test_tampered_base_is_rejected():
    # shrinking the base changes the fixpoint, so the claim must fail
    view = _maintained_view()
    smaller = view.base.copy()
    smaller.discard(Fact("E", ("b", "c")))
    claim = claim_ivm_state(view.program, smaller, view.state)
    result = check_certificate(certificate([claim]))
    assert not result.valid
