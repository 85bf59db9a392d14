import json

import pytest

from qspace import suites
from qspace.cli import main
from qspace.rmatrix import (
    QMatrix,
    RMatrix,
    build_projectors,
    build_R,
    check_ybe,
    metric_check,
    metric_from_P0,
    projector_algebra_check,
    relations_from_projectors,
    spectral_check,
)
from qspace.scalars import LAM, ONE, ZERO, qpow, scalar


def test_line_entries():
    R = build_R("line")
    assert R.entry(("1", "1"), ("1", "1")) == qpow(1)
    assert R.entry(("0", "1"), ("1", "0")) == ONE
    assert R.entry(("0", "1"), ("0", "1")) == ZERO


def test_euclid3_entries():
    R = build_R("euclid3")
    assert R.entry(("-", "+"), ("+", "-")) == qpow(-4)
    assert R.entry(("+", "+"), ("+", "+")) == ONE
    assert R.entry(("3", "+"), ("3", "+")) == qpow(-2) * LAM * (qpow(1) + qpow(-1))
    assert R.entry(("0", "+"), ("+", "0")) == ONE
    assert R.entry(("+", "0"), ("0", "+")) == ONE
    assert R.entry(("0", "0"), ("0", "0")) == ONE


@pytest.mark.parametrize("space", ["line", "euclid3"])
def test_yang_baxter(space):
    assert check_ybe(build_R(space)).passed


def test_yang_baxter_identity_matrix():
    R = RMatrix("line", QMatrix.identity(4))
    assert check_ybe(R).passed


def _broken_line_ybe():
    """check_ybe on the line braiding with one entry added: E[00,11] = 1."""
    R = build_R("line")
    m = QMatrix(R.mat.n, dict(R.mat.terms))
    m.set(0, 3, ONE)
    return check_ybe(RMatrix("line", m))


def test_yang_baxter_failure_report():
    rep = _broken_line_ybe()
    assert rep.status == "fail" and not rep.passed
    assert [f.indices for f in rep.failures] == ["(001,111)", "(100,111)"]
    assert rep.to_json()["failures"] == [
        {"indices": "(001,111)", "lhs": "q^2", "rhs": "1"},
        {"indices": "(100,111)", "lhs": "1", "rhs": "q^2"},
    ]
    assert rep.summary_line().endswith("(2 failing)")


def test_verify_exits_1_on_a_failing_report(monkeypatch, capsys):
    rep = _broken_line_ybe()
    monkeypatch.setitem(suites.SUITES, "ybe", lambda opts: [rep])
    assert main(["verify", "ybe", "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == [rep.to_json()]


def test_qmatrix_is_a_linear_combination_of_matrix_units():
    a = QMatrix(2, {(0, 0): ONE, (0, 1): qpow(1), (1, 0): ZERO})
    assert a.terms == {(0, 0): ONE, (0, 1): qpow(1)}  # zero entries dropped
    assert (a - a).is_zero() and (a + a) == a.scale(2)
    assert a - QMatrix.identity(2) == QMatrix(2, {(0, 1): qpow(1), (1, 1): -ONE})
    assert str(a) == "E[0,0] + q E[0,1]"
    with pytest.raises(ValueError):
        a + QMatrix.identity(3)


def test_line_projector_entries():
    P = build_projectors("line")
    half = scalar(1) / scalar(2)
    assert P.projectors["P-"].get(1, 1) == half
    assert P.projectors["P0"].get(3, 3) == ONE
    assert P.projectors["P+"].get(1, 2) == -half


def _printed_projectors(space):
    """The printed polynomial formulas of the projectors in R."""
    R = build_R(space).mat
    Id = QMatrix.identity(R.n)
    q = qpow(1)
    if space == "line":
        return {
            "P+": ((R - Id) * (R - Id.scale(q))).scale(ONE / (scalar(2) * (ONE + q))),
            "P-": ((R + Id) * (R - Id.scale(q))).scale(ONE / (scalar(2) * (ONE - q))),
            "P0": ((R + Id) * (R - Id)).scale(ONE / ((q + ONE) * (q - ONE))),
        }
    q4, q6 = qpow(-4), qpow(-6)
    return {
        "P+": ((R + Id.scale(q4)) * (R - Id.scale(q6)) * (R + Id)).scale(
            ONE / (scalar(2) * (ONE + q4) * (ONE - q6))),
        "P-": ((R - Id) * (R - Id.scale(q6)) * (R + Id)).scale(
            ONE / ((ONE + q4) * (q4 + q6) * (ONE - q4))),
        "P0": ((R - Id) * (R + Id.scale(q4)) * (R + Id)).scale(
            ONE / ((q6 - ONE) * (q6 + q4) * (q6 + ONE))),
        "P'": ((R - Id) * (R + Id.scale(q4)) * (R - Id.scale(q6))).scale(
            ONE / (scalar(2) * (q4 - ONE) * (ONE + q6))),
    }


@pytest.mark.parametrize("space", ["line", "euclid3"])
def test_interpolated_projectors_match_the_printed_formulas(space):
    assert build_projectors(space).projectors == _printed_projectors(space)


@pytest.mark.parametrize("space", ["line", "euclid3"])
def test_projector_algebra(space):
    assert projector_algebra_check(build_projectors(space)).passed


@pytest.mark.parametrize("space", ["line", "euclid3"])
def test_spectral_decomposition(space):
    R = build_R(space)
    assert spectral_check(R, build_projectors(space)).passed


def test_line_eigenvalue_assignment():
    # the '+' subscript projector belongs to eigenvalue -1 on the line
    P = build_projectors("line")
    assert P.eigenvalues["P+"] == -ONE
    assert P.eigenvalues["P-"] == ONE
    assert P.eigenvalues["P0"] == qpow(1)


def test_line_relations():
    rules = relations_from_projectors("line")
    assert len(rules) == 1
    r = rules[0]
    assert r.lhs == ("1", "0")
    assert r.rhs == {("0", "1"): ONE}


def test_euclid3_relations_contain_printed_set():
    rules = {r.lhs: r.rhs for r in relations_from_projectors("euclid3")}
    assert rules[("3", "+")] == {("+", "3"): qpow(2)}
    assert rules[("-", "3")] == {("3", "-"): qpow(2)}
    assert rules[("-", "+")] == {("+", "-"): ONE, ("3", "3"): LAM}
    for a in ("+", "3", "-"):
        assert rules[(a, "0")] == {("0", a): ONE}
    assert len(rules) == 6


def test_metric_entries():
    g = metric_from_P0()
    assert g.up("+", "-") == -qpow(1)
    assert g.up("-", "+") == -qpow(-1)
    assert g.up("3", "3") == ONE
    assert g.low("+", "-") == -qpow(1)
    assert g.low("-", "+") == -qpow(-1)
    assert g.low("3", "3") == ONE
    assert metric_check(g).passed


def test_metric_trace():
    g = metric_from_P0()
    total = ZERO
    for a in ("+", "3", "-"):
        for b in ("+", "3", "-"):
            total = total + g.up(a, b) * g.low(a, b)
    assert total == qpow(2) + ONE + qpow(-2)


def test_projectors_are_built_once_per_space():
    # the projectors, relations and metric suites share one build per space
    from qspace.suites import run_suite

    build_projectors.cache_clear()
    reports = run_suite(["projectors", "relations", "metric"])
    assert all(r.passed for r in reports)
    assert build_projectors.cache_info().misses == 2
