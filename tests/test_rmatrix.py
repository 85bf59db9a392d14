import json

import pytest

from qspace import suites
from qspace.cli import main
from qspace import rmatrix
from qspace.rmatrix import (
    QMatrix,
    _pair_idx,
    build_projectors,
    build_R,
    check_ybe,
    eigenvalues,
    metric_check,
    metric_from_P0,
    projector_algebra_check,
    relations_from_projectors,
    spectral_check,
)
from qspace.scalars import LAM, ONE, ZERO, qpow, scalar


def _entry(space, upper, lower):
    """R^{upper}_{lower} with upper/lower label pairs like ("+", "3")."""
    idx = _pair_idx(space)
    return build_R(space).get(idx[upper], idx[lower])


def test_line_entries():
    assert _entry("line", ("1", "1"), ("1", "1")) == qpow(1)
    assert _entry("line", ("0", "1"), ("1", "0")) == ONE
    assert _entry("line", ("0", "1"), ("0", "1")) == ZERO


def test_euclid3_entries():
    e = lambda upper, lower: _entry("euclid3", upper, lower)
    assert e(("-", "+"), ("+", "-")) == qpow(-4)
    assert e(("+", "+"), ("+", "+")) == ONE
    assert e(("3", "+"), ("3", "+")) == qpow(-2) * LAM * (qpow(1) + qpow(-1))
    assert e(("0", "+"), ("+", "0")) == ONE
    assert e(("+", "0"), ("0", "+")) == ONE
    assert e(("0", "0"), ("0", "0")) == ONE


@pytest.mark.parametrize("space", ["line", "euclid3"])
def test_yang_baxter(space):
    assert check_ybe(space, build_R(space)).passed


def test_yang_baxter_identity_matrix():
    assert check_ybe("line", QMatrix.identity(4)).passed


def _broken_line_ybe():
    """check_ybe on the line braiding with one entry added: E[00,11] = 1."""
    R = build_R("line")
    return check_ybe("line", QMatrix(R.n, {**R.terms, (0, 3): ONE}))


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


def test_qmatrix_product_checks_sizes():
    assert QMatrix.identity(2) * QMatrix.identity(2) == QMatrix.identity(2)
    for other in (QMatrix.identity(3), QMatrix(3, {(0, 0): ONE})):
        with pytest.raises(ValueError, match="matrix sizes differ"):
            QMatrix.identity(2) * other
        with pytest.raises(ValueError, match="matrix sizes differ"):
            other * QMatrix.identity(2)


def test_line_projector_entries():
    P = build_projectors("line")
    half = scalar(1) / scalar(2)
    assert P["P-"].get(1, 1) == half
    assert P["P0"].get(3, 3) == ONE
    assert P["P+"].get(1, 2) == -half


def _printed_projectors(space):
    """The printed polynomial formulas of the projectors in R."""
    R = build_R(space)
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
    assert build_projectors(space) == _printed_projectors(space)


@pytest.mark.parametrize("space", ["line", "euclid3"])
def test_projector_algebra(space):
    assert projector_algebra_check(space).passed


@pytest.mark.parametrize("space", ["line", "euclid3"])
def test_gap_scaled_projectors_are_laurent_polynomials_over_the_integers(space):
    evs = eigenvalues(space)
    for name, proj in build_projectors(space).items():
        for v in proj.scale(rmatrix._gap(evs, name)).terms.values():
            assert dict(v.den) == {0: 1} and all(type(c) is int for c in v.num.values())


# the reports of each planted fault, recorded while the check multiplied the
# projectors themselves
_PLANTED = {
    "P0 doubled": [("P0^2 != P0", "P0", ""), ("sum != Id", "sum of projectors", "Id")],
    "P+ perturbed": [("P+^2 != P+", "P+", ""), ("P+*P- != 0", "P+", "P-"),
                     ("sum != Id", "sum of projectors", "Id")],
}


@pytest.mark.parametrize("space", ["line", "euclid3"])
@pytest.mark.parametrize("fault", list(_PLANTED))
def test_planted_projector_faults_give_the_recorded_reports(monkeypatch, space, fault):
    projs = dict(build_projectors(space))
    if fault == "P0 doubled":
        projs["P0"] = projs["P0"].scale(2)
    else:
        # q added at (ab, ba), a and b the last two labels: a swap-block entry
        idx = _pair_idx(space)
        a, b = rmatrix.labels(space)[-2:]
        projs["P+"] = projs["P+"] + QMatrix(len(idx), {(idx[a, b], idx[b, a]): qpow(1)})
    monkeypatch.setattr(rmatrix, "build_projectors", lambda space: projs)
    rep = projector_algebra_check(space)
    assert rep.status == "fail"
    assert [(f.indices, f.lhs, f.rhs) for f in rep.failures] == _PLANTED[fault]


@pytest.mark.parametrize("space", ["line", "euclid3"])
def test_spectral_decomposition(space):
    assert spectral_check(space).passed


def test_line_eigenvalue_assignment():
    # the '+' subscript projector belongs to eigenvalue -1 on the line
    evs = eigenvalues("line")
    assert evs["P+"] == -ONE
    assert evs["P-"] == ONE
    assert evs["P0"] == qpow(1)
    assert list(build_projectors("line")) == list(evs)


def test_line_relations():
    rules = relations_from_projectors("line")
    assert len(rules) == 1
    assert list(rules) == [("1", "0")]
    assert rules[("1", "0")] == {("0", "1"): ONE}


def test_euclid3_relations_contain_printed_set():
    rules = relations_from_projectors("euclid3")
    assert rules[("3", "+")] == {("+", "3"): qpow(2)}
    assert rules[("-", "3")] == {("3", "-"): qpow(2)}
    assert rules[("-", "+")] == {("+", "-"): ONE, ("3", "3"): LAM}
    for a in ("+", "3", "-"):
        assert rules[(a, "0")] == {("0", a): ONE}
    assert len(rules) == 6


def test_relations_are_pinned_in_full():
    # every relation of both spaces, in the elimination's pivot order
    assert list(relations_from_projectors("line").items()) == [
        (("1", "0"), {("0", "1"): ONE}),
    ]
    assert list(relations_from_projectors("euclid3").items()) == [
        (("+", "0"), {("0", "+"): ONE}),
        (("3", "0"), {("0", "3"): ONE}),
        (("3", "+"), {("+", "3"): qpow(2)}),
        (("-", "0"), {("0", "-"): ONE}),
        (("-", "+"), {("+", "-"): ONE, ("3", "3"): LAM}),
        (("-", "3"), {("3", "-"): qpow(2)}),
    ]


def test_metric_entries():
    lower, upper = metric_from_P0()
    assert upper.get(("+", "-"), ZERO) == -qpow(1)
    assert upper.get(("-", "+"), ZERO) == -qpow(-1)
    assert upper.get(("3", "3"), ZERO) == ONE
    assert lower.get(("+", "-"), ZERO) == -qpow(1)
    assert lower.get(("-", "+"), ZERO) == -qpow(-1)
    assert lower.get(("3", "3"), ZERO) == ONE
    assert metric_check(lower, upper).passed


def test_metric_trace():
    lower, upper = metric_from_P0()
    total = ZERO
    for a in ("+", "3", "-"):
        for b in ("+", "3", "-"):
            total = total + upper.get((a, b), ZERO) * lower.get((a, b), ZERO)
    assert total == qpow(2) + ONE + qpow(-2)


def test_a_rank_two_trace_block_has_no_metric(monkeypatch):
    # plant E[++,++] = 1 in the trace projector: the (33,33) pivot stays
    # nonzero, but the spatial block now has rank two
    projs = dict(build_projectors("euclid3"))
    idx = _pair_idx("euclid3")
    plus = idx["+", "+"]
    projs["P0"] = projs["P0"] + QMatrix(16, {(plus, plus): ONE})
    monkeypatch.setattr(rmatrix, "build_projectors", lambda space: projs)
    with pytest.raises(ArithmeticError, match="not rank one"):
        metric_from_P0()


def test_projectors_are_built_once_per_space():
    # the projectors, relations and metric suites share one build per space
    from qspace.suites import run_suite

    build_projectors.cache_clear()
    reports = run_suite(["projectors", "relations", "metric"])
    assert all(r.passed for r in reports)
    assert build_projectors.cache_info().misses == 2
