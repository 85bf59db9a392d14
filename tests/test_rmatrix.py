import json

import pytest

import qspace
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
    projector_numerators,
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
    # the numerators the checks multiply, each its projector times its gap
    for num in projector_numerators(space).values():
        for v in num.terms.values():
            assert dict(v.den) == {0: 1} and all(type(c) is int for c in v.num.values())


@pytest.mark.parametrize("space", ["line", "euclid3"])
def test_numerators_are_the_projectors_times_their_gaps(space):
    evs = eigenvalues(space)
    nums, projs = projector_numerators(space), build_projectors(space)
    assert list(nums) == list(projs) == list(evs)
    for name, num in nums.items():
        assert num == projs[name].scale(rmatrix._gap(evs, name))


@pytest.mark.parametrize("space", ["line", "euclid3"])
@pytest.mark.parametrize("table", [projector_numerators, build_projectors])
def test_a_stored_projector_table_cannot_be_changed(space, table):
    stored = table(space)
    shown = {name: str(m) for name, m in stored.items()}
    with pytest.raises(AttributeError):
        stored.clear()
    with pytest.raises(TypeError):
        stored["P0"] = stored["P+"]
    again = table(space)
    assert again == stored
    assert {name: str(m) for name, m in again.items()} == shown


# the reports of each planted fault, recorded while the check multiplied the
# projectors themselves
_PLANTED = {
    "P0 doubled": [("P0^2 != P0", "P0", ""), ("sum != Id", "sum of projectors", "Id")],
    "P+ perturbed": [("P+^2 != P+", "P+", ""), ("P+*P- != 0", "P+", "P-"),
                     ("sum != Id", "sum of projectors", "Id")],
}


def _plant(monkeypatch, fault):
    """Plant a fault in the numerators of both spaces: P0 doubled, or P+
    with q added at (ab, ba), a and b the last two labels (a swap-block
    entry), which is its numerator with c+ q added there."""
    planted = {}
    for space in ("line", "euclid3"):
        nums = planted[space] = dict(projector_numerators(space))
        if fault == "P0 doubled":
            nums["P0"] = nums["P0"].scale(2)
        else:
            idx = _pair_idx(space)
            a, b = rmatrix.labels(space)[-2:]
            gap = rmatrix._gap(eigenvalues(space), "P+")
            nums["P+"] = nums["P+"] + QMatrix(len(idx), {(idx[a, b], idx[b, a]): gap * qpow(1)})
    monkeypatch.setattr(rmatrix, "projector_numerators", planted.__getitem__)


@pytest.mark.parametrize("space", ["line", "euclid3"])
@pytest.mark.parametrize("fault", list(_PLANTED))
def test_planted_projector_faults_give_the_recorded_reports(monkeypatch, space, fault):
    _plant(monkeypatch, fault)
    rep = projector_algebra_check(space)
    assert rep.status == "fail"
    assert [(f.indices, f.lhs, f.rhs) for f in rep.failures] == _PLANTED[fault]


# the spectral reports of the same faults, recorded while the check summed
# the projectors themselves: each differing entry is the projector sum's
_PLANTED_SPECTRAL = {
    ("P0 doubled", "line"): [("(3, 3)", "2q", "q")],
    ("P0 doubled", "euclid3"): [
        ("(7, 7)", "q^-2/(q^4 + q^2 + 1)", "0"),
        ("(7, 10)", "-q^-3/(q^4 + q^2 + 1)", "0"),
        ("(7, 13)", "(1 + q^-2 + 2q^-4)/(q^4 + q^2 + 1)", "q^-4"),
        ("(10, 7)", "-q^-3/(q^4 + q^2 + 1)", "0"),
        ("(10, 10)", "(q^2 + 1 + q^-2 + q^-4)/(q^4 + q^2 + 1)", "q^-2"),
        ("(10, 13)", "(q^3 + q - q^-3 - 2q^-5)/(q^4 + q^2 + 1)", "q^-1 - q^-5"),
        ("(13, 7)", "(1 + q^-2 + 2q^-4)/(q^4 + q^2 + 1)", "q^-4"),
        ("(13, 10)", "(q^3 + q - q^-3 - 2q^-5)/(q^4 + q^2 + 1)", "q^-1 - q^-5"),
        ("(13, 13)", "(q^4 - 1 - q^-2 + 2q^-6)/(q^4 + q^2 + 1)", "1 - q^-2 - q^-4 + q^-6"),
    ],
    ("P+ perturbed", "line"): [("(1, 2)", "-q + 1", "1")],
    ("P+ perturbed", "euclid3"): [("(11, 14)", "q + q^-2", "q^-2")],
}


@pytest.mark.parametrize("space", ["line", "euclid3"])
@pytest.mark.parametrize("fault", list(_PLANTED))
def test_planted_faults_give_the_recorded_spectral_reports(monkeypatch, space, fault):
    _plant(monkeypatch, fault)
    rep = spectral_check(space)
    assert rep.status == "fail"
    assert [(f.indices, f.lhs, f.rhs) for f in rep.failures] == _PLANTED_SPECTRAL[fault, space]


def test_a_perturbed_p_plus_gives_the_recorded_projector_reports(monkeypatch, capsys, recorded):
    # the projector-algebra and spectral reports of both spaces, recorded
    # while the checks read P+ itself with q added at (ab, ba): the spectral
    # check's entries, shown divided by the product of the gaps, are the
    # projector sum's
    _plant(monkeypatch, "P+ perturbed")
    assert main(["verify", "projectors", "--json"]) == 1
    assert capsys.readouterr().out == recorded("broken_projector_reports.json")


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
    # plant E[++,++] = 1 in the trace projector, its gap in the numerator:
    # the (33,33) pivot stays nonzero, but the spatial block now has rank two
    nums = dict(projector_numerators("euclid3"))
    idx = _pair_idx("euclid3")
    plus = idx["+", "+"]
    gap = rmatrix._gap(eigenvalues("euclid3"), "P0")
    nums["P0"] = nums["P0"] + QMatrix(16, {(plus, plus): gap})
    monkeypatch.setattr(rmatrix, "projector_numerators", lambda space: nums)
    with pytest.raises(ArithmeticError, match="not rank one"):
        metric_from_P0()


def test_projectors_are_built_once_per_space(monkeypatch):
    # the projectors, relations and metric suites share one build of the
    # numerators per space: every call returns the table's one entry
    from qspace.suites import run_suite

    qspace.clear_tables()
    table = qspace.tables()["rmatrix.projector_numerators"]
    got = []

    def recorded(space):
        got.append((space, projector_numerators(space)))
        return got[-1][1]

    monkeypatch.setattr(rmatrix, "projector_numerators", recorded)
    reports = run_suite(["projectors", "relations", "metric"])
    assert all(r.passed for r in reports)
    assert len(table) == 2 and {space for space, _ in got} == {"line", "euclid3"}
    assert all(nums is table[(space,)] for space, nums in got)
