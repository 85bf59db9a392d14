"""Closed-form q-calculus on commutative functions.

``test_closed_forms_match_recorded_strings`` compares every closed-form
action (forward actions on both representatives, and the inverse
derivatives) with the strings recorded in ``golden_closed_forms.json``.
Regenerate them only for an intended change of the results:
``PYTHONPATH=src python tests/test_qfunc.py --record``.
"""

import itertools
import json
import os
import random
import sys
from fractions import Fraction

import pytest

from qspace import qfunc
from qspace.cfunc import CFunction, E3_VARS, LINE_VARS, _monomials, space_vars
from qspace.cli import main
from qspace.ncalgebra import NCElement, act, lift, lower, reorder_transform
from qspace.qfunc import (
    act_inverse_partial,
    act_partial_closed,
    scale_arg,
)
from qspace.scalars import I, LAM, ONE, Q, QScalar, qpow, scalar
from qspace.spaces import CALCULI, D_OF_LABEL, HAT_POWER

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_closed_forms.json")


def mono(vars_, exps, coeff=ONE):
    return CFunction.monomial(vars_, exps, coeff)


def test_jackson_derivative_examples():
    f = mono(LINE_VARS, (0, 2))
    assert f.jackson_d("x1", 1) == mono(LINE_VARS, (0, 1), ONE + qpow(1))
    g = mono(LINE_VARS, (3, 0))
    assert g.jackson_d("x1", 1).is_zero()


def test_jackson_matches_difference_quotient_numerically():
    rng = random.Random(13)
    q0 = 1.1
    for _ in range(100):
        terms = {
            (rng.randint(0, 3), rng.randint(0, 4)): scalar(rng.randint(-5, 5))
            for _ in range(4)
        }
        f = CFunction(LINE_VARS, terms)
        a = rng.choice([1, 2, -1])
        df = f.jackson_d("x1", a)
        for x in (0.7, 1.3):
            fx = f.eval_float(q0, {"x0": 0.5, "x1": x})
            fqx = f.eval_float(q0, {"x0": 0.5, "x1": (q0 ** a) * x})
            quotient = (fqx - fx) / ((q0 ** a - 1) * x)
            got = df.eval_float(q0, {"x0": 0.5, "x1": x})
            assert abs(got - quotient) < 1e-12


def test_jackson_classical_limit():
    # at q = 1 the Jackson derivative is the ordinary one, degree <= 5
    for n0 in range(3):
        for n1 in range(6):
            f = mono(LINE_VARS, (n0, n1))
            got = f.jackson_d("x1", 1).eval_coeffs_exact(1)
            want = f.classical_d("x1").eval_coeffs_exact(1)
            assert got == want, (n0, n1)


def test_antiderivative_examples_and_inverse():
    one = CFunction.constant(LINE_VARS, 1)
    assert one.jackson_antiderivative("x1", 1) == mono(LINE_VARS, (0, 1))
    x = mono(LINE_VARS, (0, 1))
    assert x.jackson_antiderivative("x1", 1) == mono(
        LINE_VARS, (0, 2), ONE / (ONE + qpow(1))
    )
    rng = random.Random(17)
    for _ in range(20):
        terms = {
            (rng.randint(0, 2), rng.randint(0, 6)): scalar(rng.randint(-4, 4))
            for _ in range(4)
        }
        f = CFunction(LINE_VARS, terms)
        assert f.jackson_antiderivative("x1", 2).jackson_d("x1", 2) == f


def test_closed_action_examples():
    f = mono(E3_VARS, (2, 0, 0, 0))
    got = act_partial_closed("0", "left", f, "euclid3")
    assert got == mono(E3_VARS, (1, 0, 0, 0), scalar(2))

    f = mono(E3_VARS, (0, 0, 2, 0))
    got = act_partial_closed("-", "left", f, "euclid3")
    assert got == mono(E3_VARS, (0, 1, 0, 0), LAM * (ONE + qpow(2)))

    f = mono(LINE_VARS, (0, 2))
    got = act_partial_closed("1", "right_bar", f, "line")
    assert got == mono(LINE_VARS, (0, 1), -(ONE + qpow(1)))


def test_generated_line_variants_match_printed_forms():
    # the substitution-generated representations must coincide with the
    # explicitly printed line formulas
    rng = random.Random(19)
    for _ in range(25):
        terms = {
            (rng.randint(0, 2), rng.randint(0, 4)): scalar(rng.randint(-4, 4))
            for _ in range(3)
        }
        f = CFunction(LINE_VARS, terms)
        checks = [
            ("1", "left", f.jackson_d("x1", 1)),
            ("1", "left_bar", f.jackson_d("x1", -1)),
            ("1", "right", -f.jackson_d("x1", -1)),
            ("1", "right_bar", -f.jackson_d("x1", 1)),
            ("0", "left", f.classical_d("x0")),
            ("0", "left_bar", f.classical_d("x0")),
            ("0", "right", -f.classical_d("x0")),
            ("0", "right_bar", -f.classical_d("x0")),
        ]
        for idx, variant, want in checks:
            assert act_partial_closed(idx, variant, f, "line") == want, (idx, variant)


@pytest.mark.parametrize("space", ["line", "euclid3"])
def test_oracle_equivalence_low_degree(space):
    vars_ = space_vars(space)
    for idx, dtag in D_OF_LABEL[space].items():
        for variant in ("left", "left_bar", "right", "right_bar"):
            D = NCElement.generator(space, dtag)
            if CALCULI[variant][0] and idx != "0":
                D = D.scale(qpow(HAT_POWER[space]))
            for e in itertools.product(range(3), repeat=len(vars_)):
                if sum(e) > 2:
                    continue
                f = CFunction.monomial(vars_, e)
                closed = act_partial_closed(idx, variant, f, space)
                oracle = lower(space, act(D, lift(space, f), variant))
                assert closed == oracle, (idx, variant, e)


@pytest.fixture
def scaled_right_action(monkeypatch):
    """Multiply the closed-form action by q for the right-handed variants at
    index '-' on euclid3, as the oracle-actions suite reads it at call time."""
    plain = qfunc._act

    def planted(inverse, index, variant, f, space, rep):
        out = plain(inverse, index, variant, f, space, rep)
        if not inverse and space == "euclid3" and index == "-" and variant in ("right", "right_bar"):
            return out * qpow(1)
        return out

    monkeypatch.setattr(qfunc, "_act", planted)


def test_a_scaled_right_action_fails_the_recorded_oracle_report(scaled_right_action, capsys,
                                                                recorded):
    # the euclid3 report fails with the recorded entries, whose two printed
    # sides are the closed form's and the engine's right-mode action
    assert main(["verify", "oracle-actions", "--json"]) == 1
    assert capsys.readouterr().out == recorded("broken_closed_action_reports.json")


def test_inverse_examples():
    one = CFunction.constant(E3_VARS, 1)
    assert act_inverse_partial("+", "left", one, "euclid3") == mono(E3_VARS, (0, 1, 0, 0))
    assert act_inverse_partial("-", "left", one, "euclid3") == mono(E3_VARS, (0, 0, 0, 1))


@pytest.mark.parametrize("space", ["line", "euclid3"])
def test_inverse_property(space):
    rng = random.Random(23)
    vars_ = space_vars(space)
    indices = list(D_OF_LABEL[space])
    for _ in range(30):
        exps = tuple(rng.randint(0, 2) for _ in vars_)
        if sum(exps) > 4:
            continue
        f = CFunction.monomial(vars_, exps, scalar(rng.randint(1, 3)))
        for idx in indices:
            for variant in ("left", "left_bar", "right", "right_bar"):
                g = act_inverse_partial(idx, variant, f, space)
                assert act_partial_closed(idx, variant, g, space) == f, (idx, variant, exps)


@pytest.mark.parametrize("space", ["euclid3", "line"])
def test_unknown_rep_is_rejected(space):
    # a misspelt representative used to be read as the reversed ordering on
    # euclid3 and ignored on the line
    f = mono(E3_VARS, (0, 1, 1, 0)) if space == "euclid3" else mono(LINE_VARS, (0, 2))
    index = "+" if space == "euclid3" else "1"
    for variant in ("left", "left_bar", "right", "right_bar"):
        with pytest.raises(ValueError, match="unknown rep 'bogus'"):
            act_partial_closed(index, variant, f, space, rep="bogus")
        if space == "line":  # one ordering, so both representatives act alike
            assert act_partial_closed(index, variant, f, space, rep="reversed") == (
                act_partial_closed(index, variant, f, space))


def _mixed_functions(space, rng):
    """Seeded multi-term polynomials of degree <= 3 with rational, Gaussian
    and q-rational coefficients."""
    vars_ = space_vars(space)
    exps = list(_monomials(vars_, 3, False))
    coeffs = (scalar(Fraction(-3, 7)), I * qpow(2) + scalar(Fraction(1, 2)),
              ONE / (qpow(1) + I), (ONE + LAM) / scalar(5))
    out = []
    for _ in range(6):
        f = CFunction.zero(vars_)
        for c in rng.sample(coeffs, 3):
            f = f + mono(vars_, rng.choice(exps), c)
        out.append(f)
    return out


@pytest.mark.parametrize("space", ["line", "euclid3"])
def test_transported_actions_match_the_transports_around_the_native_action(space):
    # the replaced composition, through the public API: carry f into the
    # variant's native ordering, act there, and carry the result back
    rng = random.Random(44)
    fs = _mixed_functions(space, rng)
    for variant in CALCULI:
        native = "reversed" if CALCULI[variant][0] else "standard"
        rep = "standard" if native == "reversed" else "reversed"
        for idx in D_OF_LABEL[space]:
            for f in fs:
                moved = reorder_transform(space, f, "to_" + native)
                want = reorder_transform(
                    space, act_partial_closed(idx, variant, moved, space, rep=native), "to_" + rep)
                assert act_partial_closed(idx, variant, f, space, rep=rep) == want, (
                    variant, idx, f)


def test_scale_arg():
    f = mono(LINE_VARS, (0, 2))
    assert scale_arg(f, "x1", 2) == mono(LINE_VARS, (0, 2), qpow(2))
    assert scale_arg(f, "x1", 0) == f
    assert scale_arg(scale_arg(f, "x1", 2), "x1", -2) == f


@pytest.mark.parametrize("call", [
    lambda f: f.degree("x9"),
    lambda f: f.jackson_d("x9", 1),
    lambda f: f.scale_var("x9", 2),
    lambda f: f.scale_var("x9", 0),
    lambda f: f.subs_scalar("x9", ONE),
    lambda f: f.value_at("x9", ONE),
    lambda f: f.shift_var("x9", ONE),
    lambda f: CFunction.var(f.vars, "x9"),
], ids=["degree", "jackson_d", "scale_var", "scale_var_by_0", "subs_scalar", "value_at",
        "shift_var", "var"])
def test_an_unknown_variable_is_named(call):
    f = CFunction.var(LINE_VARS, "x1", 2)
    with pytest.raises(ValueError, match=r"unknown variable 'x9', not one of \('x0', 'x1'\)"):
        call(f)


def test_scale_commutes_with_jackson():
    # D_{q^a}(f(q^s x)) = q^s (D_{q^a} f)(q^s x) on monomials
    for n in range(1, 5):
        f = mono(LINE_VARS, (0, n))
        for a in (1, 2, -1):
            for s in (2, 4, -2):
                lhs = scale_arg(f, "x1", s).jackson_d("x1", a)
                rhs = scale_arg(f.jackson_d("x1", a), "x1", s).scale(QScalar.q_power(s))
                assert lhs == rhs, (n, a, s)


def test_qconstant():
    # q-constant: both left derivative actions annihilate the function
    def qconstant(f):
        return (act_partial_closed("0", "left", f, "line").is_zero()
                and act_partial_closed("1", "left", f, "line").is_zero())

    assert qconstant(CFunction.constant(LINE_VARS, 5))
    assert not qconstant(mono(LINE_VARS, (0, 1)))
    assert not qconstant(mono(LINE_VARS, (1, 0)) + mono(LINE_VARS, (0, 1)))


# -- the recorded closed forms ----------------------------------------------------

# every monomial to this total degree, times q + 3: a unit coefficient would
# hide a missing q -> 1/q substitution
_GOLDEN_DEGREE = {"euclid3": 3, "line": 5}


def closed_forms():
    out = {}
    for space, degree in _GOLDEN_DEGREE.items():
        vars_ = space_vars(space)
        for e in _monomials(vars_, degree, False):
            f = CFunction.monomial(vars_, e, Q + scalar(3))
            for idx in D_OF_LABEL[space]:
                for variant in ("left", "left_bar", "right", "right_bar"):
                    key = f"{space} {idx} {variant} {','.join(map(str, e))}"
                    for rep in ("standard", "reversed"):
                        out[f"{key} {rep}"] = str(act_partial_closed(idx, variant, f, space, rep))
                    out[f"{key} inverse"] = str(act_inverse_partial(idx, variant, f, space))
    return out


def test_closed_forms_match_recorded_strings():
    with open(GOLDEN) as fh:
        want = json.load(fh)
    got = closed_forms()
    assert got.keys() == want.keys()
    for key, text in got.items():
        assert text == want[key], key


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        with open(GOLDEN, "w") as fh:
            json.dump(closed_forms(), fh, indent=0, ensure_ascii=False)
            fh.write("\n")
